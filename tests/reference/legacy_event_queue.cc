#include "tests/reference/legacy_event_queue.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace ssmc {

LegacyEventQueue::EventId LegacyEventQueue::ScheduleAt(SimTime at,
                                                       Callback fn) {
  assert(at >= clock_.now());
  const EventId id = next_id_++;
  heap_.push(Event{at, next_seq_++, id});
  callbacks_.emplace_back(id, std::move(fn));
  return id;
}

LegacyEventQueue::Callback LegacyEventQueue::TakeCallback(EventId id) {
  auto it = std::find_if(callbacks_.begin(), callbacks_.end(),
                         [id](const auto& p) { return p.first == id; });
  if (it == callbacks_.end()) {
    return nullptr;
  }
  Callback fn = std::move(it->second);
  callbacks_.erase(it);
  return fn;
}

bool LegacyEventQueue::Cancel(EventId id) {
  Callback fn = TakeCallback(id);
  if (!fn) {
    return false;
  }
  cancelled_.push_back(id);
  return true;
}

bool LegacyEventQueue::RunOneDue(SimTime t) {
  while (!heap_.empty()) {
    const Event top = heap_.top();
    if (top.at > t) {
      return false;
    }
    heap_.pop();
    auto cancelled_it = std::find(cancelled_.begin(), cancelled_.end(), top.id);
    if (cancelled_it != cancelled_.end()) {
      cancelled_.erase(cancelled_it);
      continue;  // Skip cancelled event; keep looking.
    }
    Callback fn = TakeCallback(top.id);
    assert(fn && "event in heap without callback");
    clock_.AdvanceTo(std::max(clock_.now(), top.at));
    fn();
    return true;
  }
  return false;
}

void LegacyEventQueue::RunUntil(SimTime t) {
  while (RunOneDue(t)) {
  }
  if (t > clock_.now()) {
    clock_.AdvanceTo(t);
  }
}

void LegacyEventQueue::RunAll() {
  while (RunOneDue(std::numeric_limits<SimTime>::max())) {
  }
}

}  // namespace ssmc
