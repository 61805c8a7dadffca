// Discrete-event queue bound to a SimClock.
//
// Components schedule callbacks at absolute simulated times; the simulation
// driver pumps due events as it advances the clock. Events may schedule
// further events, including at the current time.
//
// Determinism guarantee: events scheduled for the same simulated time fire
// in scheduling order (stable by sequence number), regardless of how the
// underlying structure rebalances and regardless of how many same-time
// events are interleaved with cancellations. Simulation reproducibility
// depends on this — the I/O request pipeline (io_scheduler.h) breaks
// same-time dispatch ties the same way, and the flush/checkpoint daemons
// rely on it when both fire in the same tick. Guarded by the regression and
// property tests in event_queue_test.cc; do not weaken it.
//
// Implementation: a calendar of timestamp buckets. Each distinct pending
// timestamp owns one bucket holding a FIFO chain of event slots, so the
// FIFO-within-timestamp guarantee is structural (append order) rather than
// bought with per-event sequence numbers and heap tie-breaks. Retirement
// pops the earliest bucket once and drains its whole chain — one heap
// operation per distinct timestamp instead of one per event. Slots live in
// a pooled vector threaded with an intrusive free list (the same `next`
// field serves as chain link and free-list link), so steady-state
// schedule/run cycles perform no heap allocation. Cancellation is lazy: the
// slot is disarmed in O(1) and reclaimed when its bucket drains, or by
// compaction once disarmed slots outnumber armed ones (see Compact()), so
// cancel-heavy workloads stay bounded in memory.
//
// The retired priority-queue implementation lives on as a test-only
// reference (tests/reference/legacy_event_queue.h); the determinism suite in
// event_queue_test.cc runs randomized schedule/cancel interleavings against
// both queues and requires bit-equal run order.

#ifndef SSMC_SRC_SIM_EVENT_QUEUE_H_
#define SSMC_SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/clock.h"
#include "src/support/units.h"

namespace ssmc {

class EventQueue {
 public:
  using Callback = std::function<void()>;
  using EventId = uint64_t;

  explicit EventQueue(SimClock& clock) : clock_(clock) {}

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` to run when the clock reaches `at` (>= now). Returns an id
  // that can be passed to Cancel().
  EventId ScheduleAt(SimTime at, Callback fn);

  // Schedules `fn` to run `delay` from now.
  EventId ScheduleAfter(Duration delay, Callback fn) {
    return ScheduleAt(clock_.now() + delay, std::move(fn));
  }

  // Cancels a pending event. Returns false if it already ran or was cancelled.
  // O(1): the slot is disarmed (its callback destroyed immediately, releasing
  // captures) and reclaimed lazily.
  bool Cancel(EventId id);

  // Runs all events due at or before `t`, advancing the clock to each event's
  // time, then advances the clock to exactly `t`.
  void RunUntil(SimTime t);

  // Runs every pending event (advancing the clock past each). Use with care:
  // self-rescheduling events make this non-terminating; RunUntil is the
  // normal driver.
  void RunAll();

  // Live (armed, not-yet-run) events. Cancelled events never count, no
  // matter how long their slots linger before reclamation.
  size_t pending() const { return pending_; }
  bool empty() const { return pending_ == 0; }

  // Slots currently held by the queue (armed + lazily-cancelled + free).
  // Exposed so tests can assert that cancel-heavy workloads stay bounded.
  size_t slot_capacity() const { return slots_.size(); }

  SimClock& clock() { return clock_; }

 private:
  struct Slot {
    SimTime at = 0;
    Callback fn;
    // Chain link while queued in a bucket; free-list link while pooled.
    int32_t next = -1;
    // Bumped on reclamation so stale EventIds can never cancel a reused slot.
    uint32_t gen = 1;
    bool armed = false;
  };

  struct Bucket {
    SimTime at = 0;
    int32_t head = -1;
    int32_t tail = -1;
    // Free-list link while pooled.
    int32_t next_free = -1;
  };

  static EventId MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  int32_t AllocSlot();
  void FreeSlot(int32_t s);
  int32_t AllocBucket(SimTime at);
  void FreeBucket(int32_t b);

  // Timestamp -> bucket index, open-addressed with linear probing.
  int32_t FindBucket(SimTime at) const;
  int32_t FindOrCreateBucket(SimTime at);
  void TableInsert(SimTime at, int32_t bucket);
  void TableErase(SimTime at);
  void Rehash(size_t new_slots);

  // Min-heap of bucket indices ordered by bucket time (times are unique, so
  // no tie-break exists to get wrong).
  void HeapPush(int32_t b);
  int32_t HeapPopMin();

  // Drains bucket `b` (already popped from the heap): advances the clock to
  // its time and fires its chain in FIFO order, including events appended to
  // the chain by the callbacks themselves.
  void DrainBucket(int32_t b);

  // Reclaims lazily-cancelled slots once they outnumber armed events (i.e.
  // more than half of all chained slots are dead), unlinking them from idle
  // bucket chains and dropping emptied buckets.
  void CompactIfNeeded();
  void Compact();

  SimClock& clock_;
  std::vector<Slot> slots_;
  int32_t free_slot_ = -1;
  std::vector<Bucket> buckets_;
  int32_t free_bucket_ = -1;
  std::vector<int32_t> heap_;
  std::vector<int32_t> table_;  // kEmptySlot / kTombstone / bucket index
  size_t table_used_ = 0;  // live entries + tombstones
  size_t pending_ = 0;     // armed events
  size_t cancelled_ = 0;   // disarmed slots still chained in buckets
};

}  // namespace ssmc

#endif  // SSMC_SRC_SIM_EVENT_QUEUE_H_
