#include "src/sim/io_scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace ssmc {

const char* IoOpName(IoOp op) {
  switch (op) {
    case IoOp::kRead:
      return "read";
    case IoOp::kProgram:
      return "program";
    case IoOp::kErase:
      return "erase";
    case IoOp::kDiskRead:
      return "disk-read";
    case IoOp::kDiskWrite:
      return "disk-write";
  }
  return "?";
}

const char* IoPriorityName(IoPriority priority) {
  switch (priority) {
    case IoPriority::kForeground:
      return "foreground";
    case IoPriority::kFlush:
      return "flush";
    case IoPriority::kCleaner:
      return "cleaner";
  }
  return "?";
}

const char* IoSchedPolicyName(IoSchedPolicy policy) {
  switch (policy) {
    case IoSchedPolicy::kFifo:
      return "fifo";
    case IoSchedPolicy::kPriority:
      return "priority";
    case IoSchedPolicy::kWeightedFair:
      return "wfq";
    case IoSchedPolicy::kTokenBucket:
      return "token";
  }
  return "?";
}

namespace {
// Virtual-time resolution: finish tags advance by service * kVtScale /
// weight, so integer division loses at most 1/kVtScale of a nanosecond of
// ordering resolution per request.
constexpr uint64_t kVtScale = 1024;
// One byte of token-bucket credit, in scaled units (see TokenBucket).
constexpr uint64_t kTokenPerByte = static_cast<uint64_t>(kSecond);
}  // namespace

void IoScheduler::TimeRing::push(SimTime t) {
  if (tail_ - head_ == buf_.size()) {
    const size_t cap = buf_.empty() ? 16 : buf_.size() * 2;
    std::vector<SimTime> grown(cap);
    const size_t count = tail_ - head_;
    for (size_t i = 0; i < count; ++i) {
      grown[i] = buf_[(head_ + i) & mask_];
    }
    buf_ = std::move(grown);
    mask_ = cap - 1;
    head_ = 0;
    tail_ = count;
  }
  buf_[tail_ & mask_] = t;
  ++tail_;
}

IoScheduler::IoScheduler(SimClock& clock, int channels, IoSchedPolicy policy,
                         IoLanes* lanes)
    : clock_(clock),
      policy_(policy),
      arena_(sizeof(Reservation)),
      lanes_(lanes) {
  assert(channels >= 1);
  channels_.resize(static_cast<size_t>(channels));
}

IoScheduler::~IoScheduler() {
  // Destroy any still-queued reservations; the arena frees raw chunks only.
  for (Channel& channel : channels_) {
    Reservation* node = channel.head;
    while (node != nullptr) {
      Reservation* next = node->next;
      arena_.Delete(node);
      node = next;
    }
  }
}

void IoScheduler::set_policy(IoSchedPolicy policy) {
  assert(pending() == 0 && "policy change requires an idle pipeline");
  policy_ = policy;
}

void IoScheduler::set_tenant_weight(TenantId tenant, uint32_t weight) {
  if (weights_.size() <= tenant) {
    weights_.resize(static_cast<size_t>(tenant) + 1, 0);
  }
  weights_[tenant] = weight == 0 ? 1 : weight;
}

uint32_t IoScheduler::tenant_weight(TenantId tenant) const {
  if (tenant < weights_.size() && weights_[tenant] != 0) {
    return weights_[tenant];
  }
  return 1;
}

void IoScheduler::set_tenant_rate(TenantId tenant, uint64_t bytes_per_s,
                                  uint64_t burst_bytes) {
  if (buckets_.size() <= tenant) {
    buckets_.resize(static_cast<size_t>(tenant) + 1);
  }
  TokenBucket& bucket = buckets_[tenant];
  bucket.rate = bytes_per_s;
  // A zero-burst bucket could never admit anything; one op's worth of
  // credit is the useful minimum.
  bucket.cap = std::max<uint64_t>(burst_bytes, 1) * kTokenPerByte;
  bucket.level = bucket.cap;  // Starts full.
  bucket.refilled_to = clock_.now();
}

SimTime IoScheduler::AdmitAt(TenantId tenant, uint64_t bytes, SimTime now) {
  if (tenant >= buckets_.size() || buckets_[tenant].rate == 0) {
    return now;
  }
  TokenBucket& bucket = buckets_[tenant];
  // Refill to now. Elapsed * rate can overflow over long idle stretches, so
  // saturate once the bucket would fill anyway.
  if (now > bucket.refilled_to) {
    const uint64_t elapsed = static_cast<uint64_t>(now - bucket.refilled_to);
    const uint64_t headroom = bucket.cap - bucket.level;
    if (elapsed >= headroom / bucket.rate + 1) {
      bucket.level = bucket.cap;
    } else {
      bucket.level = std::min(bucket.cap, bucket.level + elapsed * bucket.rate);
    }
    bucket.refilled_to = now;
  }
  // After the refill step, refilled_to >= now; it sits in the future when an
  // earlier gated request already consumed accrual through that time. All
  // credit in the bucket is valid through refilled_to, so admission is at
  // refilled_to in both branches — never earlier, or a request could spend
  // tokens that do not exist yet (and the deficit wait below would re-count
  // the same refill interval).
  const uint64_t need = std::max<uint64_t>(bytes, 1) * kTokenPerByte;
  if (bucket.level >= need) {
    bucket.level -= need;
    return bucket.refilled_to;
  }
  // Not enough credit: eligible once the deficit has accrued past
  // refilled_to (the sub-nanosecond ceil remainder stays in the bucket).
  const uint64_t deficit = need - bucket.level;
  const uint64_t wait = (deficit + bucket.rate - 1) / bucket.rate;
  bucket.level = bucket.level + wait * bucket.rate - need;
  bucket.refilled_to += static_cast<SimTime>(wait);
  return bucket.refilled_to;
}

uint64_t& IoScheduler::TenantVfinish(Channel& channel, TenantId tenant) {
  if (channel.tenant_vfinish.size() <= tenant) {
    channel.tenant_vfinish.resize(static_cast<size_t>(tenant) + 1, 0);
  }
  return channel.tenant_vfinish[tenant];
}

void IoScheduler::Retire(int channel_index, Channel& channel) {
  const SimTime now = clock_.now();
  while (!channel.light.empty() && channel.light.front() <= now) {
    channel.light.pop();
  }
  while (channel.head != nullptr && channel.head->req.complete_time <= now) {
    Reservation* done = channel.head;
    channel.head = done->next;
    if (channel.head == nullptr) {
      channel.tail = nullptr;
    }
    channel.queued -= 1;
    // Every retired reservation was served; the virtual clock follows the
    // most recently started one (vstart is 0 outside kWeightedFair).
    channel.vtime = std::max(channel.vtime, done->vstart);
    if (retire_hook_) {
      retire_hook_(channel_index, done->req);
    }
    arena_.Delete(done);
  }
}

void IoScheduler::Reflow(Reservation* from) {
  for (Reservation* r = from->next; r != nullptr; from = r, r = r->next) {
    const SimTime new_start = from->req.complete_time;
    const Duration delta = new_start - r->req.start_time;
    if (delta == 0) {
      break;  // Starts are contiguous; nothing further moves.
    }
    assert(delta > 0 && "reservations only ever shift later");
    r->req.start_time = new_start;
    r->req.complete_time = new_start + r->service;
    if (lanes_ != nullptr) {
      const uint64_t pushed = static_cast<uint64_t>(delta);
      lanes_->by_class[static_cast<int>(r->req.priority)].queue_wait_ns.Add(
          pushed);
      lanes_->by_tenant.For(r->req.tenant).queue_wait_ns.Add(pushed);
    }
  }
}

void IoScheduler::Attribute(const IoRequest& req, const Dispatch& dispatch) {
  if (lanes_ == nullptr) {
    return;
  }
  for (IoLaneStats* lane : {&lanes_->by_class[static_cast<int>(req.priority)],
                            &lanes_->by_tenant.For(req.tenant)}) {
    lane->requests.Add();
    lane->queue_wait_ns.Add(static_cast<uint64_t>(dispatch.wait));
    lane->service_ns.Add(static_cast<uint64_t>(dispatch.service));
  }
}

IoScheduler::Dispatch IoScheduler::Place(int channel_index,
                                         const IoRequest& req,
                                         Duration service_now,
                                         const ServiceFn* service_fn) {
  assert(channel_index >= 0 && channel_index < num_channels());
  Channel& channel = channels_[static_cast<size_t>(channel_index)];
  const SimTime now = clock_.now();
  Retire(channel_index, channel);

  // Fast path: under FIFO with no retire hook, the request's dispatch is
  // final at submission and nothing ever needs to revisit it — record only
  // its completion time, and attribute the lanes from the caller's request.
  if (policy_ == IoSchedPolicy::kFifo && retire_hook_ == nullptr) {
    const SimTime start = std::max(now, channel.busy_until);
    const Duration service =
        service_fn != nullptr ? (*service_fn)(start) : service_now;
    assert(service >= 0);
    Dispatch dispatch;
    dispatch.start = start;
    dispatch.complete = start + service;
    dispatch.wait = start - now;
    dispatch.service = service;
    channel.busy_until = dispatch.complete;
    channel.light.push(dispatch.complete);
    Attribute(req, dispatch);
    return dispatch;
  }

  // Insertion point (the node to insert after). FIFO and token-bucket: the
  // tail. Priority: ahead of queued reservations of a strictly lower class
  // that have not started (the head may be in service — start_time <= now —
  // and is never preempted). Equal classes keep submission order.
  // Weighted-fair: ahead of queued reservations with a larger virtual start
  // tag; equal tags keep submission order.
  Reservation* prev = channel.tail;
  uint64_t vstart = 0;
  SimTime earliest = now;
  if (policy_ == IoSchedPolicy::kPriority) {
    Reservation* before = nullptr;
    Reservation* cur = channel.head;
    while (cur != nullptr && cur->req.start_time <= now) {
      before = cur;
      cur = cur->next;
    }
    while (cur != nullptr && cur->req.priority <= req.priority) {
      before = cur;
      cur = cur->next;
    }
    prev = before;  // cur (if any) is the first reservation pushed later.
  } else if (policy_ == IoSchedPolicy::kWeightedFair) {
    // Advance the channel's virtual clock: past the reservation on the
    // medium, or — on an idle channel — to the largest finish tag assigned,
    // so a returning tenant is not charged for its idle time.
    Reservation* before = nullptr;
    Reservation* cur = channel.head;
    while (cur != nullptr && cur->req.start_time <= now) {
      channel.vtime = std::max(channel.vtime, cur->vstart);
      before = cur;
      cur = cur->next;
    }
    if (channel.head == nullptr) {
      channel.vtime = std::max(channel.vtime, channel.max_vfinish);
    }
    vstart = std::max(channel.vtime, TenantVfinish(channel, req.tenant));
    while (cur != nullptr && cur->vstart <= vstart) {
      before = cur;
      cur = cur->next;
    }
    prev = before;
  } else if (policy_ == IoSchedPolicy::kTokenBucket) {
    earliest = AdmitAt(req.tenant, req.bytes, now);
  }

  // Start when the predecessor completes; an idle channel serves at once.
  // Under FIFO the predecessor is whatever the channel last placed — light
  // requests included — which is exactly busy_until. Token-bucket requests
  // additionally wait out their admission time (the channel sits idle; the
  // queue is FIFO, so nothing may overtake the gated request).
  SimTime start = policy_ == IoSchedPolicy::kFifo
                      ? std::max(now, channel.busy_until)
                      : (prev == nullptr ? now : prev->req.complete_time);
  start = std::max(start, earliest);
  const Duration service =
      service_fn != nullptr ? (*service_fn)(start) : service_now;
  assert(service >= 0);

  if (policy_ == IoSchedPolicy::kWeightedFair) {
    const uint64_t vfinish =
        vstart + static_cast<uint64_t>(service) * kVtScale /
                     tenant_weight(req.tenant);
    TenantVfinish(channel, req.tenant) = vfinish;
    channel.max_vfinish = std::max(channel.max_vfinish, vfinish);
  }

  Dispatch dispatch;
  dispatch.start = start;
  dispatch.complete = start + service;
  dispatch.wait = start - now;
  dispatch.service = service;

  // The one copy of the request: the reservation's, stamped with the
  // timestamps the retire hook will see.
  Reservation* node =
      arena_.New<Reservation>(req, service, next_seq_++, nullptr);
  node->req.issue_time = now;
  node->req.start_time = start;
  node->req.complete_time = dispatch.complete;
  node->vstart = vstart;
  node->next = prev == nullptr ? channel.head : prev->next;
  if (prev == nullptr) {
    channel.head = node;
  } else {
    prev->next = node;
  }
  if (node->next == nullptr) {
    channel.tail = node;
  }
  channel.queued += 1;
  Attribute(node->req, dispatch);
  Reflow(node);
  channel.busy_until =
      std::max(channel.busy_until, channel.tail->req.complete_time);
  return dispatch;
}

IoScheduler::Dispatch IoScheduler::Submit(int channel, const IoRequest& req,
                                          Duration service_ns) {
  return Place(channel, req, service_ns, nullptr);
}

IoScheduler::Dispatch IoScheduler::Submit(int channel, const IoRequest& req,
                                          const ServiceFn& service) {
  return Place(channel, req, 0, &service);
}

void IoScheduler::Poll() {
  for (size_t i = 0; i < channels_.size(); ++i) {
    Retire(static_cast<int>(i), channels_[i]);
  }
}

SimTime IoScheduler::ChannelBusyUntil(int channel) const {
  return channels_[static_cast<size_t>(channel)].busy_until;
}

size_t IoScheduler::PendingOn(int channel) const {
  const Channel& ch = channels_[static_cast<size_t>(channel)];
  return ch.queued + ch.light.size();
}

size_t IoScheduler::pending() const {
  size_t total = 0;
  for (const Channel& channel : channels_) {
    total += channel.queued + channel.light.size();
  }
  return total;
}

}  // namespace ssmc
