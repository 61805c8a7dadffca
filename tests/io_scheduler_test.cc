// IoScheduler unit tests, including the differential oracle the refactor's
// behavior-preservation claim rests on: under the default FIFO policy, every
// dispatch must reproduce the historical per-bank busy-until charge-latency
// model (start = max(now, busy_until)) bit-for-bit, for any interleaving of
// blocking and background requests across channels.

#include "src/sim/io_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/device/flash_device.h"
#include "src/sim/clock.h"
#include "src/support/rng.h"

namespace ssmc {
namespace {

IoRequest MakeReq(IoOp op, IoPriority priority, bool blocking) {
  IoRequest req;
  req.op = op;
  req.priority = priority;
  req.blocking = blocking;
  return req;
}

// The pre-pipeline charge-latency model, verbatim: one busy-until timestamp
// per bank, start = max(now, busy_until), blocking ops advance the clock to
// completion.
class ChargeLatencyOracle {
 public:
  explicit ChargeLatencyOracle(int channels) : busy_until_(channels, 0) {}

  struct Op {
    SimTime start;
    SimTime complete;
    Duration wait;
  };

  Op Occupy(SimTime now, int channel, Duration op_ns) {
    SimTime& busy = busy_until_[static_cast<size_t>(channel)];
    const SimTime start = std::max(now, busy);
    busy = start + op_ns;
    return Op{start, busy, start - now};
  }

  SimTime busy_until(int channel) const {
    return busy_until_[static_cast<size_t>(channel)];
  }

 private:
  std::vector<SimTime> busy_until_;
};

// --- FIFO differential oracle ---------------------------------------------

TEST(IoSchedulerOracleTest, FifoDispatchMatchesChargeLatencyModel) {
  constexpr int kChannels = 4;
  SimClock clock;
  IoScheduler sched(clock, kChannels, IoSchedPolicy::kFifo);
  ChargeLatencyOracle oracle(kChannels);
  Rng rng(12345);

  for (int i = 0; i < 20000; ++i) {
    // Random idle gaps, including none (back-to-back submissions).
    if (rng.NextBelow(3) == 0) {
      clock.Advance(static_cast<Duration>(rng.NextBelow(5000)));
    }
    const int channel = static_cast<int>(rng.NextBelow(kChannels));
    const Duration service = static_cast<Duration>(1 + rng.NextBelow(10000));
    const bool blocking = rng.NextBelow(2) == 0;
    const IoPriority priority =
        static_cast<IoPriority>(rng.NextBelow(kNumIoPriorities));

    const ChargeLatencyOracle::Op expected =
        oracle.Occupy(clock.now(), channel, service);
    const IoScheduler::Dispatch got = sched.Submit(
        channel, MakeReq(IoOp::kProgram, priority, blocking), service);

    ASSERT_EQ(got.start, expected.start) << "op " << i;
    ASSERT_EQ(got.complete, expected.complete) << "op " << i;
    ASSERT_EQ(got.wait, expected.wait) << "op " << i;
    ASSERT_EQ(got.service, service) << "op " << i;
    if (blocking) {
      clock.AdvanceTo(got.complete);
    }
    for (int c = 0; c < kChannels; ++c) {
      ASSERT_EQ(sched.ChannelBusyUntil(c), oracle.busy_until(c))
          << "op " << i << " channel " << c;
    }
  }
}

// The same differential at the device layer: a FlashDevice must charge
// exactly the latencies and clock advances of the historical model for any
// mix of reads, programs, and erases across banks and issue modes.
TEST(IoSchedulerOracleTest, FlashDeviceFifoMatchesChargeLatencyModel) {
  FlashSpec spec;
  spec.name = "oracle flash";
  spec.read = {100, 10};
  spec.program = {1000, 1000};
  spec.erase_sector_bytes = 1024;
  spec.erase_ns = 1 * kMillisecond;
  spec.endurance_cycles = 0;  // No wear-out: every op succeeds.
  constexpr int kBanks = 4;
  SimClock clock;
  FlashDevice flash(spec, 64 * 1024, kBanks, clock);
  ChargeLatencyOracle oracle(kBanks);
  SimTime oracle_now = 0;
  Rng rng(999);

  ExtentPool pool(64);
  const std::vector<uint8_t> buf(64, 0xAB);
  const PayloadRef payload = pool.AllocateCopy(buf.data());
  std::vector<uint8_t> out(64);
  for (int i = 0; i < 4000; ++i) {
    if (rng.NextBelow(4) == 0) {
      const Duration gap = static_cast<Duration>(rng.NextBelow(20000));
      clock.Advance(gap);
      oracle_now += gap;
    }
    const uint64_t sector = rng.NextBelow(flash.num_sectors());
    const int bank = flash.BankOfSector(sector);
    const bool blocking = rng.NextBelow(2) == 0;
    const IoIssue issue{blocking ? IoPriority::kForeground
                                 : IoPriority::kCleaner,
                        blocking};

    Duration got = 0;
    Duration op_ns = 0;
    switch (rng.NextBelow(3)) {
      case 0: {
        op_ns = spec.read.LatencyFor(out.size());
        got = flash.Read(sector * 1024, out, issue).value();
        break;
      }
      case 1: {
        // Erase first so the program always hits erased bytes; account the
        // erase in the oracle too.
        const ChargeLatencyOracle::Op e =
            oracle.Occupy(oracle_now, bank, spec.erase_ns);
        const Duration erased = flash.EraseSector(sector, issue).value();
        ASSERT_EQ(erased, e.wait + spec.erase_ns);
        if (blocking) {
          oracle_now = e.complete;
        }
        op_ns = spec.program.LatencyFor(buf.size());
        got = flash.ProgramExtent(sector * 1024, payload, issue).value();
        break;
      }
      default: {
        op_ns = spec.erase_ns;
        got = flash.EraseSector(sector, issue).value();
        break;
      }
    }
    const ChargeLatencyOracle::Op expected =
        oracle.Occupy(oracle_now, bank, op_ns);
    if (blocking) {
      oracle_now = expected.complete;
    }
    ASSERT_EQ(got, expected.wait + op_ns) << "op " << i;
    ASSERT_EQ(clock.now(), oracle_now) << "op " << i;
    for (int b = 0; b < kBanks; ++b) {
      ASSERT_EQ(flash.BankBusyUntil(b), oracle.busy_until(b)) << "op " << i;
    }
  }
}

// --- Basic pipeline mechanics ---------------------------------------------

TEST(IoSchedulerTest, IdleChannelServesImmediately) {
  SimClock clock;
  IoScheduler sched(clock, 1);
  clock.Advance(500);
  const auto d = sched.Submit(
      0, MakeReq(IoOp::kRead, IoPriority::kForeground, true), 100);
  EXPECT_EQ(d.start, 500);
  EXPECT_EQ(d.complete, 600);
  EXPECT_EQ(d.wait, 0);
  EXPECT_EQ(sched.ChannelBusyUntil(0), 600);
}

TEST(IoSchedulerTest, BusyUntilIsMonotoneAcrossIdlePeriods) {
  SimClock clock;
  IoScheduler sched(clock, 1);
  sched.Submit(0, MakeReq(IoOp::kErase, IoPriority::kCleaner, false), 1000);
  EXPECT_EQ(sched.ChannelBusyUntil(0), 1000);
  clock.Advance(5000);
  sched.Poll();
  // Like the busy-until timestamp it replaces, the value does not reset when
  // the channel goes idle.
  EXPECT_EQ(sched.ChannelBusyUntil(0), 1000);
}

TEST(IoSchedulerTest, RetireHookFiresWithFinalTimestamps) {
  SimClock clock;
  IoScheduler sched(clock, 1);
  std::vector<std::pair<SimTime, SimTime>> completed;
  sched.set_retire_hook([&](int, const IoRequest& r) {
    completed.emplace_back(r.start_time, r.complete_time);
  });
  sched.Submit(0, MakeReq(IoOp::kProgram, IoPriority::kFlush, false), 700);
  EXPECT_TRUE(completed.empty());
  clock.Advance(699);
  sched.Poll();
  EXPECT_TRUE(completed.empty());  // Not done yet.
  clock.Advance(1);
  sched.Poll();
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0].first, 0);
  EXPECT_EQ(completed[0].second, 700);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(IoSchedulerTest, LaterSubmitRetiresCompletedFront) {
  SimClock clock;
  IoScheduler sched(clock, 1);
  int completions = 0;
  sched.set_retire_hook([&](int, const IoRequest&) { ++completions; });
  sched.Submit(0, MakeReq(IoOp::kProgram, IoPriority::kFlush, false), 100);
  clock.Advance(100);
  // The pipeline is pumped by traffic: the next submit retires the front.
  sched.Submit(0, MakeReq(IoOp::kRead, IoPriority::kForeground, true), 10);
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(sched.PendingOn(0), 1u);
}

// --- Priority policy ------------------------------------------------------

TEST(IoSchedulerTest, PriorityReadJumpsQueuedCleanerWork) {
  SimClock clock;
  IoScheduler sched(clock, 1, IoSchedPolicy::kPriority);
  // In service now: a cleaner erase. Queued behind it: another one.
  const auto inflight = sched.Submit(
      0, MakeReq(IoOp::kErase, IoPriority::kCleaner, false), 1000000);
  const auto queued = sched.Submit(
      0, MakeReq(IoOp::kErase, IoPriority::kCleaner, false), 1000000);
  EXPECT_EQ(inflight.start, 0);
  EXPECT_EQ(queued.start, 1000000);

  clock.Advance(10);  // The first erase is now on the medium.
  const auto read = sched.Submit(
      0, MakeReq(IoOp::kRead, IoPriority::kForeground, true), 500);
  // The read waits only for the op on the medium, not the queued erase.
  EXPECT_EQ(read.start, 1000000);
  EXPECT_EQ(read.complete, 1000500);
  // And the queued erase was pushed back behind the read.
  EXPECT_EQ(sched.ChannelBusyUntil(0), 1000500 + 1000000);
}

TEST(IoSchedulerTest, PriorityInFlightOpIsNeverPreempted) {
  SimClock clock;
  IoScheduler sched(clock, 1, IoSchedPolicy::kPriority);
  sched.Submit(0, MakeReq(IoOp::kErase, IoPriority::kCleaner, false), 50000);
  clock.Advance(1);
  const auto read = sched.Submit(
      0, MakeReq(IoOp::kRead, IoPriority::kForeground, true), 100);
  EXPECT_EQ(read.start, 50000);  // Waits out the erase already in service.
  EXPECT_EQ(read.wait, 49999);
}

TEST(IoSchedulerTest, PriorityEqualClassKeepsSubmissionOrder) {
  SimClock clock;
  IoScheduler sched(clock, 1, IoSchedPolicy::kPriority);
  sched.Submit(0, MakeReq(IoOp::kProgram, IoPriority::kFlush, false), 100);
  const auto second = sched.Submit(
      0, MakeReq(IoOp::kProgram, IoPriority::kFlush, false), 100);
  const auto third = sched.Submit(
      0, MakeReq(IoOp::kProgram, IoPriority::kFlush, false), 100);
  EXPECT_EQ(second.start, 100);
  EXPECT_EQ(third.start, 200);
}

TEST(IoSchedulerTest, PriorityFlushOutranksCleanerButNotForeground) {
  SimClock clock;
  IoScheduler sched(clock, 1, IoSchedPolicy::kPriority);
  sched.Submit(0, MakeReq(IoOp::kErase, IoPriority::kCleaner, false), 1000);
  const auto cleaner2 = sched.Submit(
      0, MakeReq(IoOp::kErase, IoPriority::kCleaner, false), 1000);
  EXPECT_EQ(cleaner2.start, 1000);
  clock.Advance(1);
  const auto flush = sched.Submit(
      0, MakeReq(IoOp::kProgram, IoPriority::kFlush, false), 200);
  EXPECT_EQ(flush.start, 1000);  // Ahead of the queued cleaner erase.
  clock.Advance(1);
  const auto fg = sched.Submit(
      0, MakeReq(IoOp::kRead, IoPriority::kForeground, true), 10);
  EXPECT_EQ(fg.start, 1000);  // Ahead of the queued flush, too.
}

TEST(IoSchedulerTest, ShiftPushbackLandsInLanes) {
  SimClock clock;
  IoLanes lanes;
  IoScheduler sched(clock, 1, IoSchedPolicy::kPriority, &lanes);
  const IoLaneStats& cleaner =
      lanes.by_class[static_cast<int>(IoPriority::kCleaner)];
  sched.Submit(0, MakeReq(IoOp::kErase, IoPriority::kCleaner, false), 1000);
  sched.Submit(0, MakeReq(IoOp::kErase, IoPriority::kCleaner, false), 1000);
  // At dispatch the second erase queues behind the first.
  EXPECT_EQ(cleaner.queue_wait_ns.value(), 1000u);
  clock.Advance(1);
  sched.Submit(0, MakeReq(IoOp::kRead, IoPriority::kForeground, true), 300);
  // The read pushed the queued erase 300 ns later: the cleaner lane, and no
  // other class, owes it the extra wait.
  EXPECT_EQ(cleaner.queue_wait_ns.value(), 1000u + 300u);
  EXPECT_EQ(lanes.by_class[static_cast<int>(IoPriority::kForeground)]
                .queue_wait_ns.value(),
            999u);  // Waits out the in-flight erase only.
  EXPECT_EQ(lanes.by_class[static_cast<int>(IoPriority::kFlush)]
                .queue_wait_ns.value(),
            0u);
  EXPECT_EQ(lanes.by_tenant.Find(kDefaultTenant)->queue_wait_ns.value(),
            1000u + 300u + 999u);
}

// Final queue waits reported via the retire hook must equal the lanes'
// queue wait: the dispatch-time waits plus every shift the scheduler added
// as it happened.
TEST(IoSchedulerTest, ShiftsReconcileWithFinalTimestamps) {
  SimClock clock;
  IoLanes lanes;
  IoScheduler sched(clock, 2, IoSchedPolicy::kPriority, &lanes);
  Rng rng(777);
  Duration dispatch_waits = 0;
  Duration final_waits = 0;
  sched.set_retire_hook(
      [&](int, const IoRequest& r) { final_waits += r.queue_wait(); });

  for (int i = 0; i < 5000; ++i) {
    if (rng.NextBelow(3) == 0) {
      clock.Advance(static_cast<Duration>(rng.NextBelow(2000)));
    }
    const int channel = static_cast<int>(rng.NextBelow(2));
    const IoPriority priority =
        static_cast<IoPriority>(rng.NextBelow(kNumIoPriorities));
    const bool blocking = priority == IoPriority::kForeground;
    const auto d = sched.Submit(channel,
                                MakeReq(IoOp::kProgram, priority, blocking),
                                static_cast<Duration>(1 + rng.NextBelow(500)));
    dispatch_waits += d.wait;
    if (blocking) {
      clock.AdvanceTo(d.complete);
    }
  }
  clock.Advance(1000000);
  sched.Poll();  // Drain everything.
  EXPECT_EQ(sched.pending(), 0u);
  uint64_t lane_waits = 0;
  for (const IoLaneStats& lane : lanes.by_class) {
    lane_waits += lane.queue_wait_ns.value();
  }
  EXPECT_EQ(static_cast<uint64_t>(final_waits), lane_waits);
  EXPECT_GT(final_waits, dispatch_waits);  // Some reservations were pushed.
}

// Lane conservation: under every policy, after the pipeline drains, each
// class lane and each tenant lane holds exactly the requests, final queue
// waits (start - issue) and services (complete - start) of the requests it
// retired, and the class and tenant views sum to the same totals.
TEST(IoSchedulerLaneTest, LanesConserveRetiredWaitAndService) {
  constexpr int kChannels = 3;
  constexpr int kTenants = 4;
  for (IoSchedPolicy policy :
       {IoSchedPolicy::kFifo, IoSchedPolicy::kPriority,
        IoSchedPolicy::kWeightedFair, IoSchedPolicy::kTokenBucket}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(IoSchedPolicyName(policy)) + " seed " +
                   std::to_string(seed));
      SimClock clock;
      IoLanes lanes;
      IoScheduler sched(clock, kChannels, policy, &lanes);
      for (TenantId t = 1; t < kTenants; ++t) {
        sched.set_tenant_weight(t, t * 2);
        sched.set_tenant_rate(t, 4000000 * t, 8192);
      }
      // Expected lanes, built from the retired requests' final timestamps.
      IoLanes retired;
      sched.set_retire_hook([&](int, const IoRequest& r) {
        for (IoLaneStats* lane :
             {&retired.by_class[static_cast<int>(r.priority)],
              &retired.by_tenant.For(r.tenant)}) {
          lane->requests.Add();
          lane->queue_wait_ns.Add(static_cast<uint64_t>(r.queue_wait()));
          lane->service_ns.Add(
              static_cast<uint64_t>(r.complete_time - r.start_time));
        }
      });
      Rng rng(seed);
      for (int i = 0; i < 4000; ++i) {
        if (rng.NextBelow(3) == 0) {
          clock.Advance(static_cast<Duration>(rng.NextBelow(3000)));
        }
        const IoPriority priority =
            static_cast<IoPriority>(rng.NextBelow(kNumIoPriorities));
        const bool blocking = rng.NextBelow(3) == 0;
        IoRequest req = MakeReq(IoOp::kProgram, priority, blocking);
        req.tenant = static_cast<TenantId>(rng.NextBelow(kTenants));
        req.bytes = 1 + rng.NextBelow(4096);
        const auto d = sched.Submit(
            static_cast<int>(rng.NextBelow(kChannels)), req,
            static_cast<Duration>(1 + rng.NextBelow(2000)));
        if (blocking) {
          clock.AdvanceTo(d.complete);
        }
      }
      clock.Advance(100 * kSecond);
      sched.Poll();
      ASSERT_EQ(sched.pending(), 0u);

      IoLaneStats class_total;
      for (int c = 0; c < kNumIoPriorities; ++c) {
        const IoLaneStats& got = lanes.by_class[c];
        const IoLaneStats& want = retired.by_class[c];
        EXPECT_EQ(got.requests.value(), want.requests.value()) << "class " << c;
        EXPECT_EQ(got.queue_wait_ns.value(), want.queue_wait_ns.value())
            << "class " << c;
        EXPECT_EQ(got.service_ns.value(), want.service_ns.value())
            << "class " << c;
        EXPECT_GT(got.requests.value(), 0u) << "class " << c;
        class_total.Merge(got);
      }
      IoLaneStats tenant_total;
      ASSERT_EQ(lanes.by_tenant.entries().size(),
                static_cast<size_t>(kTenants));
      for (const TenantLaneTable::Entry& e : lanes.by_tenant.entries()) {
        const IoLaneStats* want = retired.by_tenant.Find(e.tenant);
        ASSERT_NE(want, nullptr) << "tenant " << e.tenant;
        EXPECT_EQ(e.value.requests.value(), want->requests.value())
            << "tenant " << e.tenant;
        EXPECT_EQ(e.value.queue_wait_ns.value(), want->queue_wait_ns.value())
            << "tenant " << e.tenant;
        EXPECT_EQ(e.value.service_ns.value(), want->service_ns.value())
            << "tenant " << e.tenant;
        tenant_total.Merge(e.value);
      }
      EXPECT_EQ(class_total.requests.value(), 4000u);
      EXPECT_EQ(tenant_total.requests.value(), class_total.requests.value());
      EXPECT_EQ(tenant_total.queue_wait_ns.value(),
                class_total.queue_wait_ns.value());
      EXPECT_EQ(tenant_total.service_ns.value(),
                class_total.service_ns.value());
      EXPECT_GT(class_total.queue_wait_ns.value(), 0u);
    }
  }
}

// Without a retire hook, FIFO requests take the light path (never
// materialized); their dispatch is final, so the lanes must equal the sum of
// the returned dispatches.
TEST(IoSchedulerLaneTest, FifoLightPathFillsLanes) {
  SimClock clock;
  IoLanes lanes;
  IoScheduler sched(clock, 2, IoSchedPolicy::kFifo, &lanes);
  Rng rng(5);
  uint64_t waits = 0;
  uint64_t services = 0;
  for (int i = 0; i < 2000; ++i) {
    if (rng.NextBelow(3) == 0) {
      clock.Advance(static_cast<Duration>(rng.NextBelow(1000)));
    }
    const bool blocking = rng.NextBelow(2) == 0;
    IoRequest req = MakeReq(
        IoOp::kRead, static_cast<IoPriority>(rng.NextBelow(kNumIoPriorities)),
        blocking);
    req.tenant = static_cast<TenantId>(rng.NextBelow(3));
    const auto d = sched.Submit(static_cast<int>(rng.NextBelow(2)), req,
                                static_cast<Duration>(1 + rng.NextBelow(800)));
    waits += static_cast<uint64_t>(d.wait);
    services += static_cast<uint64_t>(d.service);
    if (blocking) {
      clock.AdvanceTo(d.complete);
    }
  }
  EXPECT_EQ(sched.arena().live(), 0u);  // Nothing was materialized.
  IoLaneStats class_total;
  for (const IoLaneStats& lane : lanes.by_class) {
    class_total.Merge(lane);
  }
  IoLaneStats tenant_total;
  for (const TenantLaneTable::Entry& e : lanes.by_tenant.entries()) {
    tenant_total.Merge(e.value);
  }
  for (const IoLaneStats* total : {&class_total, &tenant_total}) {
    EXPECT_EQ(total->requests.value(), 2000u);
    EXPECT_EQ(total->queue_wait_ns.value(), waits);
    EXPECT_EQ(total->service_ns.value(), services);
  }
  EXPECT_GT(waits, 0u);
}

// The scheduler reads the caller's request and never writes it. Whatever
// timestamps the caller left in it, a materialized reservation is stamped
// with the clock at Submit and its returned dispatch, which is what the
// retire hook sees (no later submission outranks these, so none shifts).
TEST(IoSchedulerTest, ReservationsStampSubmitTimeAndDispatch) {
  for (const IoSchedPolicy policy :
       {IoSchedPolicy::kFifo, IoSchedPolicy::kPriority}) {
    SCOPED_TRACE(IoSchedPolicyName(policy));
    SimClock clock;
    IoScheduler sched(clock, 1, policy);
    struct Submitted {
      SimTime at;
      IoScheduler::Dispatch dispatch;
    };
    std::vector<Submitted> submitted;
    std::vector<IoRequest> retired;
    sched.set_retire_hook(
        [&](int, const IoRequest& r) { retired.push_back(r); });
    // Queued behind each other, then an idle gap: waits both zero and not.
    const SimTime gaps[] = {0, 100, 0, 5000};
    for (uint64_t i = 0; i < 4; ++i) {
      clock.Advance(gaps[i]);
      IoRequest req = MakeReq(IoOp::kProgram, IoPriority::kFlush, false);
      req.addr = i;
      req.issue_time = req.start_time = req.complete_time = 777;
      const IoRequest before = req;
      submitted.push_back({clock.now(), sched.Submit(0, req, 300)});
      EXPECT_EQ(req.issue_time, before.issue_time);
      EXPECT_EQ(req.start_time, before.start_time);
      EXPECT_EQ(req.complete_time, before.complete_time);
    }
    clock.Advance(10 * kMillisecond);
    sched.Poll();
    ASSERT_EQ(retired.size(), submitted.size());
    for (const IoRequest& r : retired) {
      const Submitted& s = submitted[r.addr];
      EXPECT_EQ(r.issue_time, s.at) << "request " << r.addr;
      EXPECT_EQ(r.start_time, s.dispatch.start) << "request " << r.addr;
      EXPECT_EQ(r.complete_time, s.dispatch.complete) << "request " << r.addr;
      EXPECT_EQ(r.queue_wait(), s.dispatch.wait) << "request " << r.addr;
    }
    EXPECT_GT(submitted[1].dispatch.wait, 0);
    EXPECT_EQ(submitted[3].dispatch.wait, 0);
  }
}

// On the light path (FIFO, no retire hook) nothing is materialized: the
// lanes are attributed straight from the caller's request, which stays as
// the caller built it.
TEST(IoSchedulerLaneTest, LightPathLeavesRequestAsBuilt) {
  SimClock clock;
  IoLanes lanes;
  IoScheduler sched(clock, 1, IoSchedPolicy::kFifo, &lanes);
  sched.Submit(0, MakeReq(IoOp::kErase, IoPriority::kCleaner, false), 900);
  clock.Advance(100);
  IoRequest req = MakeReq(IoOp::kRead, IoPriority::kForeground, true);
  req.addr = 42;
  req.bytes = 512;
  req.tenant = 3;
  const IoScheduler::Dispatch d = sched.Submit(0, req, 50);
  EXPECT_EQ(sched.arena().live(), 0u);
  EXPECT_EQ(d.wait, 800);
  EXPECT_EQ(d.service, 50);
  EXPECT_EQ(req.op, IoOp::kRead);
  EXPECT_EQ(req.addr, 42u);
  EXPECT_EQ(req.bytes, 512u);
  EXPECT_EQ(req.tenant, 3);
  EXPECT_EQ(req.issue_time, 0);
  EXPECT_EQ(req.start_time, 0);
  EXPECT_EQ(req.complete_time, 0);
  for (const IoLaneStats* lane :
       {&lanes.by_class[static_cast<int>(IoPriority::kForeground)],
        &lanes.by_tenant.For(3)}) {
    EXPECT_EQ(lane->requests.value(), 1u);
    EXPECT_EQ(lane->queue_wait_ns.value(), 800u);
    EXPECT_EQ(lane->service_ns.value(), 50u);
  }
}

// --- Device-level priority behavior ---------------------------------------

TEST(IoSchedulerTest, FlashDevicePriorityModeCutsReadTailBehindCleaning) {
  FlashSpec spec;
  spec.name = "tail flash";
  spec.read = {100, 10};
  spec.program = {1000, 1000};
  spec.erase_sector_bytes = 1024;
  spec.erase_ns = 10 * kMillisecond;
  spec.endurance_cycles = 0;

  auto read_latency_with = [&](IoSchedPolicy policy) {
    SimClock clock;
    FlashDevice flash(spec, 16 * 1024, 1, clock);
    flash.scheduler().set_policy(policy);
    // A burst of background cleaner erases piles up on the bank.
    for (uint64_t s = 0; s < 4; ++s) {
      EXPECT_TRUE(flash.EraseSector(s, kCleanerIo).ok());
    }
    clock.Advance(1);  // First erase is on the medium.
    std::vector<uint8_t> out(64);
    return flash.Read(8 * 1024, out).value();
  };

  const Duration fifo = read_latency_with(IoSchedPolicy::kFifo);
  const Duration prio = read_latency_with(IoSchedPolicy::kPriority);
  // FIFO waits out all four erases; priority waits only for the in-flight
  // one.
  EXPECT_GE(fifo, 4 * spec.erase_ns - 1);
  EXPECT_LT(prio, 2 * spec.erase_ns);
}

TEST(IoSchedulerTest, FlashDeviceAttributesWaitAndServiceByClass) {
  FlashSpec spec;
  spec.name = "attr flash";
  spec.read = {100, 10};
  spec.program = {1000, 1000};
  spec.erase_sector_bytes = 1024;
  spec.erase_ns = 1 * kMillisecond;
  spec.endurance_cycles = 0;
  SimClock clock;
  FlashDevice flash(spec, 16 * 1024, 1, clock);

  ASSERT_TRUE(flash.EraseSector(0, kCleanerIo).ok());
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(flash.Read(1024, out).ok());  // Foreground, stalls on erase.

  const auto& fg = flash.stats().by_class[static_cast<int>(
      IoPriority::kForeground)];
  const auto& cleaner =
      flash.stats().by_class[static_cast<int>(IoPriority::kCleaner)];
  EXPECT_EQ(fg.requests.value(), 1u);
  EXPECT_EQ(fg.queue_wait_ns.value(),
            static_cast<uint64_t>(spec.erase_ns));
  EXPECT_EQ(fg.service_ns.value(),
            static_cast<uint64_t>(spec.read.LatencyFor(out.size())));
  EXPECT_EQ(cleaner.requests.value(), 1u);
  EXPECT_EQ(cleaner.queue_wait_ns.value(), 0u);
  EXPECT_EQ(cleaner.service_ns.value(),
            static_cast<uint64_t>(spec.erase_ns));
  // read_stall_ns remains the blocking-read slice, matching the historical
  // counter.
  EXPECT_EQ(flash.stats().read_stall_ns.value(),
            static_cast<uint64_t>(spec.erase_ns));
}

// --- Weighted-fair policy -------------------------------------------------

IoRequest MakeTenantReq(TenantId tenant, IoPriority priority, bool blocking,
                        uint64_t bytes = 0) {
  IoRequest req = MakeReq(IoOp::kRead, priority, blocking);
  req.tenant = tenant;
  req.bytes = bytes;
  return req;
}

// A lone tenant's virtual tags are monotone, so kWeightedFair placement must
// reproduce the FIFO charge-latency model bit-for-bit for any single-tenant
// interleaving — the degenerate case the default-tenant bit-identity claim
// rests on.
TEST(IoSchedulerWfqTest, SingleTenantMatchesFifoOracle) {
  constexpr int kChannels = 4;
  SimClock clock;
  IoScheduler sched(clock, kChannels, IoSchedPolicy::kWeightedFair);
  ChargeLatencyOracle oracle(kChannels);
  Rng rng(20240);

  for (int i = 0; i < 20000; ++i) {
    if (rng.NextBelow(3) == 0) {
      clock.Advance(static_cast<Duration>(rng.NextBelow(5000)));
    }
    const int channel = static_cast<int>(rng.NextBelow(kChannels));
    const Duration service = static_cast<Duration>(1 + rng.NextBelow(10000));
    const bool blocking = rng.NextBelow(2) == 0;

    const ChargeLatencyOracle::Op expected =
        oracle.Occupy(clock.now(), channel, service);
    const IoScheduler::Dispatch got = sched.Submit(
        channel, MakeTenantReq(kDefaultTenant, IoPriority::kForeground,
                               blocking),
        service);
    ASSERT_EQ(got.start, expected.start) << "op " << i;
    ASSERT_EQ(got.complete, expected.complete) << "op " << i;
    if (blocking) {
      clock.AdvanceTo(got.complete);
    }
    for (int c = 0; c < kChannels; ++c) {
      ASSERT_EQ(sched.ChannelBusyUntil(c), oracle.busy_until(c))
          << "op " << i << " channel " << c;
    }
  }
}

// The multi-tenant degenerate case: equal weights, per-channel round-robin
// submission, equal service per channel. Tag order then equals arrival
// order (each round visits tenants whose finish tags were assigned in the
// same order last round), so placement must again match FIFO exactly.
TEST(IoSchedulerWfqTest, EqualWeightRoundRobinMatchesFifoOracle) {
  constexpr int kChannels = 3;
  constexpr int kTenants = 3;
  SimClock clock;
  IoScheduler sched(clock, kChannels, IoSchedPolicy::kWeightedFair);
  for (TenantId t = 0; t < kTenants; ++t) {
    sched.set_tenant_weight(t, 1);
  }
  ChargeLatencyOracle oracle(kChannels);
  Rng rng(4242);
  int next_tenant[kChannels] = {};

  for (int i = 0; i < 20000; ++i) {
    if (rng.NextBelow(3) == 0) {
      clock.Advance(static_cast<Duration>(rng.NextBelow(8000)));
    }
    const int channel = static_cast<int>(rng.NextBelow(kChannels));
    const TenantId tenant =
        static_cast<TenantId>(next_tenant[channel]++ % kTenants);
    const Duration service = 500 + 100 * channel;  // Constant per channel.
    const bool blocking = rng.NextBelow(2) == 0;

    const ChargeLatencyOracle::Op expected =
        oracle.Occupy(clock.now(), channel, service);
    const IoScheduler::Dispatch got = sched.Submit(
        channel, MakeTenantReq(tenant, IoPriority::kForeground, blocking),
        service);
    ASSERT_EQ(got.start, expected.start) << "op " << i;
    ASSERT_EQ(got.complete, expected.complete) << "op " << i;
    if (blocking) {
      clock.AdvanceTo(got.complete);
    }
  }
}

// Two backlogged tenants with a 9:1 weight split must share channel time
// 9:1: among the first 100 service slots, the heavy tenant gets ~90.
TEST(IoSchedulerWfqTest, WeightedShareTracksWeights) {
  SimClock clock;
  IoScheduler sched(clock, 1, IoSchedPolicy::kWeightedFair);
  sched.set_tenant_weight(1, 9);
  sched.set_tenant_weight(2, 1);
  constexpr Duration kService = 1000;
  constexpr int kPerTenant = 200;

  std::vector<std::pair<SimTime, TenantId>> starts;
  sched.set_retire_hook([&starts](int, const IoRequest& r) {
    starts.emplace_back(r.start_time, r.tenant);
  });
  for (int i = 0; i < kPerTenant; ++i) {
    for (TenantId t : {TenantId{1}, TenantId{2}}) {
      sched.Submit(0, MakeTenantReq(t, IoPriority::kForeground, false),
                   kService);
    }
  }
  // Work conservation: the channel never idles while backlogged, whatever
  // the interleaving, so total busy time is unchanged by the weights.
  ASSERT_EQ(sched.ChannelBusyUntil(0), 2 * kPerTenant * kService);
  clock.AdvanceTo(sched.ChannelBusyUntil(0));
  sched.Poll();
  ASSERT_EQ(starts.size(), 2u * kPerTenant);

  std::sort(starts.begin(), starts.end());
  int heavy_in_first_100 = 0;
  for (int i = 0; i < 100; ++i) {
    heavy_in_first_100 += starts[static_cast<size_t>(i)].second == 1 ? 1 : 0;
  }
  EXPECT_GE(heavy_in_first_100, 88);
  EXPECT_LE(heavy_in_first_100, 92);
}

// The op on the medium is never preempted, even by a tenant whose virtual
// tag sorts ahead of everything queued.
TEST(IoSchedulerWfqTest, InFlightOpIsNeverPreempted) {
  SimClock clock;
  IoScheduler sched(clock, 1, IoSchedPolicy::kWeightedFair);
  sched.set_tenant_weight(1, 100);
  sched.Submit(0, MakeTenantReq(2, IoPriority::kCleaner, false), 50000);
  clock.Advance(1);  // The cleaner op is on the medium.
  const auto read =
      sched.Submit(0, MakeTenantReq(1, IoPriority::kForeground, true), 100);
  EXPECT_EQ(read.start, 50000);
  EXPECT_EQ(read.wait, 49999);
}

// A backlogged aggressor must not starve a light tenant: the victim's
// queued read overtakes the aggressor's queued backlog (but not the op in
// service) under equal weights.
TEST(IoSchedulerWfqTest, LightTenantOvertakesBackloggedAggressor) {
  SimClock clock;
  IoScheduler sched(clock, 1, IoSchedPolicy::kWeightedFair);
  for (int i = 0; i < 8; ++i) {
    sched.Submit(0, MakeTenantReq(1, IoPriority::kFlush, false), 10000);
  }
  clock.Advance(1);  // First aggressor op is on the medium.
  const auto victim =
      sched.Submit(0, MakeTenantReq(2, IoPriority::kForeground, true), 100);
  // Waits out the in-service op only, not the 7 queued ones.
  EXPECT_EQ(victim.start, 10000);
  EXPECT_EQ(victim.complete, 10100);
}

// --- Token-bucket policy --------------------------------------------------

// With no rate configured, kTokenBucket placement is plain FIFO: the
// default-config bit-identity claim for this policy.
TEST(IoSchedulerTokenTest, UnlimitedTenantsMatchFifoOracle) {
  constexpr int kChannels = 2;
  SimClock clock;
  IoScheduler sched(clock, kChannels, IoSchedPolicy::kTokenBucket);
  ChargeLatencyOracle oracle(kChannels);
  Rng rng(555);
  for (int i = 0; i < 5000; ++i) {
    if (rng.NextBelow(3) == 0) {
      clock.Advance(static_cast<Duration>(rng.NextBelow(5000)));
    }
    const int channel = static_cast<int>(rng.NextBelow(kChannels));
    const Duration service = static_cast<Duration>(1 + rng.NextBelow(4000));
    const bool blocking = rng.NextBelow(2) == 0;
    const ChargeLatencyOracle::Op expected =
        oracle.Occupy(clock.now(), channel, service);
    const auto got = sched.Submit(
        channel,
        MakeTenantReq(static_cast<TenantId>(rng.NextBelow(3)),
                      IoPriority::kForeground, blocking,
                      1 + rng.NextBelow(4096)),
        service);
    ASSERT_EQ(got.start, expected.start) << "op " << i;
    ASSERT_EQ(got.complete, expected.complete) << "op " << i;
    if (blocking) {
      clock.AdvanceTo(got.complete);
    }
  }
}

// The admission invariant: however requests arrive, a rate-limited tenant's
// cumulative admitted bytes by any start time t never exceed
// burst + rate * t. Randomized over sizes, gaps, and competing traffic.
TEST(IoSchedulerTokenTest, NeverAdmitsAboveConfiguredRate) {
  constexpr uint64_t kRate = 1000000;   // 1 MB/s.
  constexpr uint64_t kBurst = 16384;
  SimClock clock;
  IoScheduler sched(clock, 1, IoSchedPolicy::kTokenBucket);
  sched.set_tenant_rate(1, kRate, kBurst);
  Rng rng(31337);

  std::vector<std::pair<SimTime, uint64_t>> admissions;  // (start, bytes).
  for (int i = 0; i < 4000; ++i) {
    if (rng.NextBelow(2) == 0) {
      clock.Advance(static_cast<Duration>(rng.NextBelow(2 * kMillisecond)));
    }
    const bool limited = rng.NextBelow(3) != 0;
    const TenantId tenant = limited ? 1 : 0;
    const uint64_t bytes = 1 + rng.NextBelow(8192);
    const auto d = sched.Submit(
        0, MakeTenantReq(tenant, IoPriority::kForeground, false, bytes),
        static_cast<Duration>(1 + rng.NextBelow(2000)));
    if (limited) {
      ASSERT_GE(d.start, clock.now());
      admissions.emplace_back(d.start, bytes);
    }
  }
  std::sort(admissions.begin(), admissions.end());
  // Token accounting is exact integer arithmetic in byte-nanoseconds:
  // consumed <= initial burst + rate * elapsed, always.
  unsigned __int128 consumed = 0;
  for (const auto& [start, bytes] : admissions) {
    consumed += static_cast<unsigned __int128>(bytes) * kSecond;
    const unsigned __int128 budget =
        static_cast<unsigned __int128>(kBurst) * kSecond +
        static_cast<unsigned __int128>(kRate) * static_cast<uint64_t>(start);
    ASSERT_TRUE(consumed <= budget) << "admission at t=" << start;
  }
  // And the bucket actually throttled: the workload offered far more than
  // the rate allows, so some request must have been delayed.
  bool any_delayed = false;
  for (size_t i = 1; i < admissions.size(); ++i) {
    any_delayed |= admissions[i].first > admissions[i - 1].first;
  }
  EXPECT_TRUE(any_delayed);
}

// --- Device-level tenant behavior -----------------------------------------

// Equal-weight WFQ must be indistinguishable from FIFO at the device layer
// for a single tenant — including when reads fault: the injected-fault path
// returns INTERNAL before any bank time is reserved, identically under both
// policies.
TEST(IoSchedulerWfqTest, FlashDeviceSingleTenantMatchesFifoUnderReadFaults) {
  FlashSpec spec;
  spec.name = "wfq-oracle flash";
  spec.read = {100, 10};
  spec.program = {1000, 1000};
  spec.erase_sector_bytes = 1024;
  spec.erase_ns = 1 * kMillisecond;
  spec.endurance_cycles = 0;
  constexpr int kBanks = 2;

  SimClock fifo_clock;
  SimClock wfq_clock;
  FlashDevice fifo(spec, 16 * 1024, kBanks, fifo_clock);
  FlashDevice wfq(spec, 16 * 1024, kBanks, wfq_clock);
  wfq.scheduler().set_policy(IoSchedPolicy::kWeightedFair);

  Rng rng(90210);
  ExtentPool pool(64);
  std::vector<uint8_t> out_a(64);
  std::vector<uint8_t> out_b(64);
  for (int i = 0; i < 2000; ++i) {
    if (rng.NextBelow(4) == 0) {
      const Duration gap = static_cast<Duration>(rng.NextBelow(20000));
      fifo_clock.Advance(gap);
      wfq_clock.Advance(gap);
    }
    const uint64_t sector = rng.NextBelow(fifo.num_sectors());
    const bool blocking = rng.NextBelow(2) == 0;
    const IoIssue issue{
        blocking ? IoPriority::kForeground : IoPriority::kCleaner, blocking};
    switch (rng.NextBelow(3)) {
      case 0: {
        if (rng.NextBelow(4) == 0) {
          // Transient fault: both devices must fail identically, with no
          // timing side effects.
          fifo.InjectReadFaults(sector, 1);
          wfq.InjectReadFaults(sector, 1);
          const auto rf = fifo.Read(sector * 1024, out_a, issue);
          const auto rw = wfq.Read(sector * 1024, out_b, issue);
          ASSERT_FALSE(rf.ok());
          ASSERT_FALSE(rw.ok());
          ASSERT_EQ(rf.status().code(), rw.status().code()) << "op " << i;
          break;
        }
        const auto rf = fifo.Read(sector * 1024, out_a, issue);
        const auto rw = wfq.Read(sector * 1024, out_b, issue);
        ASSERT_EQ(rf.value(), rw.value()) << "op " << i;
        break;
      }
      case 1: {
        const auto ef = fifo.EraseSector(sector, issue);
        const auto ew = wfq.EraseSector(sector, issue);
        ASSERT_EQ(ef.value(), ew.value()) << "op " << i;
        break;
      }
      default: {
        // Program a fresh slice of an erased sector on both devices.
        const auto ef = fifo.EraseSector(sector, issue);
        const auto ew = wfq.EraseSector(sector, issue);
        ASSERT_EQ(ef.value(), ew.value()) << "op " << i;
        const std::vector<uint8_t> buf(64, static_cast<uint8_t>(i));
        const PayloadRef payload = pool.AllocateCopy(buf.data());
        const auto pf = fifo.ProgramExtent(sector * 1024, payload, issue);
        const auto pw = wfq.ProgramExtent(sector * 1024, payload, issue);
        ASSERT_EQ(pf.value(), pw.value()) << "op " << i;
        break;
      }
    }
    ASSERT_EQ(fifo_clock.now(), wfq_clock.now()) << "op " << i;
    for (int b = 0; b < kBanks; ++b) {
      ASSERT_EQ(fifo.BankBusyUntil(b), wfq.BankBusyUntil(b)) << "op " << i;
    }
  }
  // Identical attribution, too.
  for (int c = 0; c < kNumIoPriorities; ++c) {
    EXPECT_EQ(fifo.stats().by_class[c].requests.value(),
              wfq.stats().by_class[c].requests.value());
    EXPECT_EQ(fifo.stats().by_class[c].queue_wait_ns.value(),
              wfq.stats().by_class[c].queue_wait_ns.value());
    EXPECT_EQ(fifo.stats().by_class[c].service_ns.value(),
              wfq.stats().by_class[c].service_ns.value());
  }
}

// Per-tenant wait/service attribution at the device layer, mirroring the
// by-class test: a foreground read stalled behind another tenant's erase
// bills the wait to the reader and the erase service to the eraser.
TEST(IoSchedulerWfqTest, FlashDeviceAttributesWaitAndServiceByTenant) {
  FlashSpec spec;
  spec.name = "tenant-attr flash";
  spec.read = {100, 10};
  spec.program = {1000, 1000};
  spec.erase_sector_bytes = 1024;
  spec.erase_ns = 1 * kMillisecond;
  spec.endurance_cycles = 0;
  SimClock clock;
  FlashDevice flash(spec, 16 * 1024, 1, clock);

  ASSERT_TRUE(flash.EraseSector(0, ForTenant(kCleanerIo, 7)).ok());
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(flash.Read(1024, out, ForTenant(kForegroundIo, 3)).ok());

  const IoLaneStats* reader = flash.stats().by_tenant.Find(3);
  const IoLaneStats* eraser = flash.stats().by_tenant.Find(7);
  ASSERT_NE(reader, nullptr);
  ASSERT_NE(eraser, nullptr);
  EXPECT_EQ(reader->requests.value(), 1u);
  EXPECT_EQ(reader->queue_wait_ns.value(),
            static_cast<uint64_t>(spec.erase_ns));
  EXPECT_EQ(reader->service_ns.value(),
            static_cast<uint64_t>(spec.read.LatencyFor(out.size())));
  EXPECT_EQ(eraser->requests.value(), 1u);
  EXPECT_EQ(eraser->queue_wait_ns.value(), 0u);
  EXPECT_EQ(eraser->service_ns.value(), static_cast<uint64_t>(spec.erase_ns));
  EXPECT_EQ(flash.stats().by_tenant.Find(kDefaultTenant), nullptr);
}

}  // namespace
}  // namespace ssmc
