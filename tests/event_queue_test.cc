#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/support/rng.h"
#include "tests/reference/legacy_event_queue.h"

namespace ssmc {
namespace {

TEST(EventQueueTest, RunsEventsInTimeOrder) {
  SimClock clock;
  EventQueue q(clock);
  std::vector<int> order;
  q.ScheduleAt(300, [&] { order.push_back(3); });
  q.ScheduleAt(100, [&] { order.push_back(1); });
  q.ScheduleAt(200, [&] { order.push_back(2); });
  q.RunUntil(1000);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock.now(), 1000);
}

TEST(EventQueueTest, SameTimeEventsRunInScheduleOrder) {
  SimClock clock;
  EventQueue q(clock);
  std::vector<int> order;
  q.ScheduleAt(100, [&] { order.push_back(1); });
  q.ScheduleAt(100, [&] { order.push_back(2); });
  q.ScheduleAt(100, [&] { order.push_back(3); });
  q.RunUntil(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// Regression guard for the determinism guarantee documented in
// event_queue.h: insertion order must survive heap rebalancing at scale.
// The I/O scheduler breaks dispatch ties the same way, so a violation here
// would silently reorder same-time I/O completions.
TEST(EventQueueTest, ManySameTimeEventsPopInInsertionOrder) {
  SimClock clock;
  EventQueue q(clock);
  std::vector<int> order;
  // Enough events, at interleaved timestamps, that the heap reshuffles
  // repeatedly; insertion order within each timestamp must still hold.
  constexpr int kPerTime = 257;
  for (int i = 0; i < kPerTime; ++i) {
    for (SimTime t : {300, 100, 200}) {
      q.ScheduleAt(t, [&order, t, i] {
        order.push_back(static_cast<int>(t) * 1000 + i);
      });
    }
  }
  q.RunUntil(300);
  ASSERT_EQ(order.size(), 3u * kPerTime);
  std::vector<int> expected;
  for (int t : {100, 200, 300}) {
    for (int i = 0; i < kPerTime; ++i) {
      expected.push_back(t * 1000 + i);
    }
  }
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, SameTimeOrderSurvivesCancellations) {
  SimClock clock;
  EventQueue q(clock);
  std::vector<int> order;
  std::vector<EventQueue::EventId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(q.ScheduleAt(100, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 64; i += 2) {
    EXPECT_TRUE(q.Cancel(ids[static_cast<size_t>(i)]));
  }
  q.RunUntil(100);
  std::vector<int> expected;
  for (int i = 1; i < 64; i += 2) {
    expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

// Events scheduled *during* a same-time cascade at the current time run
// after the already-queued same-time events, still in scheduling order.
TEST(EventQueueTest, SameTimeCascadeAppendsInOrder) {
  SimClock clock;
  EventQueue q(clock);
  std::vector<int> order;
  q.ScheduleAt(100, [&] {
    order.push_back(1);
    q.ScheduleAt(100, [&] { order.push_back(3); });
    q.ScheduleAt(100, [&] { order.push_back(4); });
  });
  q.ScheduleAt(100, [&] { order.push_back(2); });
  q.RunUntil(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueTest, ClockAdvancesToEventTime) {
  SimClock clock;
  EventQueue q(clock);
  SimTime seen = -1;
  q.ScheduleAt(500, [&] { seen = clock.now(); });
  q.RunUntil(600);
  EXPECT_EQ(seen, 500);
}

TEST(EventQueueTest, FutureEventsStayPending) {
  SimClock clock;
  EventQueue q(clock);
  bool ran = false;
  q.ScheduleAt(1000, [&] { ran = true; });
  q.RunUntil(999);
  EXPECT_FALSE(ran);
  EXPECT_EQ(q.pending(), 1u);
  q.RunUntil(1000);
  EXPECT_TRUE(ran);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  SimClock clock;
  EventQueue q(clock);
  clock.Advance(100);
  SimTime seen = -1;
  q.ScheduleAfter(50, [&] { seen = clock.now(); });
  q.RunUntil(200);
  EXPECT_EQ(seen, 150);
}

TEST(EventQueueTest, CancelPreventsRun) {
  SimClock clock;
  EventQueue q(clock);
  bool ran = false;
  const EventQueue::EventId id = q.ScheduleAt(100, [&] { ran = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // Second cancel fails.
  q.RunUntil(1000);
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, EventsMayScheduleMoreEvents) {
  SimClock clock;
  EventQueue q(clock);
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    if (count < 5) {
      q.ScheduleAfter(10, tick);
    }
  };
  q.ScheduleAt(10, tick);
  q.RunUntil(100);
  EXPECT_EQ(count, 5);
}

TEST(EventQueueTest, RunAllDrainsEverything) {
  SimClock clock;
  EventQueue q(clock);
  int count = 0;
  q.ScheduleAt(10, [&] { ++count; });
  q.ScheduleAt(20, [&] { ++count; });
  q.RunAll();
  EXPECT_EQ(count, 2);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(clock.now(), 20);
}

TEST(EventQueueTest, PendingCountsExcludeCancelled) {
  SimClock clock;
  EventQueue q(clock);
  const auto id = q.ScheduleAt(10, [] {});
  q.ScheduleAt(20, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.Cancel(id);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueueTest, StaleIdCannotCancelReusedSlot) {
  SimClock clock;
  EventQueue q(clock);
  int ran = 0;
  const auto old_id = q.ScheduleAt(10, [&] { ++ran; });
  q.RunUntil(10);
  EXPECT_EQ(ran, 1);
  // The slot is recycled for the next event; the retired id must not be able
  // to cancel it.
  q.ScheduleAt(20, [&] { ++ran; });
  EXPECT_FALSE(q.Cancel(old_id));
  q.RunUntil(20);
  EXPECT_EQ(ran, 2);
}

// Regression for the pending()/memory drift the old implementation had:
// cancelled events accumulated in the heap until run time. Schedule/cancel
// 10k events and assert both that pending() stays truthful and that the
// queue's slot pool stays bounded (compaction reclaims dead slots instead of
// letting them pile up behind a far-future event).
TEST(EventQueueTest, CancelChurnKeepsMemoryBounded) {
  SimClock clock;
  EventQueue q(clock);
  // A far-future event keeps the queue non-empty the whole time, so nothing
  // is reclaimed by draining.
  q.ScheduleAt(1'000'000, [] {});
  std::vector<EventQueue::EventId> ids;
  constexpr int kChurn = 10'000;
  for (int i = 0; i < kChurn; ++i) {
    ids.push_back(q.ScheduleAt(500'000 + i, [] {}));
    if (ids.size() >= 16) {
      for (EventQueue::EventId id : ids) {
        EXPECT_TRUE(q.Cancel(id));
      }
      ids.clear();
    }
  }
  for (EventQueue::EventId id : ids) {
    EXPECT_TRUE(q.Cancel(id));
  }
  EXPECT_EQ(q.pending(), 1u);
  // Without compaction the pool would hold ~10k dead slots; with it, the
  // high-water mark is a small multiple of the live count.
  EXPECT_LT(q.slot_capacity(), 256u);
  q.RunUntil(1'000'000);
  EXPECT_TRUE(q.empty());
}

// --- Determinism property suite --------------------------------------------
//
// Randomized schedule/cancel/run interleavings applied in lockstep to the
// calendar queue and to the retired priority-queue implementation
// (LegacyEventQueue). Both record the logical index of every event they
// fire; the sequences must be bit-equal. Every third event schedules a child
// from its callback (at the current time or 10ns later) in its own queue, so
// same-time cascades are compared too, not just pre-scheduled events.

TEST(EventQueueTest, RandomizedInterleavingsMatchLegacyOracle) {
  constexpr int kRounds = 25;
  constexpr int kOpsPerRound = 400;
  for (int round = 0; round < kRounds; ++round) {
    Rng rng(0x5eed0000 + static_cast<uint64_t>(round));
    SimClock clock_a;
    SimClock clock_b;
    EventQueue calendar(clock_a);
    LegacyEventQueue legacy(clock_b);
    std::vector<int> order_a;
    std::vector<int> order_b;
    std::vector<char> fired_a;  // Indexed by logical event id.
    // Live logical events: index -> ids in both queues.
    struct Live {
      int logical;
      EventQueue::EventId a;
      LegacyEventQueue::EventId b;
    };
    std::vector<Live> live;
    int next_logical = 0;
    for (int op = 0; op < kOpsPerRound; ++op) {
      const uint64_t pick = rng.NextBelow(10);
      if (pick < 6) {
        // Schedule at a clustered time so same-timestamp collisions are
        // common (that is where ordering bugs live).
        const SimTime at =
            clock_a.now() + static_cast<SimTime>(rng.NextBelow(8)) * 10;
        const int logical = next_logical++;
        fired_a.push_back(0);
        // Children get the negative logical id of their parent.
        const auto ida = calendar.ScheduleAt(at, [&, logical] {
          order_a.push_back(logical);
          fired_a[static_cast<size_t>(logical)] = 1;
          if (logical % 3 == 0) {
            calendar.ScheduleAfter((logical % 2) * 10, [&order_a, logical] {
              order_a.push_back(-1 - logical);
            });
          }
        });
        const auto idb = legacy.ScheduleAt(at, [&, logical] {
          order_b.push_back(logical);
          if (logical % 3 == 0) {
            legacy.ScheduleAfter((logical % 2) * 10, [&order_b, logical] {
              order_b.push_back(-1 - logical);
            });
          }
        });
        live.push_back({logical, ida, idb});
      } else if (pick < 8) {
        if (!live.empty()) {
          const size_t victim = rng.NextBelow(live.size());
          const bool ca = calendar.Cancel(live[victim].a);
          const bool cb = legacy.Cancel(live[victim].b);
          EXPECT_EQ(ca, cb);
          live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
        }
      } else {
        const SimTime t =
            clock_a.now() + static_cast<SimTime>(rng.NextBelow(40));
        calendar.RunUntil(t);
        legacy.RunUntil(t);
        ASSERT_EQ(clock_a.now(), clock_b.now());
        // Drop fired events from the live set.
        live.erase(
            std::remove_if(live.begin(), live.end(),
                           [&](const Live& l) {
                             return fired_a[static_cast<size_t>(l.logical)];
                           }),
            live.end());
      }
    }
    calendar.RunAll();
    legacy.RunAll();
    ASSERT_EQ(order_a, order_b) << "round " << round;
    EXPECT_TRUE(calendar.empty());
    EXPECT_TRUE(legacy.empty());
  }
}

// A same-time cascade runs after the already-queued same-time events, and an
// event it schedules for later runs at its own time, after the whole cascade.
TEST(EventQueueTest, SameTimeCascadeThenLaterEvent) {
  SimClock clock;
  EventQueue q(clock);
  std::vector<int> order;
  SimTime later_ran_at = -1;
  q.ScheduleAt(100, [&] {
    order.push_back(1);
    q.ScheduleAt(100, [&] { order.push_back(3); });
    q.ScheduleAfter(50, [&] {
      order.push_back(4);
      later_ran_at = clock.now();
    });
  });
  q.ScheduleAt(100, [&] { order.push_back(2); });
  q.RunUntil(200);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(later_ran_at, 150);
}

}  // namespace
}  // namespace ssmc
