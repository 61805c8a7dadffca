#include "src/support/arena.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/io_scheduler.h"

namespace ssmc {
namespace {

TEST(RequestArenaTest, AllocateReturnsDistinctAlignedChunks) {
  RequestArena arena(24, /*chunks_per_slab=*/8);
  std::set<void*> seen;
  for (int i = 0; i < 100; ++i) {
    void* p = arena.Allocate();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(std::max_align_t), 0u);
    EXPECT_TRUE(seen.insert(p).second) << "chunk handed out twice";
  }
  EXPECT_EQ(arena.live(), 100u);
  EXPECT_GE(arena.capacity(), 100u);
}

TEST(RequestArenaTest, ReleaseRecyclesWithoutGrowingCapacity) {
  RequestArena arena(32, /*chunks_per_slab=*/4);
  void* p = arena.Allocate();
  const size_t cap = arena.capacity();
  for (int i = 0; i < 1000; ++i) {
    arena.Release(p);
    p = arena.Allocate();
  }
  // Steady-state churn reuses the same chunk; no new slabs appear.
  EXPECT_EQ(arena.capacity(), cap);
  EXPECT_EQ(arena.live(), 1u);
  arena.Release(p);
  EXPECT_EQ(arena.live(), 0u);
}

TEST(RequestArenaTest, AddressesStableWithinGeneration) {
  RequestArena arena(sizeof(uint64_t) * 4, /*chunks_per_slab=*/4);
  std::vector<uint64_t*> held;
  for (uint64_t i = 0; i < 64; ++i) {
    auto* p = static_cast<uint64_t*>(arena.Allocate());
    *p = i;
    held.push_back(p);
  }
  // Interleave further churn; held chunks must not move or be re-handed out.
  void* extra = arena.Allocate();
  arena.Release(extra);
  for (uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(*held[i], i);
  }
}

TEST(RequestArenaTest, ResetReclaimsEverythingAndBumpsGeneration) {
  RequestArena arena(16, /*chunks_per_slab=*/4);
  for (int i = 0; i < 10; ++i) {
    (void)arena.Allocate();
  }
  const size_t cap = arena.capacity();
  const uint64_t gen = arena.generation();
  arena.Reset();
  EXPECT_EQ(arena.live(), 0u);
  EXPECT_EQ(arena.generation(), gen + 1);
  EXPECT_EQ(arena.capacity(), cap) << "Reset must keep the high-water mark";
  // The whole capacity is reusable without carving a new slab.
  for (size_t i = 0; i < cap; ++i) {
    ASSERT_NE(arena.Allocate(), nullptr);
  }
  EXPECT_EQ(arena.capacity(), cap);
}

TEST(RequestArenaTest, TypedNewDeleteRoundTrip) {
  struct Payload {
    uint64_t a;
    uint32_t b;
  };
  RequestArena arena(sizeof(Payload));
  Payload* p = arena.New<Payload>(7u, 9u);
  EXPECT_EQ(p->a, 7u);
  EXPECT_EQ(p->b, 9u);
  arena.Delete(p);
  EXPECT_EQ(arena.live(), 0u);
}

TEST(RequestArenaTest, ChunkSmallerThanPointerStillWorks) {
  // The free-list link needs a pointer's worth of space; tiny chunk sizes
  // must be rounded up rather than corrupting neighbors.
  RequestArena arena(1, /*chunks_per_slab=*/4);
  void* a = arena.Allocate();
  void* b = arena.Allocate();
  EXPECT_NE(a, b);
  std::memset(a, 0xAA, 1);
  arena.Release(a);
  arena.Release(b);
  EXPECT_EQ(arena.live(), 0u);
}

// The scheduler's reservations live in its arena: heavy requests allocate a
// chunk while queued and return it at retire, so steady-state traffic leaves
// the arena empty with a bounded high-water mark.
// Node containers take their nodes from the arena; arrays (a hash table's
// buckets, a vector's storage) come from the heap.
TEST(ArenaAllocatorTest, NodesComeFromTheArenaAndArraysFromTheHeap) {
  RequestArena arena(64, /*chunks_per_slab=*/16);
  {
    std::map<int, int, std::less<>, ArenaAllocator<std::pair<const int, int>>>
        map{ArenaAllocator<int>(&arena)};
    for (int i = 0; i < 100; ++i) {
      map.emplace(i, i);
    }
    EXPECT_EQ(arena.live(), 100u);
    for (int i = 0; i < 100; i += 2) {
      map.erase(i);
    }
    EXPECT_EQ(arena.live(), 50u);
    std::vector<int, ArenaAllocator<int>> array{ArenaAllocator<int>(&arena)};
    array.resize(1000);
    EXPECT_EQ(arena.live(), 50u);
  }
  EXPECT_EQ(arena.live(), 0u);
}

TEST(IoSchedulerArenaTest, HeavyRequestsReturnChunksAtRetire) {
  SimClock clock;
  IoScheduler sched(clock, /*channels=*/1, IoSchedPolicy::kPriority);
  for (int round = 0; round < 50; ++round) {
    IoRequest req;
    req.op = IoOp::kRead;
    (void)sched.Submit(0, std::move(req), Duration{10});
    clock.Advance(10);
    sched.Poll();
    EXPECT_EQ(sched.arena().live(), 0u) << "round " << round;
  }
  // One slab's worth of capacity suffices for depth-1 traffic.
  EXPECT_LE(sched.arena().capacity(), 64u);
}

TEST(IoSchedulerArenaTest, QueueDepthBoundsArenaLiveCount) {
  SimClock clock;
  IoScheduler sched(clock, /*channels=*/1, IoSchedPolicy::kPriority);
  for (int i = 0; i < 10; ++i) {
    IoRequest req;
    req.op = IoOp::kProgram;
    (void)sched.Submit(0, std::move(req), Duration{100});
  }
  EXPECT_EQ(sched.arena().live(), 10u);
  clock.Advance(1000);
  sched.Poll();
  EXPECT_EQ(sched.arena().live(), 0u);
  EXPECT_EQ(sched.pending(), 0u);
}

}  // namespace
}  // namespace ssmc
