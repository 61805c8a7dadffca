#include "src/storage/storage_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/support/rng.h"
#include "tests/reference/eager_index_allocator.h"

namespace ssmc {
namespace {

FlashSpec TestFlashSpec() {
  FlashSpec spec;
  spec.read = {100, 10};
  spec.program = {1000, 100};
  spec.erase_sector_bytes = 2048;
  spec.erase_ns = kMillisecond;
  spec.endurance_cycles = 1000000;
  return spec;
}

DramSpec TestDramSpec() {
  DramSpec spec;
  spec.read = {50, 10};
  spec.write = {60, 12};
  spec.active_mw_per_mib = 150;
  spec.standby_mw_per_mib = 1.5;
  return spec;
}

NvmSpec TestNvmSpec() {
  NvmSpec spec;
  spec.read = {60, 20};
  spec.write = {120, 40};
  spec.endurance_writes = 1000000;
  return spec;
}

class StorageManagerTest : public ::testing::Test {
 protected:
  StorageManagerTest()
      : dram_(TestDramSpec(), 64 * 1024, clock_),
        flash_(TestFlashSpec(), 128 * 1024, 1, clock_),
        store_(flash_, {}),
        manager_(dram_, store_, 512) {}

  SimClock clock_;
  DramDevice dram_;
  FlashDevice flash_;
  FlashStore store_;
  StorageManager manager_;
};

TEST_F(StorageManagerTest, PageCountsFromCapacity) {
  EXPECT_EQ(manager_.total_dram_pages(), 128u);  // 64 KiB / 512.
  EXPECT_EQ(manager_.free_dram_pages(), 128u);
  EXPECT_EQ(manager_.total_flash_blocks(), store_.num_blocks());
  EXPECT_EQ(manager_.free_flash_blocks(), store_.num_blocks());
}

TEST_F(StorageManagerTest, DramPagesAllocatedLowFirst) {
  Result<uint64_t> a = manager_.AllocateDramPage();
  Result<uint64_t> b = manager_.AllocateDramPage();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(manager_.free_dram_pages(), 126u);
  EXPECT_EQ(manager_.DramPageAddress(b.value()), 512u);
}

TEST_F(StorageManagerTest, FreeReturnsPageToPool) {
  Result<uint64_t> a = manager_.AllocateDramPage();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(manager_.FreeDramPage(a.value()).ok());
  EXPECT_EQ(manager_.free_dram_pages(), 128u);
}

TEST_F(StorageManagerTest, DoubleFreeDetected) {
  Result<uint64_t> a = manager_.AllocateDramPage();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(manager_.FreeDramPage(a.value()).ok());
  EXPECT_EQ(manager_.FreeDramPage(a.value()).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(manager_.FreeDramPage(9999).code(), ErrorCode::kOutOfRange);
}

TEST_F(StorageManagerTest, DramExhaustionReturnsTypedOutOfMemory) {
  for (uint64_t i = 0; i < 128; ++i) {
    ASSERT_TRUE(manager_.AllocateDramPage().ok());
  }
  // A dry DRAM pool is a typed out-of-memory, distinct from media-level
  // kNoSpace: callers (and tests) can tell "machine out of RAM" apart from
  // "flash/disk full" without parsing messages.
  Result<uint64_t> dry = manager_.AllocateDramPage();
  ASSERT_FALSE(dry.ok());
  EXPECT_EQ(dry.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(ErrorCodeName(dry.status().code()), "RESOURCE_EXHAUSTED");
  // Flash exhaustion is a different failure domain and keeps kNoSpace.
  while (manager_.free_flash_blocks() > 0) {
    ASSERT_TRUE(manager_.AllocateFlashBlock().ok());
  }
  EXPECT_EQ(manager_.AllocateFlashBlock().status().code(),
            ErrorCode::kNoSpace);
}

TEST_F(StorageManagerTest, FlashBlockAllocateAndFree) {
  Result<uint64_t> b = manager_.AllocateFlashBlock();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(manager_.free_flash_blocks(), store_.num_blocks() - 1);
  // Write something so the free also trims.
  std::vector<uint8_t> data(512, 0xAA);
  ASSERT_TRUE(store_.Write(b.value(), data).ok());
  ASSERT_TRUE(manager_.FreeFlashBlock(b.value()).ok());
  EXPECT_EQ(manager_.free_flash_blocks(), store_.num_blocks());
  EXPECT_FALSE(store_.IsMapped(b.value()));
}

TEST_F(StorageManagerTest, FlashDoubleFreeDetected) {
  Result<uint64_t> b = manager_.AllocateFlashBlock();
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(manager_.FreeFlashBlock(b.value()).ok());
  EXPECT_EQ(manager_.FreeFlashBlock(b.value()).code(),
            ErrorCode::kFailedPrecondition);
}

TEST_F(StorageManagerTest, MetadataChargesAdvanceClock) {
  const SimTime before = clock_.now();
  manager_.ChargeMetadataRead(64);
  EXPECT_GT(clock_.now(), before);
  const SimTime mid = clock_.now();
  manager_.ChargeMetadataWrite(64);
  EXPECT_GT(clock_.now(), mid);
}

// --- Differential suite: the lazy pools against the eager reference ------

// The same status code and, on success, the same index.
::testing::AssertionResult SameResult(const Result<uint64_t>& got,
                                      const Result<uint64_t>& want) {
  if (got.ok() != want.ok() ||
      (got.ok() ? got.value() != want.value()
                : got.status().code() != want.status().code())) {
    return ::testing::AssertionFailure()
           << "got " << (got.ok() ? std::to_string(got.value())
                                  : got.status().ToString())
           << ", eager reference "
           << (want.ok() ? std::to_string(want.value())
                         : want.status().ToString());
  }
  return ::testing::AssertionSuccess();
}

// A 128-page DRAM pool, a 32-page NVM pool, and a flash store's blocks,
// each shadowed by an EagerIndexAllocator of the same capacity.
class AllocatorDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  enum Pool { kDram, kNvm, kFlash };

  struct Lane {
    explicit Lane(EagerIndexAllocator r) : ref(std::move(r)) {}
    EagerIndexAllocator ref;
    std::vector<uint64_t> held;  // Indices in use, in no particular order.
    uint64_t high_water = 0;     // One past the highest index ever taken.
  };

  AllocatorDifferentialTest()
      : dram_(TestDramSpec(), 64 * 1024, clock_),
        nvm_(TestNvmSpec(), 32 * 512, 1, clock_),
        flash_(TestFlashSpec(), 128 * 1024, 1, clock_),
        store_(flash_, {}),
        manager_(dram_, store_, 512, {}, &nvm_),
        lanes_{Lane{EagerIndexAllocator(manager_.total_dram_pages(),
                                        ResourceExhaustedError)},
               Lane{EagerIndexAllocator(manager_.total_nvm_pages(),
                                        ResourceExhaustedError)},
               Lane{EagerIndexAllocator(manager_.total_flash_blocks(),
                                        NoSpaceError)}} {}

  Result<uint64_t> Allocate(Pool pool) {
    switch (pool) {
      case kDram:
        return manager_.AllocateDramPage();
      case kNvm:
        return manager_.AllocateNvmPage();
      case kFlash:
        return manager_.AllocateFlashBlock();
    }
    return InternalError("unreachable");
  }

  Status Free(Pool pool, uint64_t i) {
    switch (pool) {
      case kDram:
        return manager_.FreeDramPage(i);
      case kNvm:
        return manager_.FreeNvmPage(i);
      case kFlash:
        return manager_.FreeFlashBlock(i);
    }
    return InternalError("unreachable");
  }

  // Marks a DRAM page's payload with its own index, so a page that lost or
  // swapped its payload when the payload table grew is caught on free.
  void StampDramPage(uint64_t page) {
    uint8_t tag[8];
    std::memcpy(tag, &page, sizeof(tag));
    manager_.WritePagePayload(page, 0, tag);
  }
  ::testing::AssertionResult DramPageStamped(uint64_t page) {
    uint8_t tag[8];
    manager_.ReadPagePayload(page, 0, tag);
    uint64_t got;
    std::memcpy(&got, tag, sizeof(got));
    if (got != page) {
      return ::testing::AssertionFailure()
             << "DRAM page " << page << " holds the stamp of page " << got;
    }
    return ::testing::AssertionSuccess();
  }

  void RecordTaken(Lane& lane, uint64_t i) {
    lane.held.push_back(i);
    lane.high_water = std::max(lane.high_water, i + 1);
  }
  static void RecordReleased(Lane& lane, uint64_t i) {
    lane.held.erase(std::find(lane.held.begin(), lane.held.end(), i));
  }

  ::testing::AssertionResult SameFreeCounts() {
    const uint64_t got[] = {manager_.free_dram_pages(),
                            manager_.free_nvm_pages(),
                            manager_.free_flash_blocks()};
    for (int pool = kDram; pool <= kFlash; ++pool) {
      if (got[pool] != lanes_[pool].ref.free()) {
        return ::testing::AssertionFailure()
               << "pool " << pool << ": " << got[pool]
               << " free, eager reference " << lanes_[pool].ref.free();
      }
    }
    return ::testing::AssertionSuccess();
  }

  SimClock clock_;
  DramDevice dram_;
  NvmDevice nvm_;
  FlashDevice flash_;
  FlashStore store_;
  StorageManager manager_;
  Lane lanes_[3];
};

TEST_P(AllocatorDifferentialTest, RandomSequencesMatchEagerStacks) {
  Rng rng(GetParam());
  const std::vector<uint8_t> block(512, 0x5A);
  for (int step = 0; step < 4000; ++step) {
    // Alternate filling and draining phases so every pool runs dry and
    // refills a few times per seed.
    const bool filling = (step / 500) % 2 == 0;
    const Pool pool = static_cast<Pool>(rng.NextBelow(3));
    Lane& lane = lanes_[pool];
    const uint64_t roll = rng.NextBelow(100);
    const uint64_t alloc_share = filling ? 60 : 25;
    if (roll < alloc_share) {
      const Result<uint64_t> got = Allocate(pool);
      ASSERT_TRUE(SameResult(got, lane.ref.Allocate()))
          << "allocate, pool " << pool << ", seed " << GetParam()
          << ", step " << step;
      if (got.ok()) {
        RecordTaken(lane, got.value());
        if (pool == kDram) {
          StampDramPage(got.value());
        } else if (pool == kFlash && rng.NextBelow(3) == 0) {
          // Some blocks hold data, so their free also trims the store.
          ASSERT_TRUE(store_.Write(got.value(), block).ok());
        }
      }
    } else if (roll < 88) {
      // Mostly frees of held indices; the rest are arbitrary, so double
      // frees and out-of-range frees happen too.
      const uint64_t i = !lane.held.empty() && roll < 84
                             ? lane.held[rng.NextBelow(lane.held.size())]
                             : rng.NextBelow(lane.ref.capacity() + 4);
      if (pool == kDram && lane.ref.used(i)) {
        ASSERT_TRUE(DramPageStamped(i)) << "seed " << GetParam();
      }
      const Status got = Free(pool, i);
      const Status want = lane.ref.Free(i);
      ASSERT_EQ(got.code(), want.code())
          << "free " << i << ", pool " << pool << ", seed " << GetParam()
          << ", step " << step;
      if (got.ok()) {
        RecordReleased(lane, i);
      }
    } else if (pool == kFlash) {
      // Reservations below, at, and above the highest block handed out so
      // far (the lazy pool's fresh cursor sits at or above it), of held
      // blocks, and out of range.
      uint64_t i = 0;
      switch (rng.NextBelow(5)) {
        case 0:
          i = rng.NextBelow(lane.high_water + 1);
          break;
        case 1:
          i = lane.high_water;
          break;
        case 2:
          i = lane.high_water + 1 + rng.NextBelow(8);
          break;
        case 3:
          i = lane.held.empty() ? 0
                                : lane.held[rng.NextBelow(lane.held.size())];
          break;
        default:
          i = lane.ref.capacity() + rng.NextBelow(4);
          break;
      }
      const Status got = manager_.ReserveFlashBlock(i);
      const Status want = lane.ref.Reserve(i);
      ASSERT_EQ(got.code(), want.code())
          << "reserve " << i << ", seed " << GetParam() << ", step " << step;
      if (got.ok()) {
        RecordTaken(lane, i);
      }
    }
    ASSERT_TRUE(SameFreeCounts()) << "seed " << GetParam() << ", step "
                                  << step;
  }
  for (uint64_t b = 0; b < lanes_[kFlash].ref.capacity() + 2; ++b) {
    ASSERT_EQ(manager_.IsFlashBlockUsed(b), lanes_[kFlash].ref.used(b))
        << "block " << b;
  }
  EXPECT_TRUE(store_.CheckIndexConsistency().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorDifferentialTest,
                         ::testing::Range<uint64_t>(1, 17));

// The cases the random walk is least likely to line up exactly: a block
// reserved ahead of the cursor is skipped by it, and once freed is recycled
// like any other block.
TEST_F(StorageManagerTest, ReservedBlocksAheadOfTheCursorAreSkipped) {
  EagerIndexAllocator ref(manager_.total_flash_blocks(), NoSpaceError);
  auto allocate = [&] {
    const Result<uint64_t> got = manager_.AllocateFlashBlock();
    EXPECT_TRUE(SameResult(got, ref.Allocate()));
    return got.value_or(~uint64_t{0});
  };
  auto reserve = [&](uint64_t b) {
    const Status got = manager_.ReserveFlashBlock(b);
    EXPECT_EQ(got.code(), ref.Reserve(b).code()) << "block " << b;
    return got.code();
  };
  auto release = [&](uint64_t b) {
    const Status got = manager_.FreeFlashBlock(b);
    EXPECT_EQ(got.code(), ref.Free(b).code()) << "block " << b;
  };
  for (uint64_t b = 0; b < 5; ++b) {
    EXPECT_EQ(allocate(), b);
  }
  release(2);
  release(4);
  EXPECT_EQ(reserve(4), ErrorCode::kOk);  // Recycled: below the cursor.
  EXPECT_EQ(reserve(5), ErrorCode::kOk);  // At the cursor.
  EXPECT_EQ(reserve(8), ErrorCode::kOk);  // Ahead of the cursor.
  EXPECT_EQ(reserve(8), ErrorCode::kAlreadyExists);
  EXPECT_EQ(reserve(manager_.total_flash_blocks()), ErrorCode::kOutOfRange);
  EXPECT_EQ(allocate(), 2u);
  EXPECT_EQ(allocate(), 6u);
  EXPECT_EQ(allocate(), 7u);
  release(8);
  EXPECT_EQ(allocate(), 8u);  // Recycled ahead of the cursor.
  EXPECT_EQ(allocate(), 9u);  // The cursor still skips nothing it owes.
  EXPECT_EQ(manager_.free_flash_blocks(), ref.free());
}

}  // namespace
}  // namespace ssmc
