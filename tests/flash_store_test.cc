#include "src/ftl/flash_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <vector>

#include "src/support/rng.h"

namespace ssmc {
namespace {

FlashSpec SmallFlashSpec() {
  FlashSpec spec;
  spec.name = "test flash";
  spec.read = {100, 10};
  spec.program = {1000, 100};
  spec.erase_sector_bytes = 2048;  // 4 pages of 512 B.
  spec.erase_ns = 1 * kMillisecond;
  spec.endurance_cycles = 1000000;  // Effectively unlimited unless lowered.
  spec.active_mw_per_mib = 30;
  spec.standby_mw_per_mib = 0.05;
  return spec;
}

std::vector<uint8_t> Block(uint8_t fill) {
  return std::vector<uint8_t>(512, fill);
}

class FlashStoreTest : public ::testing::Test {
 protected:
  // 64 sectors of 2 KiB = 128 KiB, 1 bank by default.
  FlashStoreTest() { Recreate(128 * 1024, 1, {}); }

  void Recreate(uint64_t capacity, int banks, FlashStoreOptions options) {
    flash_ = std::make_unique<FlashDevice>(SmallFlashSpec(), capacity, banks,
                                           clock_, /*seed=*/3);
    store_ = std::make_unique<FlashStore>(*flash_, options);
  }

  SimClock clock_;
  std::unique_ptr<FlashDevice> flash_;
  std::unique_ptr<FlashStore> store_;
};

TEST_F(FlashStoreTest, CapacityExcludesReserve) {
  // 64 sectors, reserve = max(banks+1, ceil(0.10*64)=7) = 7 -> 57 sectors *
  // 4 pages = 228 blocks.
  EXPECT_EQ(store_->num_blocks(), 57u * 4);
  EXPECT_EQ(store_->block_bytes(), 512u);
}

TEST_F(FlashStoreTest, UnwrittenBlockIsNotFound) {
  auto out = Block(0);
  EXPECT_EQ(store_->Read(0, out).status().code(), ErrorCode::kNotFound);
  EXPECT_FALSE(store_->IsMapped(0));
}

TEST_F(FlashStoreTest, WriteThenReadRoundTrips) {
  auto data = Block(0xAB);
  ASSERT_TRUE(store_->Write(5, data).ok());
  EXPECT_TRUE(store_->IsMapped(5));
  auto out = Block(0);
  ASSERT_TRUE(store_->Read(5, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(FlashStoreTest, OverwriteReturnsNewData) {
  ASSERT_TRUE(store_->Write(9, Block(1)).ok());
  ASSERT_TRUE(store_->Write(9, Block(2)).ok());
  auto out = Block(0);
  ASSERT_TRUE(store_->Read(9, out).ok());
  EXPECT_EQ(out, Block(2));
}

TEST_F(FlashStoreTest, OverwritesNeverEraseInline) {
  // Out-of-place writes mean an overwrite costs one program, not a
  // read-erase-rewrite of the whole sector.
  ASSERT_TRUE(store_->Write(0, Block(1)).ok());
  const uint64_t erases_before = flash_->stats().erases.value();
  ASSERT_TRUE(store_->Write(0, Block(2)).ok());
  EXPECT_EQ(flash_->stats().erases.value(), erases_before);
}

TEST_F(FlashStoreTest, WrongSizeRejected) {
  std::vector<uint8_t> small(100);
  EXPECT_EQ(store_->Write(0, small).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(store_->Read(0, small).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(FlashStoreTest, OutOfRangeRejected) {
  auto b = Block(0);
  EXPECT_EQ(store_->Write(store_->num_blocks(), b).status().code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(store_->Read(store_->num_blocks(), b).status().code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(store_->Trim(store_->num_blocks()).code(),
            ErrorCode::kOutOfRange);
}

TEST_F(FlashStoreTest, TrimUnmapsBlock) {
  ASSERT_TRUE(store_->Write(3, Block(7)).ok());
  ASSERT_TRUE(store_->Trim(3).ok());
  EXPECT_FALSE(store_->IsMapped(3));
  auto out = Block(0);
  EXPECT_EQ(store_->Read(3, out).status().code(), ErrorCode::kNotFound);
  // Trim of an unmapped block is a no-op.
  EXPECT_TRUE(store_->Trim(3).ok());
}

TEST_F(FlashStoreTest, PhysicalAddressTracksRelocation) {
  ASSERT_TRUE(store_->Write(1, Block(1)).ok());
  Result<uint64_t> addr1 = store_->PhysicalAddressOf(1);
  ASSERT_TRUE(addr1.ok());
  ASSERT_TRUE(store_->Write(1, Block(2)).ok());
  Result<uint64_t> addr2 = store_->PhysicalAddressOf(1);
  ASSERT_TRUE(addr2.ok());
  EXPECT_NE(addr1.value(), addr2.value());
  EXPECT_EQ(store_->PhysicalAddressOf(2).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(FlashStoreTest, FillToLogicalCapacitySucceeds) {
  auto data = Block(0x11);
  for (uint64_t b = 0; b < store_->num_blocks(); ++b) {
    ASSERT_TRUE(store_->Write(b, data).ok()) << "block " << b;
  }
  // Every block readable afterwards.
  auto out = Block(0);
  ASSERT_TRUE(store_->Read(store_->num_blocks() - 1, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(FlashStoreTest, SustainedOverwriteTriggersCleaning) {
  auto data = Block(0x22);
  // Fill, then overwrite everything several times: forces GC.
  for (int round = 0; round < 6; ++round) {
    for (uint64_t b = 0; b < store_->num_blocks(); ++b) {
      ASSERT_TRUE(store_->Write(b, data).ok())
          << "round " << round << " block " << b;
    }
  }
  EXPECT_GT(store_->stats().gc_runs.value(), 0u);
  EXPECT_GT(store_->stats().erases.value(), 0u);
}

TEST_F(FlashStoreTest, DataIntactAfterHeavyCleaning) {
  // Unique content per block, many overwrites of a hot subset; verify the
  // cold blocks survive relocation.
  for (uint64_t b = 0; b < store_->num_blocks(); ++b) {
    ASSERT_TRUE(store_->Write(b, Block(static_cast<uint8_t>(b * 7))).ok());
  }
  for (int round = 0; round < 40; ++round) {
    for (uint64_t b = 0; b < 16; ++b) {  // Hot blocks.
      ASSERT_TRUE(
          store_->Write(b, Block(static_cast<uint8_t>(round + b))).ok());
    }
  }
  for (uint64_t b = 16; b < store_->num_blocks(); ++b) {
    auto out = Block(0);
    ASSERT_TRUE(store_->Read(b, out).ok()) << "block " << b;
    EXPECT_EQ(out, Block(static_cast<uint8_t>(b * 7))) << "block " << b;
  }
}

TEST_F(FlashStoreTest, WriteAmplificationAtLeastOne) {
  EXPECT_DOUBLE_EQ(store_->WriteAmplification(), 1.0);
  for (int round = 0; round < 4; ++round) {
    for (uint64_t b = 0; b < store_->num_blocks(); ++b) {
      ASSERT_TRUE(store_->Write(b, Block(1)).ok());
    }
  }
  EXPECT_GE(store_->WriteAmplification(), 1.0);
}

TEST_F(FlashStoreTest, UniformOverwriteHasLowAmplification) {
  // Pure sequential overwrite leaves victims fully dead: the cleaner should
  // relocate almost nothing.
  for (int round = 0; round < 6; ++round) {
    for (uint64_t b = 0; b < store_->num_blocks(); ++b) {
      ASSERT_TRUE(store_->Write(b, Block(1)).ok());
    }
  }
  EXPECT_LT(store_->WriteAmplification(), 1.3);
}

TEST_F(FlashStoreTest, MultiBankSpreadsWrites) {
  FlashStoreOptions opts;
  Recreate(128 * 1024, 4, opts);
  for (uint64_t b = 0; b < 32; ++b) {
    ASSERT_TRUE(store_->Write(b, Block(1)).ok());
  }
  // With round-robin placement, consecutive blocks land in distinct banks.
  std::map<int, int> bank_counts;
  for (uint64_t b = 0; b < 32; ++b) {
    Result<uint64_t> addr = store_->PhysicalAddressOf(b);
    ASSERT_TRUE(addr.ok());
    bank_counts[flash_->BankOfAddress(addr.value())]++;
  }
  EXPECT_EQ(bank_counts.size(), 4u);
  for (const auto& [bank, count] : bank_counts) {
    EXPECT_EQ(count, 8) << "bank " << bank;
  }
}

TEST_F(FlashStoreTest, BackgroundWritesDoNotAdvanceClock) {
  FlashStoreOptions opts;
  opts.background_writes = true;
  Recreate(128 * 1024, 1, opts);
  const SimTime before = clock_.now();
  ASSERT_TRUE(store_->Write(0, Block(1)).ok());
  EXPECT_EQ(clock_.now(), before);
  // But the bank is genuinely occupied.
  EXPECT_GT(flash_->BankBusyUntil(0), before);
}

TEST_F(FlashStoreTest, DynamicWearBeatsNoneOnSkew) {
  // Workload: hammer a few hot blocks. With kNone the same few sectors
  // cycle; with kDynamic reuse spreads over the free pool.
  auto run = [&](WearPolicy wear) {
    FlashStoreOptions opts;
    opts.wear = wear;
    opts.cleaner = CleanerPolicy::kGreedy;
    Recreate(128 * 1024, 1, opts);
    // Occupy most blocks once (cold data), then hammer 8 hot blocks.
    for (uint64_t b = 0; b < store_->num_blocks(); ++b) {
      EXPECT_TRUE(store_->Write(b, Block(1)).ok());
    }
    for (int i = 0; i < 3000; ++i) {
      EXPECT_TRUE(store_->Write(i % 8, Block(2)).ok());
    }
    return flash_->SummarizeWear();
  };
  const FlashDevice::WearSummary none = run(WearPolicy::kNone);
  const FlashDevice::WearSummary dynamic = run(WearPolicy::kDynamic);
  EXPECT_LT(dynamic.stddev_erases, none.stddev_erases);
}

TEST_F(FlashStoreTest, StaticWearLevelingMovesColdData) {
  FlashStoreOptions opts;
  opts.wear = WearPolicy::kStatic;
  opts.cleaner = CleanerPolicy::kGreedy;
  opts.static_wear_check_interval = 8;
  opts.static_wear_delta = 8;
  Recreate(128 * 1024, 1, opts);
  for (uint64_t b = 0; b < store_->num_blocks(); ++b) {
    ASSERT_TRUE(store_->Write(b, Block(static_cast<uint8_t>(b))).ok());
  }
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(store_->Write(i % 8, Block(3)).ok());
  }
  EXPECT_GT(store_->stats().wear_migrations.value(), 0u);
  // Cold data still intact after migration.
  for (uint64_t b = 100; b < 110; ++b) {
    auto out = Block(0);
    ASSERT_TRUE(store_->Read(b, out).ok());
    EXPECT_EQ(out, Block(static_cast<uint8_t>(b)));
  }
}

TEST_F(FlashStoreTest, StaticLevelingTightensWearSpread) {
  auto run = [&](WearPolicy wear) {
    FlashStoreOptions opts;
    opts.wear = wear;
    opts.cleaner = CleanerPolicy::kGreedy;
    opts.static_wear_check_interval = 8;
    opts.static_wear_delta = 8;
    Recreate(128 * 1024, 1, opts);
    for (uint64_t b = 0; b < store_->num_blocks(); ++b) {
      EXPECT_TRUE(store_->Write(b, Block(1)).ok());
    }
    for (int i = 0; i < 8000; ++i) {
      EXPECT_TRUE(store_->Write(i % 8, Block(2)).ok());
    }
    const auto w = flash_->SummarizeWear();
    return w.max_erases - w.min_erases;
  };
  EXPECT_LT(run(WearPolicy::kStatic), run(WearPolicy::kDynamic));
}

TEST_F(FlashStoreTest, WornOutSectorsRetiredGracefully) {
  FlashSpec spec = SmallFlashSpec();
  spec.endurance_cycles = 20;
  flash_ = std::make_unique<FlashDevice>(spec, 32 * 1024, 1, clock_, 11);
  FlashStoreOptions opts;
  opts.cleaner = CleanerPolicy::kGreedy;
  store_ = std::make_unique<FlashStore>(*flash_, opts);
  // Hammer until sectors die; the store must retire them, not corrupt data.
  uint64_t writes = 0;
  for (int i = 0; i < 100000; ++i) {
    if (!store_->Write(static_cast<uint64_t>(i) % store_->num_blocks(),
                       Block(1))
             .ok()) {
      break;
    }
    ++writes;
  }
  EXPECT_GT(flash_->stats().bad_sectors.value(), 0u);
  EXPECT_GT(writes, 1000u);  // Device survived well past first failures.
}

TEST_F(FlashStoreTest, RetirementRemovesSectorFromEveryIndex) {
  // Wear sectors out under the full index complement (victim + cold + wear +
  // wear-ordered free pools), auditing after every write: a retired sector
  // must leave every index, and every pick must still match the linear-scan
  // references while sectors go bad.
  FlashSpec spec = SmallFlashSpec();
  spec.endurance_cycles = 20;
  flash_ = std::make_unique<FlashDevice>(spec, 64 * 1024, 4, clock_, 11);
  FlashStoreOptions opts;
  opts.cleaner = CleanerPolicy::kCostBenefit;
  opts.wear = WearPolicy::kStatic;
  opts.static_wear_check_interval = 8;
  opts.static_wear_delta = 8;
  opts.hot_bank_count = 1;
  store_ = std::make_unique<FlashStore>(*flash_, opts);

  for (int i = 0; i < 60000 && flash_->stats().bad_sectors.value() < 3; ++i) {
    if (!store_->Write(static_cast<uint64_t>(i) % store_->num_blocks(),
                       Block(1))
             .ok()) {
      break;
    }
    const Status audit = store_->CheckIndexConsistency();
    ASSERT_TRUE(audit.ok()) << "write " << i << ": " << audit.ToString();
  }
  ASSERT_GT(flash_->stats().bad_sectors.value(), 0u);
  uint64_t retired = 0;
  for (uint64_t s = 0; s < flash_->num_sectors(); ++s) {
    retired += store_->sector_meta(s).bad ? 1 : 0;
  }
  EXPECT_EQ(retired, flash_->stats().bad_sectors.value());
  // Membership audit: bad sectors are in no index, and sizes reconcile.
  EXPECT_TRUE(store_->CheckIndexConsistency().ok());

  // The store keeps serving around the retired sectors.
  for (int i = 0; i < 500; ++i) {
    if (!store_->Write(static_cast<uint64_t>(i) % 16, Block(2)).ok()) {
      break;
    }
  }
  EXPECT_TRUE(store_->CheckIndexConsistency().ok());
}

TEST_F(FlashStoreTest, CleanerSeesPageDeathsPendingSinceLastPick) {
  // Page deaths only mark their sector for re-indexing; the cleaner must
  // settle every mark before it picks. Greedy on one bank: 64 sectors of 4
  // pages, 57 of them logical, filled in order so sector s holds blocks
  // 4s..4s+3. Writes never query an index here: each allocation starts
  // with more free sectors than the low-water mark of 2, so only the
  // explicit Clean() calls pick.
  FlashStoreOptions opts;
  opts.cleaner = CleanerPolicy::kGreedy;
  Recreate(128 * 1024, 1, opts);
  for (uint64_t b = 0; b < store_->num_blocks(); ++b) {
    ASSERT_TRUE(store_->Write(b, Block(1)).ok());
  }
  ASSERT_EQ(store_->free_sectors(), 7u);

  // Kill all of sector 20 and one page in each of sectors 0..12: 17
  // overwrites fill sectors 57..60 and open sector 61, leaving 2 free.
  for (uint64_t b = 80; b < 84; ++b) {
    ASSERT_TRUE(store_->Write(b, Block(2)).ok());
  }
  for (uint64_t s = 0; s < 13; ++s) {
    ASSERT_TRUE(store_->Write(4 * s, Block(2)).ok());
  }
  ASSERT_EQ(store_->free_sectors(), 2u);
  ASSERT_EQ(store_->stats().gc_runs.value(), 0u);
  ASSERT_TRUE(store_->Clean().ok());
  EXPECT_EQ(store_->stats().erases.value(), 1u);
  EXPECT_EQ(flash_->EraseCount(20), 1u);

  // The pick above indexed sectors 0..12 with one dead page each. Now kill
  // all of sector 40 (4 overwrites fill sector 61 and open sector 62,
  // leaving 2 free again): a cleaner that picked from the index as of its
  // last pick would take sector 0.
  for (uint64_t b = 160; b < 164; ++b) {
    ASSERT_TRUE(store_->Write(b, Block(3)).ok());
  }
  ASSERT_EQ(store_->free_sectors(), 2u);
  ASSERT_TRUE(store_->Clean().ok());
  EXPECT_EQ(store_->stats().erases.value(), 2u);
  EXPECT_EQ(flash_->EraseCount(40), 1u);
  EXPECT_EQ(flash_->EraseCount(0), 0u);
  EXPECT_TRUE(store_->CheckIndexConsistency().ok());
}

TEST_F(FlashStoreTest, WearLevelMigrationFailureIsCountedNotSwallowed) {
  // A failing wear-leveling migration must surface in stats (and the log),
  // not vanish: the seed implementation dropped the error on the floor.
  FlashStoreOptions opts;
  opts.wear = WearPolicy::kStatic;
  opts.cleaner = CleanerPolicy::kGreedy;
  opts.static_wear_check_interval = 4;
  opts.static_wear_delta = 4;
  Recreate(128 * 1024, 1, opts);
  // Fill every block; blocks 0..3 land in sector 0 and are never overwritten,
  // so sector 0 stays fully valid at erase count 0 — the permanent coldest
  // occupied sector and thus every migration's target.
  for (uint64_t b = 0; b < store_->num_blocks(); ++b) {
    ASSERT_TRUE(store_->Write(b, Block(static_cast<uint8_t>(b))).ok());
  }
  // All migration reads from sector 0 fail (transient fault injection).
  flash_->InjectReadFaults(0, 1 << 20);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(store_->Write(100 + static_cast<uint64_t>(i) % 8, Block(3))
                    .ok());
  }
  EXPECT_GT(store_->stats().wear_level_failures.value(), 0u);
  EXPECT_EQ(store_->stats().wear_migrations.value(), 0u);

  // Once the fault clears, the cold data is still there and readable.
  flash_->InjectReadFaults(0, 0);
  for (uint64_t b = 0; b < 4; ++b) {
    auto out = Block(0);
    ASSERT_TRUE(store_->Read(b, out).ok());
    EXPECT_EQ(out, Block(static_cast<uint8_t>(b)));
  }
}

TEST_F(FlashStoreTest, StatsCountUserOps) {
  ASSERT_TRUE(store_->Write(0, Block(1)).ok());
  auto out = Block(0);
  ASSERT_TRUE(store_->Read(0, out).ok());
  ASSERT_TRUE(store_->Trim(0).ok());
  EXPECT_EQ(store_->stats().user_writes.value(), 1u);
  EXPECT_EQ(store_->stats().user_reads.value(), 1u);
  EXPECT_EQ(store_->stats().trims.value(), 1u);
}

// --- Bank segregation (Section 3.3) --------------------------------------

TEST_F(FlashStoreTest, SegregationSeparatesStreams) {
  FlashStoreOptions opts;
  opts.hot_bank_count = 1;
  Recreate(128 * 1024, 4, opts);
  // User writes land in bank 0; cold-hinted writes land in banks 1..3.
  for (uint64_t b = 0; b < 8; ++b) {
    ASSERT_TRUE(store_->Write(b, Block(1), WriteStream::kUser).ok());
    ASSERT_TRUE(
        store_->Write(100 + b, Block(2), WriteStream::kRelocation).ok());
  }
  for (uint64_t b = 0; b < 8; ++b) {
    Result<uint64_t> hot_addr = store_->PhysicalAddressOf(b);
    Result<uint64_t> cold_addr = store_->PhysicalAddressOf(100 + b);
    ASSERT_TRUE(hot_addr.ok());
    ASSERT_TRUE(cold_addr.ok());
    EXPECT_EQ(flash_->BankOfAddress(hot_addr.value()), 0);
    EXPECT_GT(flash_->BankOfAddress(cold_addr.value()), 0);
  }
}

TEST_F(FlashStoreTest, SegregationSpillsWhenColdRangeFull) {
  FlashStoreOptions opts;
  opts.hot_bank_count = 3;  // Cold range is a single bank (16 sectors).
  Recreate(128 * 1024, 4, opts);
  // Write far more cold data than one bank holds: must spill, not fail.
  for (uint64_t b = 0; b < store_->num_blocks(); ++b) {
    ASSERT_TRUE(
        store_->Write(b, Block(1), WriteStream::kRelocation).ok())
        << "block " << b;
  }
}

TEST_F(FlashStoreTest, HintIgnoredWithoutSegregation) {
  // hot_bank_count = 0: hinted and unhinted writes behave identically
  // (round-robin over all banks).
  FlashStoreOptions opts;
  Recreate(128 * 1024, 4, opts);
  for (uint64_t b = 0; b < 16; ++b) {
    ASSERT_TRUE(
        store_->Write(b, Block(1), WriteStream::kRelocation).ok());
  }
  std::map<int, int> banks;
  for (uint64_t b = 0; b < 16; ++b) {
    banks[flash_->BankOfAddress(store_->PhysicalAddressOf(b).value())]++;
  }
  EXPECT_EQ(banks.size(), 4u);
}

TEST_F(FlashStoreTest, ColdDataDistilledOutOfHotBanks) {
  FlashStoreOptions opts;
  opts.hot_bank_count = 1;
  opts.cold_eviction_age = kSecond;
  Recreate(128 * 1024, 4, opts);
  // Mis-place cold data as user writes: it fills the hot bank (16 sectors
  // of 4 pages = 64 blocks).
  for (uint64_t b = 0; b < 64; ++b) {
    ASSERT_TRUE(store_->Write(b, Block(static_cast<uint8_t>(b))).ok());
  }
  clock_.Advance(10 * kSecond);  // The squatters age past eviction age.
  // Hot churn on a few blocks forces hot-range exhaustion and distillation.
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(store_->Write(200 + (i % 4), Block(9)).ok());
    clock_.Advance(10 * kMillisecond);
  }
  // Most of the original 64 blocks should now live outside bank 0.
  int moved = 0;
  for (uint64_t b = 4; b < 64; ++b) {  // Skip blocks 0..3 (may be churned).
    Result<uint64_t> addr = store_->PhysicalAddressOf(b);
    ASSERT_TRUE(addr.ok());
    if (flash_->BankOfAddress(addr.value()) != 0) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 30);
  // And the data is intact.
  for (uint64_t b = 4; b < 64; ++b) {
    auto out = Block(0);
    ASSERT_TRUE(store_->Read(b, out).ok());
    EXPECT_EQ(out, Block(static_cast<uint8_t>(b)));
  }
}

// --- Lazily grown maps ----------------------------------------------------

// The logical map only reaches the highest block ever written; every lookup
// past it must behave exactly like a lookup of an unmapped block, and
// blocks past the logical capacity stay out of range.
TEST_F(FlashStoreTest, LookupsPastTheWrittenHighWaterMarkAreUnmapped) {
  const uint64_t last = store_->num_blocks() - 1;
  auto expect_unmapped = [&](uint64_t block) {
    auto out = Block(0);
    EXPECT_FALSE(store_->IsMapped(block)) << block;
    EXPECT_EQ(store_->Read(block, out).status().code(), ErrorCode::kNotFound)
        << block;
    EXPECT_EQ(store_->ReadRef(block).status().code(), ErrorCode::kNotFound)
        << block;
    std::vector<uint8_t> part(16);
    EXPECT_EQ(store_->ReadPartial(block, 8, part).status().code(),
              ErrorCode::kNotFound)
        << block;
    EXPECT_EQ(store_->PhysicalAddressOf(block).status().code(),
              ErrorCode::kNotFound)
        << block;
    const uint64_t trims = store_->stats().trims.value();
    EXPECT_TRUE(store_->Trim(block).ok()) << block;
    EXPECT_EQ(store_->stats().trims.value(), trims) << block;
  };
  auto expect_out_of_range = [&](uint64_t block) {
    auto out = Block(0);
    std::vector<uint8_t> part(16);
    EXPECT_FALSE(store_->IsMapped(block));
    EXPECT_EQ(store_->Read(block, out).status().code(),
              ErrorCode::kOutOfRange);
    EXPECT_EQ(store_->ReadRef(block).status().code(), ErrorCode::kOutOfRange);
    EXPECT_EQ(store_->ReadPartial(block, 0, part).status().code(),
              ErrorCode::kOutOfRange);
    EXPECT_EQ(store_->Trim(block).code(), ErrorCode::kOutOfRange);
    EXPECT_EQ(store_->PhysicalAddressOf(block).status().code(),
              ErrorCode::kNotFound);
  };

  // Nothing written yet: the map is empty.
  expect_unmapped(0);
  expect_unmapped(last);
  expect_out_of_range(last + 1);

  ASSERT_TRUE(store_->Write(3, Block(0x33)).ok());
  expect_unmapped(4);
  expect_unmapped(64);
  expect_unmapped(last);
  expect_out_of_range(last + 1);
  expect_out_of_range(~uint64_t{0});

  // Growing the map to the last block keeps earlier mappings and leaves the
  // blocks in between unmapped.
  ASSERT_TRUE(store_->Write(last, Block(0x44)).ok());
  auto out = Block(0);
  ASSERT_TRUE(store_->Read(3, out).ok());
  EXPECT_EQ(out, Block(0x33));
  Result<PayloadRef> ref = store_->ReadRef(last);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref.value().data()[0], 0x44);
  std::vector<uint8_t> part(16);
  ASSERT_TRUE(store_->ReadPartial(last, 500, {part.data(), 12}).ok());
  EXPECT_EQ(part[0], 0x44);
  EXPECT_TRUE(store_->PhysicalAddressOf(last).ok());
  expect_unmapped(4);
  expect_unmapped(last - 1);

  // Trimming the highest block unmaps it without shrinking anything; it can
  // be written again.
  ASSERT_TRUE(store_->Trim(last).ok());
  expect_unmapped(last);
  ASSERT_TRUE(store_->Write(last, Block(0x55)).ok());
  ASSERT_TRUE(store_->Read(last, out).ok());
  EXPECT_EQ(out, Block(0x55));
  EXPECT_TRUE(store_->CheckIndexConsistency().ok());
}

// A store built over a used card: non-zero erase counts everywhere and one
// sector already worn out. Construction seeds the free pools with every
// sector in ascending order at its current erase count, so the sectors the
// store opens must follow the linear-scan pick over exactly that pool, and
// the audit must hold through cleaning and static wear leveling.
class UsedCardTest : public ::testing::TestWithParam<WearPolicy> {
 protected:
  static constexpr uint64_t kBadSector = 14;

  UsedCardTest() {
    FlashSpec spec = SmallFlashSpec();
    spec.endurance_cycles = 4;
    // 16 sectors of 4 pages, one bank.
    flash_ = std::make_unique<FlashDevice>(spec, 32 * 1024, 1, clock_, 5);
    for (uint64_t s = 0; s < flash_->num_sectors(); ++s) {
      for (uint64_t e = 0; e < (s * 7) % 4; ++e) {
        EXPECT_TRUE(flash_->EraseSector(s).ok());
      }
    }
    while (!flash_->IsSectorBad(kBadSector)) {
      (void)flash_->EraseSector(kBadSector);
    }
    FlashStoreOptions options;
    options.wear = GetParam();
    options.static_wear_check_interval = 4;
    options.static_wear_delta = 2;
    store_ = std::make_unique<FlashStore>(*flash_, options);
  }

  SimClock clock_;
  std::unique_ptr<FlashDevice> flash_;
  std::unique_ptr<FlashStore> store_;
};

TEST_P(UsedCardTest, OpensSectorsInTheEagerPoolOrder) {
  std::vector<std::pair<uint64_t, uint64_t>> pool;
  for (uint64_t s = 0; s < flash_->num_sectors(); ++s) {
    pool.emplace_back(s, flash_->EraseCount(s));
  }
  const bool wear_ordered = GetParam() != WearPolicy::kNone;
  const uint64_t pps = flash_->sector_bytes() / store_->block_bytes();
  ASSERT_TRUE(store_->CheckIndexConsistency().ok());
  // Distinct blocks only: nothing dies, so nothing is cleaned and every
  // write takes the next page of the sector opened last.
  uint64_t sector = 0;
  for (uint64_t block = 0; block < store_->num_blocks(); ++block) {
    if (block % pps == 0) {
      const int64_t pick = ScanPickFreeSector(pool, wear_ordered);
      ASSERT_GE(pick, 0);
      sector = static_cast<uint64_t>(pick);
      pool.erase(std::find_if(pool.begin(), pool.end(), [&](const auto& e) {
        return e.first == sector;
      }));
    }
    const Result<Duration> w = store_->Write(block, Block(1));
    if (sector == kBadSector) {
      EXPECT_EQ(w.status().code(), ErrorCode::kDataLoss) << "block " << block;
      EXPECT_FALSE(store_->IsMapped(block));
    } else {
      ASSERT_TRUE(w.ok()) << "block " << block << ": " << w.status().ToString();
      EXPECT_EQ(store_->PhysicalAddressOf(block).value() /
                    flash_->sector_bytes(),
                sector)
          << "block " << block;
    }
    const Status audit = store_->CheckIndexConsistency();
    ASSERT_TRUE(audit.ok()) << "block " << block << ": " << audit.ToString();
  }
}

TEST_P(UsedCardTest, AuditHoldsThroughCleaningAndWearLeveling) {
  Rng rng(17);
  const uint64_t span = store_->num_blocks() / 2;
  for (int i = 0; i < 3000; ++i) {
    const uint64_t block = rng.NextBelow(span);
    (void)store_->Write(block, Block(static_cast<uint8_t>(i)));
    const Status audit = store_->CheckIndexConsistency();
    ASSERT_TRUE(audit.ok()) << "write " << i << ": " << audit.ToString();
  }
  EXPECT_GT(store_->stats().gc_runs.value(), 0u);
  if (GetParam() == WearPolicy::kStatic) {
    EXPECT_GT(store_->stats().wear_migrations.value(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(WearPolicies, UsedCardTest,
                         ::testing::Values(WearPolicy::kNone,
                                           WearPolicy::kDynamic,
                                           WearPolicy::kStatic));

// Per-sector state is built when the store first opens a sector. A fresh
// store reports every sector free and empty, and the audit holds when a
// workload opens only a few sectors of a large card.
TEST_F(FlashStoreTest, FreshStoreReportsEverySectorFree) {
  Recreate(512 * 1024, 4, {});  // 256 sectors.
  const std::vector<SectorMeta> sectors = store_->SnapshotSectors();
  ASSERT_EQ(sectors.size(), flash_->num_sectors());
  for (uint64_t s = 0; s < sectors.size(); ++s) {
    const SectorMeta& m = sectors[s];
    EXPECT_TRUE(m.free) << s;
    EXPECT_FALSE(m.active || m.bad) << s;
    EXPECT_EQ(m.next_free_page, 0u) << s;
    EXPECT_EQ(m.valid_pages + m.dead_pages, 0u) << s;
    EXPECT_EQ(m.last_write_time, 0) << s;
  }
  EXPECT_EQ(store_->free_sectors(), flash_->num_sectors());
  EXPECT_TRUE(store_->CheckIndexConsistency().ok());
}

class FewSectorsTest : public ::testing::TestWithParam<WearPolicy> {
 protected:
  FewSectorsTest() {
    // 256 sectors of 4 pages in 4 banks.
    flash_ = std::make_unique<FlashDevice>(SmallFlashSpec(), 512 * 1024, 4,
                                           clock_, /*seed=*/3);
    options_.wear = GetParam();
    options_.static_wear_check_interval = 2;
    options_.static_wear_delta = 1;
  }

  // Random overwrites of the first `span` blocks, auditing after each.
  void Churn(FlashStore& store, uint64_t seed, int writes, uint64_t span) {
    Rng rng(seed);
    for (int i = 0; i < writes; ++i) {
      const uint64_t block = rng.NextBelow(span);
      ASSERT_TRUE(store.Write(block, Block(static_cast<uint8_t>(i))).ok());
      clock_.Advance(static_cast<Duration>(rng.NextBelow(kMillisecond)));
      const Status audit = store.CheckIndexConsistency();
      ASSERT_TRUE(audit.ok()) << "write " << i << ": " << audit.ToString();
    }
  }

  SimClock clock_;
  FlashStoreOptions options_;
  std::unique_ptr<FlashDevice> flash_;
};

TEST_P(FewSectorsTest, AuditHoldsWhenAWorkloadOpensFewSectors) {
  FlashStore store(*flash_, options_);
  Churn(store, /*seed=*/21, /*writes=*/40, /*span=*/12);
  // Only a handful of sectors were opened; every other one is still free
  // and empty.
  uint64_t opened = 0;
  for (const SectorMeta& m : store.SnapshotSectors()) {
    if (!m.free) {
      opened += 1;
    } else {
      EXPECT_EQ(m.next_free_page, 0u);
      EXPECT_EQ(m.valid_pages + m.dead_pages, 0u);
    }
  }
  EXPECT_GT(opened, 0u);
  EXPECT_LT(opened, 32u);
  EXPECT_EQ(store.free_sectors(), flash_->num_sectors() - opened);
}

TEST_P(FewSectorsTest, AuditHoldsOnAStoreRebuiltOverAUsedDevice) {
  {
    // A first store wears some sectors; then the card is formatted by
    // erasing whatever it left programmed.
    FlashStore first(*flash_, options_);
    Churn(first, /*seed=*/5, /*writes=*/1500, /*span=*/24);
    EXPECT_GT(first.stats().erases.value(), 0u);
  }
  for (uint64_t s = flash_->NextTouchedSector(0); s < flash_->num_sectors();
       s = flash_->NextTouchedSector(s + 1)) {
    if (!flash_->IsSectorErased(s)) {
      ASSERT_TRUE(flash_->EraseSector(s).ok());
    }
  }
  // The rebuilt store opens sectors in the order the linear scan picks over
  // the eager pool: every sector in ascending order at its erase count.
  FlashStore store(*flash_, options_);
  ASSERT_TRUE(store.CheckIndexConsistency().ok());
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> pools(
      static_cast<size_t>(flash_->num_banks()));
  for (uint64_t s = 0; s < flash_->num_sectors(); ++s) {
    pools[static_cast<size_t>(flash_->BankOfSector(s))].emplace_back(
        s, flash_->EraseCount(s));
  }
  // Distinct blocks: nothing dies, so each bank opens its sectors in turn.
  std::vector<int64_t> active(pools.size(), -1);
  for (uint64_t block = 0; block < 64; ++block) {
    ASSERT_TRUE(store.Write(block, Block(7)).ok());
    const uint64_t sector =
        store.PhysicalAddressOf(block).value() / flash_->sector_bytes();
    const size_t bank = static_cast<size_t>(flash_->BankOfSector(sector));
    if (active[bank] != static_cast<int64_t>(sector)) {
      auto& pool = pools[bank];
      EXPECT_EQ(ScanPickFreeSector(pool, GetParam() != WearPolicy::kNone),
                static_cast<int64_t>(sector))
          << "block " << block;
      pool.erase(std::find_if(pool.begin(), pool.end(), [&](const auto& e) {
        return e.first == sector;
      }));
      active[bank] = static_cast<int64_t>(sector);
    }
    ASSERT_TRUE(store.CheckIndexConsistency().ok()) << "block " << block;
  }
  Churn(store, /*seed=*/6, /*writes=*/1200, /*span=*/48);
}

INSTANTIATE_TEST_SUITE_P(WearPolicies, FewSectorsTest,
                         ::testing::Values(WearPolicy::kNone,
                                           WearPolicy::kDynamic,
                                           WearPolicy::kStatic));

// --- Victim-selection policy unit tests ---------------------------------

class VictimPolicyTest : public ::testing::Test {
 protected:
  static SectorMeta Meta(uint32_t valid, uint32_t dead, SimTime last_write,
                         bool active = false, bool free = false,
                         bool bad = false) {
    SectorMeta m;
    m.valid_pages = valid;
    m.dead_pages = dead;
    m.next_free_page = valid + dead;
    m.last_write_time = last_write;
    m.active = active;
    m.free = free;
    m.bad = bad;
    return m;
  }
};

TEST_F(VictimPolicyTest, NoCandidatesReturnsMinusOne) {
  std::vector<SectorMeta> sectors = {
      Meta(4, 0, 0),                         // No dead pages.
      Meta(0, 4, 0, /*active=*/true),        // Active.
      Meta(0, 0, 0, false, /*free=*/true),   // Free.
      Meta(0, 4, 0, false, false, /*bad=*/true),  // Bad.
  };
  EXPECT_EQ(PickCleaningVictim(sectors, 4, CleanerPolicy::kGreedy, 100), -1);
  EXPECT_EQ(PickCleaningVictim(sectors, 4, CleanerPolicy::kCostBenefit, 100),
            -1);
}

TEST_F(VictimPolicyTest, GreedyPicksMostDead) {
  std::vector<SectorMeta> sectors = {
      Meta(3, 1, 0),
      Meta(1, 3, 0),
      Meta(2, 2, 0),
  };
  EXPECT_EQ(PickCleaningVictim(sectors, 4, CleanerPolicy::kGreedy, 100), 1);
}

TEST_F(VictimPolicyTest, CostBenefitPrefersOldWhenUtilizationTies) {
  std::vector<SectorMeta> sectors = {
      Meta(2, 2, /*last_write=*/90),  // Young.
      Meta(2, 2, /*last_write=*/10),  // Old.
  };
  EXPECT_EQ(PickCleaningVictim(sectors, 4, CleanerPolicy::kCostBenefit, 100),
            1);
}

TEST_F(VictimPolicyTest, CostBenefitWeighsAgeAgainstUtilization) {
  // A very old, fairly full sector can beat a young, mostly-dead one:
  // age 1000 * (1-0.75)/(1+0.75) = 142.9 vs age 10 * (1-0.25)/(1+0.25) = 6.
  std::vector<SectorMeta> sectors = {
      Meta(1, 3, /*last_write=*/990),   // Young, mostly dead.
      Meta(3, 1, /*last_write=*/0),     // Old, mostly valid.
  };
  EXPECT_EQ(
      PickCleaningVictim(sectors, 4, CleanerPolicy::kCostBenefit, 1000), 1);
  // Greedy makes the opposite call.
  EXPECT_EQ(PickCleaningVictim(sectors, 4, CleanerPolicy::kGreedy, 1000), 0);
}

}  // namespace
}  // namespace ssmc
