// Model-based property tests for the flash store, swept across the full
// policy cross-product (cleaner x wear leveling x bank count x segregation).
// Whatever the internal relocation traffic does, a logical block must always
// read back the last value written, trimmed blocks must stay gone, and the
// store's accounting invariants must hold.
//
// Every config audits the store with CheckIndexConsistency() after every
// operation: each indexed pick (cleaning victim, each bank's next free
// sector, cold eviction, wear min/max/coldest) is compared against its
// retained linear-scan reference — the differential proof that the indexed
// hot paths reproduce the scans' choices bit for bit. The store re-indexes
// sectors lazily (it settles pending sectors only when an index is
// queried), and an every-op audit settles after every op. So each storm
// also runs audited only every 17th op: between audits the pending lists
// span cleaner passes, erases, and wear migrations, and only the store's own
// queries settle them.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "src/ftl/flash_store.h"
#include "src/support/rng.h"

namespace ssmc {
namespace {

struct StoreConfig {
  CleanerPolicy cleaner;
  WearPolicy wear;
  int banks;
  int hot_banks;
};

std::string ConfigName(const StoreConfig& config) {
  std::string name;
  name += config.cleaner == CleanerPolicy::kGreedy ? "Greedy" : "CostBenefit";
  switch (config.wear) {
    case WearPolicy::kNone:
      name += "NoWear";
      break;
    case WearPolicy::kDynamic:
      name += "Dynamic";
      break;
    case WearPolicy::kStatic:
      name += "Static";
      break;
  }
  name += "Banks" + std::to_string(config.banks);
  if (config.hot_banks > 0) {
    name += "Hot" + std::to_string(config.hot_banks);
  }
  return name;
}

class FlashStorePropertyTest : public ::testing::TestWithParam<StoreConfig> {
 protected:
  void SetUp() override {
    const StoreConfig& config = GetParam();
    FlashSpec spec;
    spec.read = {100, 10};
    spec.program = {1000, 100};
    spec.erase_sector_bytes = 2048;  // 4 pages.
    spec.erase_ns = kMillisecond;
    spec.endurance_cycles = 100000000;
    flash_ = std::make_unique<FlashDevice>(spec, 256 * 1024, config.banks,
                                           clock_, /*seed=*/9);
    FlashStoreOptions options;
    options.cleaner = config.cleaner;
    options.wear = config.wear;
    options.hot_bank_count = config.hot_banks;
    options.static_wear_check_interval = 16;
    options.static_wear_delta = 8;
    options.cold_eviction_age = kSecond;
    store_ = std::make_unique<FlashStore>(*flash_, options);
  }

  std::vector<uint8_t> BlockValue(uint64_t block, uint32_t version) {
    std::vector<uint8_t> data(512);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>(block * 31 + version * 7 + i);
    }
    return data;
  }

  void RandomOpsReadBackLastWrite(int audit_every);
  void FrozenClockDecisions(int audit_every);

  SimClock clock_;
  std::unique_ptr<FlashDevice> flash_;
  std::unique_ptr<FlashStore> store_;
};

// Audits after every `audit_every`-th op, and once more at the end.
void FlashStorePropertyTest::RandomOpsReadBackLastWrite(int audit_every) {
  Rng rng(1234);
  // block -> version written, absent = unmapped.
  std::map<uint64_t, uint32_t> model;
  uint32_t version = 0;

  const uint64_t blocks = store_->num_blocks();
  for (int i = 0; i < 6000; ++i) {
    const uint64_t block = rng.NextBelow(blocks);
    const double u = rng.NextDouble();
    if (u < 0.55) {
      ++version;
      ASSERT_TRUE(store_->Write(block, BlockValue(block, version)).ok())
          << "op " << i;
      model[block] = version;
    } else if (u < 0.65) {
      ASSERT_TRUE(store_->Trim(block).ok());
      model.erase(block);
    } else {
      std::vector<uint8_t> out(512);
      Result<Duration> read = store_->Read(block, out);
      auto it = model.find(block);
      if (it == model.end()) {
        EXPECT_FALSE(read.ok()) << "op " << i << " block " << block;
      } else {
        ASSERT_TRUE(read.ok()) << "op " << i << " block " << block << ": "
                               << read.status().ToString();
        EXPECT_EQ(out, BlockValue(block, it->second))
            << "op " << i << " block " << block;
      }
    }
    clock_.Advance(kMillisecond);
    if ((i + 1) % audit_every == 0) {
      const Status audit = store_->CheckIndexConsistency();
      ASSERT_TRUE(audit.ok()) << "op " << i << ": " << audit.ToString();
    }
  }
  const Status audit = store_->CheckIndexConsistency();
  ASSERT_TRUE(audit.ok()) << "after the storm: " << audit.ToString();

  // Invariants after the storm.
  EXPECT_GE(store_->WriteAmplification(), 1.0);
  uint64_t valid_pages = 0;
  for (uint64_t s = 0; s < flash_->num_sectors(); ++s) {
    const SectorMeta& m = store_->sector_meta(s);
    valid_pages += m.valid_pages;
    EXPECT_LE(m.valid_pages + m.dead_pages, 4u) << "sector " << s;
    EXPECT_LE(m.next_free_page, 4u) << "sector " << s;
  }
  EXPECT_EQ(valid_pages, model.size());

  // Full final read-back.
  std::vector<uint8_t> out(512);
  for (const auto& [block, v] : model) {
    ASSERT_TRUE(store_->Read(block, out).ok()) << "block " << block;
    EXPECT_EQ(out, BlockValue(block, v)) << "block " << block;
  }
}

TEST_P(FlashStorePropertyTest, RandomOpsAlwaysReadBackLastWrite) {
  RandomOpsReadBackLastWrite(/*audit_every=*/1);
}

TEST_P(FlashStorePropertyTest, RandomOpsAuditedEvery17thOp) {
  RandomOpsReadBackLastWrite(/*audit_every=*/17);
}

// background_writes keeps the caller's clock frozen through the storm, so
// whole cost-benefit buckets tie on the age clamp max(1, now - t) and the
// cold-eviction cutoff sits exactly at age zero — the hardest tie-breaking
// cases for the indexed pickers. Audits as RandomOpsReadBackLastWrite does.
void FlashStorePropertyTest::FrozenClockDecisions(int audit_every) {
  const StoreConfig& config = GetParam();
  FlashStoreOptions options;
  options.cleaner = config.cleaner;
  options.wear = config.wear;
  options.hot_bank_count = config.hot_banks;
  options.static_wear_check_interval = 16;
  options.static_wear_delta = 8;
  options.cold_eviction_age = 0;
  options.background_writes = true;
  FlashStore store(*flash_, options);

  Rng rng(4321);
  const uint64_t blocks = store.num_blocks();
  const std::vector<uint8_t> data(512, 0xA5);
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(store.Write(rng.NextBelow(blocks), data).ok()) << "op " << i;
    if ((i + 1) % audit_every == 0) {
      const Status audit = store.CheckIndexConsistency();
      ASSERT_TRUE(audit.ok()) << "op " << i << ": " << audit.ToString();
    }
  }
  const Status audit = store.CheckIndexConsistency();
  ASSERT_TRUE(audit.ok()) << "after the storm: " << audit.ToString();
}

TEST_P(FlashStorePropertyTest, FrozenClockDecisionsMatchOracles) {
  FrozenClockDecisions(/*audit_every=*/1);
}

TEST_P(FlashStorePropertyTest, FrozenClockDecisionsAuditedEvery17thOp) {
  FrozenClockDecisions(/*audit_every=*/17);
}

TEST_P(FlashStorePropertyTest, PartialReadsMatchFullReads) {
  Rng rng(77);
  const uint64_t blocks = std::min<uint64_t>(store_->num_blocks(), 64);
  for (uint64_t b = 0; b < blocks; ++b) {
    ASSERT_TRUE(
        store_->Write(b, BlockValue(b, static_cast<uint32_t>(b))).ok());
  }
  for (int i = 0; i < 500; ++i) {
    const uint64_t block = rng.NextBelow(blocks);
    const uint64_t offset = rng.NextBelow(512);
    const uint64_t len = 1 + rng.NextBelow(512 - offset);
    std::vector<uint8_t> partial(len);
    ASSERT_TRUE(store_->ReadPartial(block, offset, partial).ok());
    const std::vector<uint8_t> full =
        BlockValue(block, static_cast<uint32_t>(block));
    EXPECT_TRUE(std::equal(partial.begin(), partial.end(),
                           full.begin() + static_cast<ptrdiff_t>(offset)))
        << "block " << block << " offset " << offset;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicySweep, FlashStorePropertyTest,
    ::testing::Values(
        StoreConfig{CleanerPolicy::kGreedy, WearPolicy::kNone, 1, 0},
        StoreConfig{CleanerPolicy::kGreedy, WearPolicy::kDynamic, 2, 0},
        StoreConfig{CleanerPolicy::kGreedy, WearPolicy::kStatic, 4, 0},
        StoreConfig{CleanerPolicy::kCostBenefit, WearPolicy::kNone, 2, 0},
        StoreConfig{CleanerPolicy::kCostBenefit, WearPolicy::kDynamic, 1, 0},
        StoreConfig{CleanerPolicy::kCostBenefit, WearPolicy::kStatic, 8, 0},
        StoreConfig{CleanerPolicy::kCostBenefit, WearPolicy::kDynamic, 4, 1},
        StoreConfig{CleanerPolicy::kGreedy, WearPolicy::kDynamic, 8, 2},
        StoreConfig{CleanerPolicy::kCostBenefit, WearPolicy::kStatic, 4, 2}),
    [](const ::testing::TestParamInfo<StoreConfig>& info) {
      return ConfigName(info.param);
    });

}  // namespace
}  // namespace ssmc
