// E16 N-tier hierarchy tests: the NVM cache tier inside ResidencyManager
// (flash -> NVM admission, NVM -> DRAM climb, DRAM -> NVM demotion under
// pressure), hardware-managed page migration in AddressSpace (including
// survival across FTL cleaner relocation of the backing sectors), the
// machine-level trace attribution of reads to tiers, and the Ju et al.
// analytical oracle in tier_model.h.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/core/machine.h"
#include "src/storage/residency.h"
#include "src/storage/tier_model.h"
#include "src/support/rng.h"
#include "src/trace/generator.h"
#include "src/vm/address_space.h"
#include "tests/block_slots.h"

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
  spec.name = "test nvm";
  spec.read = {60, 20};
  spec.write = {120, 40};
  spec.endurance_writes = 1000000;
  return spec;
}

ResidencyOptions ReadPromoteOptions() {
  ResidencyOptions options;
  options.policy = ResidencyPolicy::kReadPromote;
  return options;
}

// 128-page DRAM pool, a 32-page NVM device, one-bank flash store.
class NvmTierTest : public ::testing::Test {
 protected:
  explicit NvmTierTest(ResidencyOptions options = ReadPromoteOptions(),
                       uint64_t nvm_bytes = 32 * 512)
      : dram_(TestDramSpec(), 64 * 1024, clock_),
        nvm_(TestNvmSpec(), nvm_bytes, 1, clock_),
        flash_(TestFlashSpec(), 256 * 1024, 1, clock_),
        store_(flash_, {}),
        manager_(dram_, store_, 512, options, &nvm_) {}

  ResidencyManager& res() { return manager_.residency(); }

  std::vector<uint8_t> Page(uint8_t fill) {
    return std::vector<uint8_t>(512, fill);
  }

  void SeedFlashBlock(uint64_t block, uint8_t fill) {
    ASSERT_TRUE(store_.Write(block, Page(fill)).ok());
  }

  SimClock clock_;
  DramDevice dram_;
  NvmDevice nvm_;
  FlashDevice flash_;
  FlashStore store_;
  StorageManager manager_;
  BlockSlots slot{manager_.residency()};
};

TEST_F(NvmTierTest, FirstFlashReadAdmitsIntoNvmTier) {
  const BlockKey key{4, 2};
  SeedFlashBlock(9, 0x5C);

  // With an NVM tier the bottom-tier admission threshold (1.0) applies:
  // the very first flash read admits the block — into NVM, not DRAM.
  res().OnFlashRead(slot(key), 9, clock_.now());
  EXPECT_TRUE(res().NvmCached(slot(key)));
  EXPECT_FALSE(res().CleanCached(slot(key)));
  EXPECT_EQ(res().Resolve(slot(key), 9), Residency::kNvm);
  EXPECT_EQ(res().stats().nvm_promotions.value(), 1u);
  EXPECT_EQ(res().stats().nvm_promoted_bytes.value(), 512u);
  EXPECT_EQ(res().stats().promotions.value(), 0u);
  EXPECT_EQ(res().nvm_pages(), 1u);
  // The install charged an NVM device write of one page.
  EXPECT_EQ(nvm_.stats().written_bytes.value(), 512u);

  // The cached copy reads back byte-identical through the NVM device.
  auto out = Page(0);
  ASSERT_TRUE(res().ReadCached(slot(key), 0, out).ok());
  EXPECT_EQ(out, Page(0x5C));
  EXPECT_EQ(res().stats().nvm_hits.value(), 1u);
  EXPECT_EQ(res().stats().nvm_hit_bytes.value(), 512u);
  EXPECT_GT(nvm_.stats().read_bytes.value(), 0u);

  // Partial reads honor offsets; out-of-bounds and misses are rejected.
  std::vector<uint8_t> tail(12);
  ASSERT_TRUE(res().ReadCached(slot(key), 500, tail).ok());
  EXPECT_EQ(tail, std::vector<uint8_t>(12, 0x5C));
  std::vector<uint8_t> over(13);
  EXPECT_EQ(res().ReadCached(slot(key), 500, over).code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(res().ReadCached(slot(BlockKey{9, 9}), 0, out).code(),
            ErrorCode::kNotFound);
}

TEST_F(NvmTierTest, HotNvmBlockClimbsIntoDram) {
  const BlockKey key{4, 2};
  SeedFlashBlock(9, 0x5C);
  res().OnFlashRead(slot(key), 9, clock_.now());  // Heat 1.0: admitted to NVM.
  ASSERT_TRUE(res().NvmCached(slot(key)));

  // The next read's touch crosses the DRAM threshold (2.0): the block moves
  // one tier up and its NVM page returns to the pool.
  res().TouchRead(slot(key), clock_.now());
  EXPECT_TRUE(res().CleanCached(slot(key)));
  EXPECT_FALSE(res().NvmCached(slot(key)));
  EXPECT_EQ(res().Resolve(slot(key), 9), Residency::kClean);
  EXPECT_EQ(res().stats().nvm_to_dram_promotions.value(), 1u);
  EXPECT_EQ(res().stats().promotions.value(), 1u);
  EXPECT_EQ(manager_.free_pages(PageTier::kNvm),
            manager_.total_pages(PageTier::kNvm));

  auto out = Page(0);
  ASSERT_TRUE(res().ReadCached(slot(key), 0, out).ok());
  EXPECT_EQ(out, Page(0x5C));
}

// Admission into NVM whose flash read fails hands the NVM page back.
TEST_F(NvmTierTest, FailedAdmissionReadReturnsTheNvmPage) {
  const BlockKey key{4, 2};
  SeedFlashBlock(9, 0x5C);
  const Result<uint64_t> addr = store_.PhysicalAddressOf(9);
  ASSERT_TRUE(addr.ok());
  flash_.InjectReadFaults(addr.value() / flash_.sector_bytes(), 1000);
  res().OnFlashRead(slot(key), 9, clock_.now());
  EXPECT_EQ(res().Resolve(slot(key), 9), Residency::kFlash);
  EXPECT_EQ(res().stats().nvm_promotions.value(), 0u);
  EXPECT_EQ(manager_.free_pages(PageTier::kNvm),
            manager_.total_pages(PageTier::kNvm));
  EXPECT_EQ(manager_.free_pages(PageTier::kDram),
            manager_.total_pages(PageTier::kDram));
  EXPECT_TRUE(res().CheckInvariants().ok());
}

// A climb out of NVM with the DRAM pool dry and nothing in the DRAM tier to
// recycle: the block stays warm in NVM, holding its one NVM page.
TEST_F(NvmTierTest, ClimbWithDramDryStaysInNvm) {
  const BlockKey key{4, 2};
  SeedFlashBlock(9, 0x5C);
  res().OnFlashRead(slot(key), 9, clock_.now());  // Admitted to NVM.
  ASSERT_TRUE(res().NvmCached(slot(key)));
  while (manager_.free_pages(PageTier::kDram) > 0) {
    ASSERT_TRUE(manager_.AllocatePage(PageTier::kDram).ok());
  }
  const uint64_t free_nvm = manager_.free_pages(PageTier::kNvm);
  res().TouchRead(slot(key), clock_.now());  // Heat 2.0: would climb.
  EXPECT_TRUE(res().NvmCached(slot(key)));
  EXPECT_EQ(res().clean_pages(), 0u);
  EXPECT_EQ(res().stats().nvm_to_dram_promotions.value(), 0u);
  EXPECT_EQ(manager_.free_pages(PageTier::kNvm), free_nvm);
  EXPECT_EQ(manager_.free_pages(PageTier::kDram), 0u);
  EXPECT_TRUE(res().CheckInvariants().ok());
  auto out = Page(0);
  ASSERT_TRUE(res().ReadCached(slot(key), 0, out).ok());
  EXPECT_EQ(out, Page(0x5C));
}

TEST_F(NvmTierTest, InvalidationCoversEveryTier) {
  SeedFlashBlock(0, 0xAA);
  SeedFlashBlock(1, 0xBB);
  const BlockKey in_nvm{1, 0};
  const BlockKey in_dram{1, 1};
  res().OnFlashRead(slot(in_nvm), 0, clock_.now());
  res().OnFlashRead(slot(in_dram), 1, clock_.now());
  res().TouchRead(slot(in_dram), clock_.now());
  ASSERT_TRUE(res().NvmCached(slot(in_nvm)));
  ASSERT_TRUE(res().CleanCached(slot(in_dram)));

  res().InvalidateClean(slot(in_nvm));
  EXPECT_FALSE(res().NvmCached(slot(in_nvm)));
  EXPECT_EQ(res().stats().demotions_invalidated.value(), 1u);
  EXPECT_EQ(manager_.free_pages(PageTier::kNvm),
            manager_.total_pages(PageTier::kNvm));

  res().InvalidateAllClean();
  EXPECT_FALSE(res().CleanCached(slot(in_dram)));
  EXPECT_EQ(res().clean_pages() + res().nvm_pages(), 0u);
}

TEST_F(NvmTierTest, TiersSnapshotReportsCapacityAndOccupancy) {
  auto tiers = res().Tiers();
  ASSERT_EQ(tiers.size(), 2u);
  EXPECT_EQ(tiers[0].residency, Residency::kClean);
  EXPECT_EQ(tiers[0].capacity_pages, 64u);  // 128 DRAM pages * 0.5.
  EXPECT_EQ(tiers[1].residency, Residency::kNvm);
  EXPECT_EQ(tiers[1].capacity_pages, 32u);
  EXPECT_EQ(tiers[0].cached_pages + tiers[1].cached_pages, 0u);

  SeedFlashBlock(0, 0xAA);
  res().OnFlashRead(slot(BlockKey{1, 0}), 0, clock_.now());
  tiers = res().Tiers();
  EXPECT_EQ(tiers[1].cached_pages, 1u);
}

// A file system destroyed on its own, over a storage manager that lives on
// (crash recovery and the tests do this), hands back everything it held:
// dirty pages and their slots, clean-cache pages in DRAM and NVM, heat, and
// the payload extents of its buffered blocks.
TEST_F(NvmTierTest, FileSystemDestroyedAloneReturnsEveryPageSlotAndExtent) {
  const std::vector<uint8_t> data(3 * 512, 0x3C);
  std::vector<uint8_t> out(data.size());
  size_t flushed_extents = 0;
  {
    MemoryFsOptions options;
    options.write_buffer_pages = 16;
    MemoryFileSystem fs(manager_, options);
    ASSERT_TRUE(fs.Create("/warm").ok());
    ASSERT_TRUE(fs.Create("/hot").ok());
    ASSERT_TRUE(fs.Write("/warm", 0, data).ok());
    ASSERT_TRUE(fs.Write("/hot", 0, data).ok());
    ASSERT_TRUE(fs.Sync().ok());
    // Flash now holds both files; the extents beyond these are the
    // buffered blocks' own.
    flushed_extents = store_.extent_pool().live();
    // One read admits /warm's blocks into NVM; a second climbs /hot's into
    // the DRAM clean cache.
    ASSERT_TRUE(fs.Read("/warm", 0, out).ok());
    ASSERT_TRUE(fs.Read("/hot", 0, out).ok());
    ASSERT_TRUE(fs.Read("/hot", 0, out).ok());
    ASSERT_TRUE(fs.Create("/dirty").ok());
    ASSERT_TRUE(fs.Write("/dirty", 0, data).ok());

    ASSERT_EQ(fs.write_buffer().dirty_pages(), 3u);
    ASSERT_EQ(res().nvm_pages(), 3u);
    ASSERT_EQ(res().clean_pages(), 3u);
    ASSERT_GT(res().heat_entries(), 0u);
    ASSERT_GT(store_.extent_pool().live(), flushed_extents);
    ASSERT_TRUE(res().CheckInvariants().ok());
  }
  EXPECT_EQ(manager_.free_pages(PageTier::kDram),
            manager_.total_pages(PageTier::kDram));
  EXPECT_EQ(manager_.free_pages(PageTier::kNvm),
            manager_.total_pages(PageTier::kNvm));
  EXPECT_EQ(res().blocks().live_slots(), 0u);
  EXPECT_EQ(res().heat_entries(), 0u);
  EXPECT_EQ(store_.extent_pool().live(), flushed_extents);
  EXPECT_TRUE(res().CheckInvariants().ok());
}

class NvmTinyTierTest : public NvmTierTest {
 protected:
  static ResidencyOptions TinyOptions() {
    ResidencyOptions options = ReadPromoteOptions();
    // 128 DRAM pages * 2/128 = two DRAM slots over two NVM slots.
    options.max_clean_fraction = 2.0 / 128.0;
    return options;
  }
  NvmTinyTierTest() : NvmTierTest(TinyOptions(), /*nvm_bytes=*/2 * 512) {}
};

TEST_F(NvmTinyTierTest, DramTailDemotesIntoNvmAndNvmTailDrops) {
  for (uint64_t b = 0; b < 4; ++b) {
    SeedFlashBlock(b, static_cast<uint8_t>(0xA0 + b));
  }
  // Admit from flash into NVM, then climb to DRAM on the second touch.
  auto climb = [&](uint64_t b) {
    res().OnFlashRead(slot(BlockKey{1, b}), b, clock_.now());
    res().TouchRead(slot(BlockKey{1, b}), clock_.now());
  };

  climb(0);
  climb(1);  // DRAM = {0, 1}, NVM empty.
  EXPECT_EQ(res().clean_pages(), 2u);
  EXPECT_EQ(res().nvm_pages(), 0u);

  // The third climb squeezes the DRAM tier: its LRU tail (block 0) falls
  // one tier, into NVM — not out of the hierarchy.
  climb(2);  // DRAM = {1, 2}, NVM = {0}.
  EXPECT_EQ(res().stats().demotions_to_nvm.value(), 1u);
  EXPECT_TRUE(res().NvmCached(slot(BlockKey{1, 0})));
  EXPECT_TRUE(res().CleanCached(slot(BlockKey{1, 1})));
  EXPECT_TRUE(res().CleanCached(slot(BlockKey{1, 2})));

  // The fourth climb cascades: DRAM tail (1) demotes into a full NVM tier,
  // whose own LRU tail (0) drops — flash stays authoritative for it.
  climb(3);  // DRAM = {2, 3}, NVM = {1}.
  EXPECT_EQ(res().stats().demotions_to_nvm.value(), 2u);
  EXPECT_EQ(res().Resolve(slot(BlockKey{1, 0}), 0), Residency::kFlash);
  EXPECT_TRUE(res().NvmCached(slot(BlockKey{1, 1})));
  EXPECT_TRUE(res().CleanCached(slot(BlockKey{1, 2})));
  EXPECT_TRUE(res().CleanCached(slot(BlockKey{1, 3})));
  EXPECT_LE(res().clean_pages(), 2u);
  EXPECT_LE(res().nvm_pages(), 2u);

  // Every survivor still reads back its own bytes from its current tier.
  auto out = Page(0);
  ASSERT_TRUE(res().ReadCached(slot(BlockKey{1, 1}), 0, out).ok());
  EXPECT_EQ(out, Page(0xA1));
  ASSERT_TRUE(res().ReadCached(slot(BlockKey{1, 2}), 0, out).ok());
  EXPECT_EQ(out, Page(0xA2));
  ASSERT_TRUE(res().ReadCached(slot(BlockKey{1, 3}), 0, out).ok());
  EXPECT_EQ(out, Page(0xA3));
}

class NvmOnePageTierTest : public NvmTierTest {
 protected:
  static ResidencyOptions OnePageOptions() {
    ResidencyOptions options = ReadPromoteOptions();
    options.max_clean_fraction = 1.0 / 128.0;  // One DRAM cache page.
    return options;
  }
  NvmOnePageTierTest() : NvmTierTest(OnePageOptions(), /*nvm_bytes=*/512) {}
};

TEST_F(NvmOnePageTierTest, ClimbThatEvictsItselfFromNvmStaysInFlash) {
  SeedFlashBlock(0, 0xA0);
  SeedFlashBlock(1, 0xA1);
  const BlockKey a{1, 0};
  const BlockKey b{1, 1};
  res().OnFlashRead(slot(a), 0, clock_.now());
  res().TouchRead(slot(a), clock_.now());  // DRAM = {a}, NVM empty.
  ASSERT_TRUE(res().CleanCached(slot(a)));
  res().OnFlashRead(slot(b), 1, clock_.now());  // NVM = {b}.
  ASSERT_TRUE(res().NvmCached(slot(b)));
  // b's climb needs the DRAM page: a demotes into the full NVM tier, whose
  // tail is b itself. b drops to flash and the climb is abandoned.
  res().TouchRead(slot(b), clock_.now());
  EXPECT_EQ(res().Resolve(slot(b), 1), Residency::kFlash);
  EXPECT_TRUE(res().NvmCached(slot(a)));
  EXPECT_EQ(res().clean_pages(), 0u);
  EXPECT_EQ(manager_.free_pages(PageTier::kDram),
            manager_.total_pages(PageTier::kDram));
  EXPECT_TRUE(res().CheckInvariants().ok());
}

class NvmDisabledPolicyTest : public NvmTierTest {
 protected:
  NvmDisabledPolicyTest() : NvmTierTest(ResidencyOptions{}) {}
};

TEST_F(NvmDisabledPolicyTest, WriteBufferOnlyNeverFillsNvm) {
  // The tier exists (the machine has NVM), but the baseline policy migrates
  // nothing — byte-identical two-tier behavior with the device idle.
  ASSERT_TRUE(res().has_nvm_tier());
  SeedFlashBlock(0, 0xAA);
  for (int i = 0; i < 10; ++i) {
    res().OnFlashRead(slot(BlockKey{1, 0}), 0, clock_.now());
  }
  EXPECT_EQ(res().nvm_pages(), 0u);
  EXPECT_EQ(res().stats().nvm_promotions.value(), 0u);
  EXPECT_EQ(nvm_.stats().written_bytes.value(), 0u);
}

// --- Hardware-managed migration (OS- vs hardware-managed, E16) ------------

TEST(HwMigrationTest, HotFlashPagesMigrateToNvmAndSurviveCleanerRelocation) {
  MachineConfig config;
  config.dram_bytes = 2 * kMiB;
  // A small store with small sectors so overwrite churn forces the cleaner
  // to relocate live sectors within the test's budget.
  config.flash_spec = GenericPaperFlash();
  config.flash_spec.erase_sector_bytes = 8 * kKiB;
  config.flash_spec.erase_ns = 50 * kMillisecond;
  config.flash_bytes = 2 * kMiB;
  config.flash_banks = 2;
  config.nvm_bytes = 64 * 512;
  config.hw_migration.enabled = true;
  config.hw_migration.epoch_accesses = 16;
  config.hw_migration.promote_threshold = 2;
  MobileComputer machine(config);

  MemoryFileSystem& fs = machine.fs();
  std::vector<uint8_t> prog(32 * 512);
  for (size_t i = 0; i < prog.size(); ++i) {
    prog[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  ASSERT_TRUE(fs.Create("/prog").ok());
  ASSERT_TRUE(fs.Write("/prog", 0, prog).ok());
  ASSERT_TRUE(fs.Sync().ok());
  // Most of the card is live data, so churn can't just spread into free
  // sectors forever.
  constexpr uint64_t kFillBlocks = 2048;  // 1 MiB.
  // Byte model of /fill, checked against the store after the churn below.
  std::vector<uint8_t> fill_model(kFillBlocks * 512, 0x11);
  ASSERT_TRUE(fs.Create("/fill").ok());
  {
    std::vector<uint8_t> fill(512, 0x11);
    for (uint64_t b = 0; b < kFillBlocks; ++b) {
      ASSERT_TRUE(fs.Write("/fill", b * 512, fill).ok());
      if (b % 256 == 255) {
        ASSERT_TRUE(fs.Sync().ok());
      }
    }
    ASSERT_TRUE(fs.Sync().ok());
  }

  AddressSpace& space = machine.CreateAddressSpace();
  const uint64_t base = 8 * kMiB;
  ASSERT_TRUE(space.MapFileCow(base, fs, "/prog", /*writable=*/true).ok());
  const uint64_t total_nvm = machine.storage().free_pages(PageTier::kNvm);

  // Touch every page once (mappings established), then hammer four hot
  // pages until the access-counter epoch fires and migrates them.
  std::vector<uint8_t> out(512);
  for (uint64_t p = 0; p < 32; ++p) {
    ASSERT_TRUE(space.Read(base + p * 512, out).ok());
  }
  for (int round = 0; round < 8; ++round) {
    for (uint64_t p = 0; p < 4; ++p) {
      ASSERT_TRUE(space.Read(base + p * 512, out).ok());
    }
  }
  EXPECT_GT(space.stats().hw_epochs.value(), 0u);
  ASSERT_GE(space.stats().hw_migrations.value(), 4u);
  EXPECT_GE(space.resident_nvm_pages(), 4u);
  EXPECT_LT(machine.storage().free_pages(PageTier::kNvm), total_nvm);

  // Migrated pages are served from NVM: correct bytes, no flash traffic,
  // no new faults.
  const uint64_t faults = space.stats().faults.value();
  const uint64_t flash_reads = machine.flash().stats().read_bytes.value();
  for (uint64_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(space.Read(base + p * 512, out).ok());
    EXPECT_EQ(out, std::vector<uint8_t>(prog.begin() + p * 512,
                                        prog.begin() + (p + 1) * 512));
  }
  EXPECT_EQ(space.stats().faults.value(), faults);
  EXPECT_EQ(machine.flash().stats().read_bytes.value(), flash_reads);

  // Overwrite random /fill blocks until the FTL cleaner relocates live
  // sectors — including, possibly, /prog's backing blocks.
  Rng rng(99);
  std::vector<uint8_t> blk(512);
  for (int round = 0;
       machine.flash_store().stats().gc_relocations.value() == 0 && round < 200;
       ++round) {
    for (int b = 0; b < 128; ++b) {
      for (auto& byte : blk) {
        byte = static_cast<uint8_t>(rng.Next());
      }
      const uint64_t off = rng.NextBelow(kFillBlocks) * 512;
      ASSERT_TRUE(fs.Write("/fill", off, blk).ok());
      std::copy(blk.begin(), blk.end(), fill_model.begin() + off);
    }
    ASSERT_TRUE(fs.Sync().ok());
  }
  ASSERT_GT(machine.flash_store().stats().gc_relocations.value(), 0u);

  // The mapping survived the cleaner: every page — NVM-migrated and
  // flash-mapped alike — still reads its original bytes with no refault.
  for (uint64_t p = 0; p < 32; ++p) {
    ASSERT_TRUE(space.Read(base + p * 512, out).ok());
    ASSERT_EQ(out, std::vector<uint8_t>(prog.begin() + p * 512,
                                        prog.begin() + (p + 1) * 512))
        << "page " << p << " diverged after cleaner relocation";
  }
  EXPECT_EQ(space.stats().faults.value(), faults);
  std::vector<uint8_t> fill_back(fill_model.size());
  ASSERT_TRUE(fs.Read("/fill", 0, fill_back).ok());
  EXPECT_EQ(fill_back, fill_model) << "/fill diverged after cleaner relocation";

  // A write to a migrated page takes the normal CoW path to DRAM and frees
  // its NVM page (hardware-migrated pages stay read-only).
  const uint64_t nvm_resident = space.resident_nvm_pages();
  std::vector<uint8_t> edit(16, 0xEE);
  ASSERT_TRUE(space.Write(base, edit).ok());
  EXPECT_EQ(space.resident_nvm_pages(), nvm_resident - 1);
  ASSERT_TRUE(space.Read(base, out).ok());
  EXPECT_EQ(std::vector<uint8_t>(out.begin(), out.begin() + 16), edit);
  EXPECT_EQ(std::vector<uint8_t>(out.begin() + 16, out.end()),
            std::vector<uint8_t>(prog.begin() + 16, prog.begin() + 512));

  // Unmapping balances every allocation: all NVM pages return to the pool.
  ASSERT_TRUE(space.Unmap(base).ok());
  EXPECT_EQ(space.resident_nvm_pages(), 0u);
  EXPECT_EQ(machine.storage().free_pages(PageTier::kNvm), total_nvm);
}

TEST(HwMigrationTest, FallsBackToDramWithoutNvm) {
  MachineConfig config;
  config.dram_bytes = 2 * kMiB;
  config.flash_bytes = 4 * kMiB;
  config.nvm_bytes = 0;  // No NVM device at all.
  config.hw_migration.enabled = true;
  config.hw_migration.epoch_accesses = 8;
  config.hw_migration.promote_threshold = 2;
  MobileComputer machine(config);

  MemoryFileSystem& fs = machine.fs();
  std::vector<uint8_t> prog(8 * 512, 0x3C);
  ASSERT_TRUE(fs.Create("/prog").ok());
  ASSERT_TRUE(fs.Write("/prog", 0, prog).ok());
  ASSERT_TRUE(fs.Sync().ok());

  AddressSpace& space = machine.CreateAddressSpace();
  ASSERT_TRUE(space.MapFileCow(4 * kMiB, fs, "/prog", false).ok());
  std::vector<uint8_t> out(512);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(space.Read(4 * kMiB, out).ok());
  }
  EXPECT_GT(space.stats().hw_migrations.value(), 0u);
  EXPECT_EQ(space.resident_nvm_pages(), 0u);
  EXPECT_GT(space.resident_dram_pages(), 0u);
  EXPECT_EQ(out, std::vector<uint8_t>(512, 0x3C));
}

TEST(HwMigrationTest, WriteToDramMigratedPageReleasesTheOldFrame) {
  MachineConfig config;
  config.dram_bytes = 2 * kMiB;
  config.flash_bytes = 4 * kMiB;
  config.nvm_bytes = 0;
  config.hw_migration.enabled = true;
  config.hw_migration.epoch_accesses = 8;
  config.hw_migration.promote_threshold = 2;
  MobileComputer machine(config);

  MemoryFileSystem& fs = machine.fs();
  ASSERT_TRUE(fs.Create("/data").ok());
  ASSERT_TRUE(fs.Write("/data", 0, std::vector<uint8_t>(512, 0x3C)).ok());
  ASSERT_TRUE(fs.Sync().ok());
  StorageManager& storage = machine.storage();
  const uint64_t free_before = storage.free_pages(PageTier::kDram);

  AddressSpace& space = machine.CreateAddressSpace();
  ASSERT_TRUE(space.MapFileCow(4 * kMiB, fs, "/data", true).ok());
  std::vector<uint8_t> out(512);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(space.Read(4 * kMiB, out).ok());
  }
  ASSERT_EQ(space.stats().hw_migrations.value(), 1u);
  ASSERT_EQ(space.resident_dram_pages(), 1u);

  // The copy-on-write fault moves the page to a fresh DRAM frame and frees
  // the migrated one: still one resident page.
  const std::vector<uint8_t> patch(4, 0x7E);
  ASSERT_TRUE(space.Write(4 * kMiB, patch).ok());
  EXPECT_EQ(space.resident_dram_pages(), 1u);
  EXPECT_EQ(storage.free_pages(PageTier::kDram), free_before - 1);
  ASSERT_TRUE(space.Read(4 * kMiB, out).ok());
  EXPECT_EQ(out[0], 0x7E);
  EXPECT_EQ(out[4], 0x3C);

  ASSERT_TRUE(space.Unmap(4 * kMiB).ok());
  EXPECT_EQ(space.resident_dram_pages(), 0u);
  EXPECT_EQ(storage.free_pages(PageTier::kDram), free_before);
}

// --- Machine-level trace attribution --------------------------------------

TEST(MachineNvmTest, RunTraceAttributesReadBytesToTiers) {
  // The E12 cell shape: a small write buffer and a minutes-long read-heavy
  // trace, so the flush daemon pushes blocks to flash and reads come back
  // through the cache tiers.
  MachineConfig config;
  config.dram_bytes = 2 * kMiB;
  config.flash_spec = GenericPaperFlash();
  config.flash_spec.erase_sector_bytes = 8 * kKiB;
  config.flash_spec.erase_ns = 50 * kMillisecond;
  config.flash_bytes = 16 * kMiB;
  config.flash_banks = 2;
  config.fs_options.write_buffer_pages = 256;
  config.nvm_bytes = 1 * kMiB;
  config.residency.policy = ResidencyPolicy::kReadPromote;
  MobileComputer machine(config);

  WorkloadOptions options = ReadMostlyWorkload();
  options.seed = 1212;
  options.duration = 3 * kMinute;
  options.mean_interarrival = 15 * kMillisecond;
  options.max_file_bytes = 64 * 1024;
  const Trace trace = WorkloadGenerator(options).Generate();
  ReplayReport report = machine.RunTrace(trace);
  EXPECT_EQ(report.failures, 0u);

  // The office workload re-reads files: some reads land in DRAM (buffer or
  // clean cache), some in the NVM tier, and a cold remainder goes to flash.
  EXPECT_GT(report.tier_dram_read_bytes, 0u);
  EXPECT_GT(report.tier_nvm_read_bytes, 0u);
  EXPECT_GT(report.tier_flash_read_bytes, 0u);

  // Merge folds the tier counters like every other report field.
  ReplayReport merged;
  merged.Merge(report);
  merged.Merge(report);
  EXPECT_EQ(merged.tier_nvm_read_bytes, 2 * report.tier_nvm_read_bytes);
  EXPECT_EQ(merged.tier_dram_read_bytes, 2 * report.tier_dram_read_bytes);
  EXPECT_EQ(merged.tier_flash_read_bytes, 2 * report.tier_flash_read_bytes);
}

// --- Analytical oracle (tier_model.h) -------------------------------------

TEST(TierModelTest, ZipfPopularityIsNormalizedAndDecreasing) {
  const auto p = ZipfPopularity(1000, 1.0);
  ASSERT_EQ(p.size(), 1000u);
  double sum = 0;
  for (size_t i = 0; i < p.size(); ++i) {
    sum += p[i];
    if (i > 0) {
      EXPECT_LE(p[i], p[i - 1]);
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // s = 0 is uniform.
  const auto u = ZipfPopularity(10, 0.0);
  EXPECT_DOUBLE_EQ(u[0], u[9]);
}

TEST(TierModelTest, CheTimeSolvesTheFixedPoint) {
  const auto p = ZipfPopularity(1000, 1.0);
  const double T = CheCharacteristicTime(p, 100);
  ASSERT_GT(T, 0.0);
  double filled = 0;
  for (double pi : p) {
    filled += 1.0 - std::exp(-pi * T);
  }
  EXPECT_NEAR(filled, 100.0, 1e-6);
}

TEST(TierModelTest, HitRateIsMonotoneAndClamped) {
  const auto p = ZipfPopularity(500, 0.8);
  EXPECT_DOUBLE_EQ(LruHitRate(p, 0), 0.0);
  EXPECT_DOUBLE_EQ(LruHitRate(p, 500), 1.0);
  double prev = 0;
  for (double slots : {10.0, 50.0, 100.0, 250.0, 499.0}) {
    const double rate = LruHitRate(p, slots);
    EXPECT_GT(rate, prev);
    EXPECT_LT(rate, 1.0);
    prev = rate;
  }
}

TEST(TierModelTest, UniformPopularityHitsAtCacheFraction) {
  // With p_i = 1/n every Che term equals C/n, so the hit rate is exactly
  // the cache fraction.
  const auto p = ZipfPopularity(100, 0.0);
  EXPECT_NEAR(LruHitRate(p, 25), 0.25, 1e-9);
  EXPECT_NEAR(LruHitRate(p, 80), 0.80, 1e-9);
}

TEST(TierModelTest, ExclusiveLadderSharesAddUp) {
  const auto p = ZipfPopularity(4096, 1.0);
  const TieredHitRates r = TieredLruHitRates(p, 64, 256);
  EXPECT_DOUBLE_EQ(r.dram, LruHitRate(p, 64));
  EXPECT_DOUBLE_EQ(r.combined, LruHitRate(p, 64 + 256));
  EXPECT_NEAR(r.dram + r.nvm, r.combined, 1e-12);
  EXPECT_GT(r.nvm, 0.0);
  // More NVM never hurts the combined rate.
  EXPECT_GE(TieredLruHitRates(p, 64, 512).combined, r.combined);
}

}  // namespace
}  // namespace ssmc
