#include "src/vm/address_space.h"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

namespace ssmc {
namespace {

class AddressSpaceTest : public ::testing::Test {
 protected:
  AddressSpaceTest() {
    DramSpec dram_spec;
    dram_spec.read = {80, 25};
    dram_spec.write = {80, 25};
    dram_spec.active_mw_per_mib = 150;
    dram_spec.standby_mw_per_mib = 1.5;
    dram_ = std::make_unique<DramDevice>(dram_spec, 2 * kMiB, clock_);

    FlashSpec flash_spec;
    flash_spec.read = {150, 100};
    flash_spec.program = {2000, 10000};
    flash_spec.erase_sector_bytes = 4096;
    flash_spec.erase_ns = 100 * kMillisecond;
    flash_spec.endurance_cycles = 1000000;
    flash_ = std::make_unique<FlashDevice>(flash_spec, 8 * kMiB, 2, clock_);

    store_ = std::make_unique<FlashStore>(*flash_, FlashStoreOptions{});
    manager_ = std::make_unique<StorageManager>(*dram_, *store_, 512);
    fs_ = std::make_unique<MemoryFileSystem>(*manager_, MemoryFsOptions{});
    space_ = std::make_unique<AddressSpace>(*manager_);
  }

  // Creates a synced file whose blocks all live in flash.
  void MakeFlashFile(const std::string& path, size_t bytes, uint8_t seed) {
    ASSERT_TRUE(fs_->Create(path).ok());
    std::vector<uint8_t> data(bytes);
    for (size_t i = 0; i < bytes; ++i) {
      data[i] = static_cast<uint8_t>(seed + i * 7);
    }
    ASSERT_TRUE(fs_->Write(path, 0, data).ok());
    ASSERT_TRUE(fs_->Sync().ok());
  }

  SimClock clock_;
  std::unique_ptr<DramDevice> dram_;
  std::unique_ptr<FlashDevice> flash_;
  std::unique_ptr<FlashStore> store_;
  std::unique_ptr<StorageManager> manager_;
  std::unique_ptr<MemoryFileSystem> fs_;
  std::unique_ptr<AddressSpace> space_;
};

TEST_F(AddressSpaceTest, AnonymousZeroFillOnFirstTouch) {
  ASSERT_TRUE(space_->MapAnonymous(0x10000, 4096, "heap").ok());
  std::vector<uint8_t> out(100, 0xFF);
  ASSERT_TRUE(space_->Read(0x10000, out).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(100, 0));
  EXPECT_GE(space_->stats().zero_fill_faults.value(), 1u);
  EXPECT_GT(space_->resident_dram_pages(), 0u);
}

TEST_F(AddressSpaceTest, AnonymousWriteReadRoundTrip) {
  ASSERT_TRUE(space_->MapAnonymous(0x10000, 4096, "heap").ok());
  std::vector<uint8_t> data(1000);
  std::iota(data.begin(), data.end(), 0);
  ASSERT_TRUE(space_->Write(0x10000 + 300, data).ok());
  std::vector<uint8_t> out(1000);
  ASSERT_TRUE(space_->Read(0x10000 + 300, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(AddressSpaceTest, UnmappedAccessRejected) {
  std::vector<uint8_t> out(10);
  EXPECT_EQ(space_->Read(0x999000, out).status().code(),
            ErrorCode::kOutOfRange);
}

TEST_F(AddressSpaceTest, OverlappingMapRejected) {
  ASSERT_TRUE(space_->MapAnonymous(0x10000, 8192, "a").ok());
  EXPECT_EQ(space_->MapAnonymous(0x11000, 4096, "b").code(),
            ErrorCode::kAlreadyExists);
}

TEST_F(AddressSpaceTest, FileCowMapsFlashInPlace) {
  MakeFlashFile("/lib", 4096, 3);
  ASSERT_TRUE(space_->MapFileCow(0x20000, *fs_, "/lib", true).ok());
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(space_->Read(0x20000, out).ok());
  // Content matches the file.
  std::vector<uint8_t> expected(512);
  for (size_t i = 0; i < 512; ++i) {
    expected[i] = static_cast<uint8_t>(3 + i * 7);
  }
  EXPECT_EQ(out, expected);
  // No DRAM consumed: the page maps into flash.
  EXPECT_EQ(space_->resident_dram_pages(), 0u);
  EXPECT_GE(space_->stats().flash_map_faults.value(), 1u);
}

// A copy-on-write fault whose DRAM allocation reclaims the very page being
// written (a hardware-migrated DRAM copy, reached through a reclaim
// candidate left from an earlier mapping of the same address): the page
// ends up mapped to the copy, and no frame is freed twice or leaked.
TEST_F(AddressSpaceTest, CowThatReclaimsItsOwnPageKeepsTheCopy) {
  constexpr uint64_t kVa = 0x20000;
  const std::vector<uint8_t> block(512, 0x3C);
  ASSERT_TRUE(fs_->Create("/data").ok());
  ASSERT_TRUE(fs_->Write("/data", 0, block).ok());  // Buffered, not flash.
  std::vector<uint8_t> out(512);
  // A read fault copies the buffered block and leaves a reclaim candidate
  // that outlives the mapping.
  ASSERT_TRUE(space_->MapFileCow(kVa, *fs_, "/data", true).ok());
  ASSERT_TRUE(space_->Read(kVa, out).ok());
  ASSERT_TRUE(space_->Unmap(kVa).ok());
  ASSERT_TRUE(fs_->Sync().ok());

  HwMigrationOptions hw;
  hw.enabled = true;
  hw.epoch_accesses = 8;
  hw.promote_threshold = 2;
  space_->set_hw_migration(hw);
  ASSERT_TRUE(space_->MapFileCow(kVa, *fs_, "/data", true).ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(space_->Read(kVa, out).ok());
  }
  ASSERT_EQ(space_->stats().hw_migrations.value(), 1u);
  ASSERT_EQ(space_->resident_dram_pages(), 1u);
  std::vector<uint64_t> held;
  while (manager_->free_pages(PageTier::kDram) > 0) {
    held.push_back(manager_->AllocatePage(PageTier::kDram).value());
  }

  const std::vector<uint8_t> patch(4, 0x7E);
  ASSERT_TRUE(space_->Write(kVa, patch).ok());
  EXPECT_EQ(space_->stats().reclaimed_pages.value(), 1u);
  EXPECT_EQ(space_->resident_dram_pages(), 1u);
  EXPECT_EQ(manager_->free_pages(PageTier::kDram), 0u);
  ASSERT_TRUE(space_->Read(kVa, out).ok());
  EXPECT_EQ(out[0], 0x7E);
  EXPECT_EQ(out[4], 0x3C);

  ASSERT_TRUE(space_->Unmap(kVa).ok());
  EXPECT_EQ(space_->resident_dram_pages(), 0u);
  EXPECT_EQ(manager_->free_pages(PageTier::kDram), 1u);
  for (const uint64_t page : held) {
    ASSERT_TRUE(manager_->FreePage(PageTier::kDram, page).ok());
  }
}

TEST_F(AddressSpaceTest, CowCopiesOnFirstWrite) {
  MakeFlashFile("/data", 2048, 5);
  ASSERT_TRUE(space_->MapFileCow(0x20000, *fs_, "/data", true).ok());
  // Read first: flash-mapped.
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(space_->Read(0x20000, out).ok());
  EXPECT_EQ(space_->resident_dram_pages(), 0u);
  // Write: page copies to DRAM.
  std::vector<uint8_t> patch(16, 0xEE);
  ASSERT_TRUE(space_->Write(0x20000 + 8, patch).ok());
  EXPECT_EQ(space_->resident_dram_pages(), 1u);
  EXPECT_GE(space_->stats().cow_faults.value(), 1u);
  // Merged content: patch over original.
  ASSERT_TRUE(space_->Read(0x20000, out).ok());
  EXPECT_EQ(out[7], static_cast<uint8_t>(5 + 7 * 7));
  EXPECT_EQ(out[8], 0xEE);
  EXPECT_EQ(out[24], static_cast<uint8_t>(5 + 24 * 7));
  // Other pages remain flash-mapped (no extra DRAM).
  ASSERT_TRUE(space_->Read(0x20000 + 1024, out).ok());
  EXPECT_EQ(space_->resident_dram_pages(), 1u);
}

TEST_F(AddressSpaceTest, CowWritesDoNotChangeTheFile) {
  MakeFlashFile("/orig", 512, 1);
  ASSERT_TRUE(space_->MapFileCow(0x20000, *fs_, "/orig", true).ok());
  std::vector<uint8_t> patch(512, 0xAA);
  ASSERT_TRUE(space_->Write(0x20000, patch).ok());
  // The file's contents are untouched (private mapping).
  std::vector<uint8_t> file_data(512);
  ASSERT_TRUE(fs_->Read("/orig", 0, file_data).ok());
  EXPECT_EQ(file_data[0], static_cast<uint8_t>(1));
}

TEST_F(AddressSpaceTest, WriteToReadOnlyMappingDenied) {
  MakeFlashFile("/ro", 512, 2);
  ASSERT_TRUE(space_->MapFileCow(0x20000, *fs_, "/ro", false).ok());
  std::vector<uint8_t> patch(8, 1);
  EXPECT_EQ(space_->Write(0x20000, patch).status().code(),
            ErrorCode::kPermissionDenied);
  EXPECT_GE(space_->stats().protection_errors.value(), 1u);
}

TEST_F(AddressSpaceTest, XipMappingReadsFromFlash) {
  MakeFlashFile("/app", 4096, 9);
  ASSERT_TRUE(space_->MapXip(0x40000, *fs_, "/app").ok());
  const uint64_t flash_reads_before = flash_->stats().reads.value();
  Result<Duration> fetched = space_->Fetch(0x40000, 512);
  ASSERT_TRUE(fetched.ok());
  EXPECT_GT(flash_->stats().reads.value(), flash_reads_before);
  EXPECT_EQ(space_->resident_dram_pages(), 0u);
}

TEST_F(AddressSpaceTest, BufferedBlocksCopyInsteadOfMap) {
  // File not synced: blocks live in the write buffer, so mapping must copy.
  ASSERT_TRUE(fs_->Create("/dirty").ok());
  std::vector<uint8_t> data(512, 0x77);
  ASSERT_TRUE(fs_->Write("/dirty", 0, data).ok());
  ASSERT_TRUE(space_->MapFileCow(0x20000, *fs_, "/dirty", true).ok());
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(space_->Read(0x20000, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(space_->resident_dram_pages(), 1u);
  EXPECT_EQ(space_->stats().flash_map_faults.value(), 0u);
}

TEST_F(AddressSpaceTest, PopulateCopiesWholeFileToDram) {
  MakeFlashFile("/prog", 8192, 4);
  ASSERT_TRUE(space_->MapFileCow(0x20000, *fs_, "/prog", false).ok());
  Result<Duration> took = space_->Populate(0x20000);
  ASSERT_TRUE(took.ok());
  EXPECT_GT(took.value(), 0);
  EXPECT_EQ(space_->resident_dram_pages(), 8192u / 512);
}

TEST_F(AddressSpaceTest, UnmapFreesDramPages) {
  ASSERT_TRUE(space_->MapAnonymous(0x10000, 4096, "heap").ok());
  std::vector<uint8_t> data(4096, 1);
  ASSERT_TRUE(space_->Write(0x10000, data).ok());
  const uint64_t free_before = manager_->free_pages(PageTier::kDram);
  ASSERT_TRUE(space_->Unmap(0x10000).ok());
  EXPECT_EQ(manager_->free_pages(PageTier::kDram), free_before + 8);
  EXPECT_EQ(space_->resident_dram_pages(), 0u);
  std::vector<uint8_t> out(8);
  EXPECT_FALSE(space_->Read(0x10000, out).ok());
}

TEST_F(AddressSpaceTest, MappingEmptyFileRejected) {
  ASSERT_TRUE(fs_->Create("/empty").ok());
  EXPECT_EQ(space_->MapFileCow(0x20000, *fs_, "/empty", true).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(AddressSpaceTest, DemandCopyFaultsIntoDram) {
  MakeFlashFile("/dp", 2048, 8);
  ASSERT_TRUE(space_->MapFileDemandCopy(0x50000, *fs_, "/dp", false).ok());
  EXPECT_EQ(space_->resident_dram_pages(), 0u);
  std::vector<uint8_t> out(512);
  // First touch copies the block into DRAM (never maps flash in place).
  ASSERT_TRUE(space_->Read(0x50000, out).ok());
  EXPECT_EQ(space_->resident_dram_pages(), 1u);
  EXPECT_EQ(space_->stats().demand_copies.value(), 1u);
  EXPECT_EQ(space_->stats().flash_map_faults.value(), 0u);
  // Content matches.
  std::vector<uint8_t> expected(512);
  for (size_t i = 0; i < 512; ++i) {
    expected[i] = static_cast<uint8_t>(8 + i * 7);
  }
  EXPECT_EQ(out, expected);
  // Second touch is a DRAM hit: no new fault.
  const uint64_t faults = space_->stats().faults.value();
  ASSERT_TRUE(space_->Read(0x50000, out).ok());
  EXPECT_EQ(space_->stats().faults.value(), faults);
}

TEST_F(AddressSpaceTest, CleanPagesReclaimedUnderMemoryPressure) {
  // DRAM has 4096 pages (2 MiB / 512). Consume almost all of it with
  // anonymous pages, then demand-copy a file bigger than what is left:
  // clean file pages must be reclaimed to keep going.
  MakeFlashFile("/big", 64 * 1024, 2);  // 128 pages.
  ASSERT_TRUE(space_->MapFileDemandCopy(0x80000, *fs_, "/big", false).ok());

  const uint64_t total = manager_->total_pages(PageTier::kDram);
  // Leave room for only 32 pages.
  const uint64_t anon_pages = total - 32;
  ASSERT_TRUE(
      space_->MapAnonymous(uint64_t{1} << 40, anon_pages * 512, "hog").ok());
  std::vector<uint8_t> touch(512, 1);
  for (uint64_t p = 0; p < anon_pages; ++p) {
    ASSERT_TRUE(space_->Write((uint64_t{1} << 40) + p * 512, touch).ok());
  }

  // Stream through the whole file: needs 128 page frames but only ~32 are
  // free. Reclamation of clean demand-copied pages must cover the gap.
  std::vector<uint8_t> out(512);
  for (uint64_t off = 0; off < 64 * 1024; off += 512) {
    ASSERT_TRUE(space_->Read(0x80000 + off, out).ok()) << "offset " << off;
  }
  EXPECT_GT(space_->stats().reclaimed_pages.value(), 0u);
  // Anonymous (dirty) pages were never reclaimed: their content survives.
  ASSERT_TRUE(space_->Read(uint64_t{1} << 40, out).ok());
  EXPECT_EQ(out, touch);
}

TEST_F(AddressSpaceTest, ReclaimedPageRefaultsWithSameContent) {
  MakeFlashFile("/refault", 16 * 1024, 4);  // 32 pages.
  ASSERT_TRUE(
      space_->MapFileDemandCopy(0x90000, *fs_, "/refault", false).ok());
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(space_->Read(0x90000, out).ok());
  const std::vector<uint8_t> first = out;

  // Exhaust DRAM so the next faults force reclamation of page 0.
  const uint64_t free_pages = manager_->free_pages(PageTier::kDram);
  ASSERT_TRUE(space_->MapAnonymous(uint64_t{1} << 41,
                                   free_pages * 512, "hog").ok());
  std::vector<uint8_t> touch(512, 9);
  for (uint64_t p = 0; p < free_pages; ++p) {
    ASSERT_TRUE(space_->Write((uint64_t{1} << 41) + p * 512, touch).ok());
  }
  // Touch other file pages: page 0 gets reclaimed eventually...
  for (uint64_t off = 512; off < 16 * 1024; off += 512) {
    ASSERT_TRUE(space_->Read(0x90000 + off, out).ok());
  }
  // ...and re-faults with identical content.
  ASSERT_TRUE(space_->Read(0x90000, out).ok());
  EXPECT_EQ(out, first);
}

TEST_F(AddressSpaceTest, FlashReadsFasterThanNothingButSlowerThanDram) {
  MakeFlashFile("/speed", 512, 6);
  ASSERT_TRUE(space_->MapXip(0x40000, *fs_, "/speed").ok());
  // Fault it in first.
  ASSERT_TRUE(space_->Fetch(0x40000, 1).ok());
  const SimTime t0 = clock_.now();
  ASSERT_TRUE(space_->Fetch(0x40000, 512).ok());
  const Duration flash_fetch = clock_.now() - t0;

  ASSERT_TRUE(space_->MapAnonymous(0x80000, 512, "d").ok());
  std::vector<uint8_t> buf(512, 1);
  ASSERT_TRUE(space_->Write(0x80000, buf).ok());
  const SimTime t1 = clock_.now();
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(space_->Read(0x80000, out).ok());
  const Duration dram_fetch = clock_.now() - t1;
  EXPECT_GT(flash_fetch, dram_fetch);
}

TEST_F(AddressSpaceTest, CowMappingSurvivesCleanerRelocation) {
  // Regression for the flash-map re-resolution contract: the PTE of an
  // in-place CoW mapping stores the *logical* store block, and every access
  // re-resolves the physical flash address through the store's map. If the
  // PTE cached the physical address instead, the cleaner relocating the
  // backing page mid-mapping would leave the mapping reading stale (erased
  // or reused) flash.
  // A deliberately tiny flash (16 sectors of 8 pages) so cleaning pressure
  // is easy to produce. /prog's single block shares its sector with /pad's
  // seven; overwriting /pad leaves that sector 7/8 dead — a prime victim.
  DramSpec dram_spec;
  dram_spec.read = {80, 25};
  dram_spec.write = {80, 25};
  dram_spec.active_mw_per_mib = 150;
  dram_spec.standby_mw_per_mib = 1.5;
  FlashSpec flash_spec;
  flash_spec.read = {150, 100};
  flash_spec.program = {2000, 10000};
  flash_spec.erase_sector_bytes = 4096;
  flash_spec.erase_ns = 100 * kMillisecond;
  flash_spec.endurance_cycles = 1000000;
  SimClock clock;
  DramDevice dram(dram_spec, 256 * 1024, clock);
  FlashDevice flash(flash_spec, 64 * 1024, 1, clock);
  FlashStore store(flash, FlashStoreOptions{});
  StorageManager manager(dram, store, 512);
  MemoryFileSystem fs(manager, MemoryFsOptions{});
  AddressSpace space(manager);

  std::vector<uint8_t> expect(512);
  for (size_t i = 0; i < expect.size(); ++i) {
    expect[i] = static_cast<uint8_t>(42 + i * 7);
  }
  ASSERT_TRUE(fs.Create("/prog").ok());
  ASSERT_TRUE(fs.Write("/prog", 0, expect).ok());
  ASSERT_TRUE(fs.Create("/pad").ok());
  std::vector<uint8_t> pad(7 * 512, 0x33);
  ASSERT_TRUE(fs.Write("/pad", 0, pad).ok());
  ASSERT_TRUE(fs.Sync().ok());

  const uint64_t va = 0x400000;
  ASSERT_TRUE(space.MapFileCow(va, fs, "/prog", true).ok());
  std::vector<uint8_t> out(expect.size());
  ASSERT_TRUE(space.Read(va, out).ok());
  EXPECT_EQ(out, expect);
  ASSERT_GE(space.stats().flash_map_faults.value(), 1u);

  // Note where the mapped block physically lives right now.
  Result<std::vector<BlockLocation>> locations = fs.BlockLocations("/prog");
  ASSERT_TRUE(locations.ok());
  ASSERT_EQ(locations.value()[0].kind, BlockLocation::Kind::kFlash);
  const uint64_t logical = locations.value()[0].flash_block;
  Result<uint64_t> phys_before = store.PhysicalAddressOf(logical);
  ASSERT_TRUE(phys_before.ok());

  // Deaden /prog's sector-mates, then churn the log until the cleaner moves
  // the mapped block to a different physical page.
  for (auto& b : pad) {
    b = 0x44;
  }
  ASSERT_TRUE(fs.Write("/pad", 0, pad).ok());
  ASSERT_TRUE(fs.Sync().ok());
  ASSERT_TRUE(fs.Create("/churn").ok());
  std::vector<uint8_t> junk(16 * 512);
  bool relocated = false;
  for (int round = 0; round < 100 && !relocated; ++round) {
    for (size_t i = 0; i < junk.size(); ++i) {
      junk[i] = static_cast<uint8_t>(round + i * 3);
    }
    ASSERT_TRUE(fs.Write("/churn", 0, junk).ok());
    ASSERT_TRUE(fs.Sync().ok());
    ASSERT_TRUE(store.Clean().ok());
    Result<uint64_t> phys_now = store.PhysicalAddressOf(logical);
    ASSERT_TRUE(phys_now.ok());
    relocated = phys_now.value() != phys_before.value();
  }
  ASSERT_TRUE(relocated) << "cleaner never relocated the mapped block";
  EXPECT_GT(store.stats().gc_relocations.value(), 0u);

  // No new fault: the mapping is still present, and reads re-resolve to the
  // block's new home with the original content.
  const uint64_t faults_before = space.stats().faults.value();
  ASSERT_TRUE(space.Read(va, out).ok());
  EXPECT_EQ(out, expect);
  EXPECT_EQ(space.stats().faults.value(), faults_before);

  // A write fault CoW-copies the relocated bytes, not stale ones.
  const std::vector<uint8_t> patch = {0xDE, 0xAD};
  ASSERT_TRUE(space.Write(va + 5, patch).ok());
  EXPECT_GE(space.stats().cow_faults.value(), 1u);
  expect[5] = 0xDE;
  expect[6] = 0xAD;
  ASSERT_TRUE(space.Read(va, out).ok());
  EXPECT_EQ(out, expect);
}

}  // namespace
}  // namespace ssmc
