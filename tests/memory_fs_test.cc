// MemoryFileSystem-specific behavior: write buffering, copy-on-write from
// flash, direct flash reads, write avoidance, and block-location reporting.

#include "src/fs/memory_fs.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/journal/journal.h"

namespace ssmc {
namespace {

class MemoryFsTest : public ::testing::Test {
 protected:
  void SetUp() override { Recreate(MemoryFsOptions{}); }

  void Recreate(MemoryFsOptions options, uint64_t flash_bytes = 8 * kMiB) {
    // Tear down in reverse dependency order before rebuilding: the file
    // system detaches from the storage manager's residency tracker in its
    // destructor, so it must not outlive the manager it references.
    fs_.reset();
    manager_.reset();
    store_.reset();
    flash_.reset();
    dram_.reset();
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
    flash_ = std::make_unique<FlashDevice>(flash_spec, flash_bytes, 2, clock_);

    store_ = std::make_unique<FlashStore>(*flash_, FlashStoreOptions{});
    manager_ = std::make_unique<StorageManager>(*dram_, *store_, 512);
    fs_ = std::make_unique<MemoryFileSystem>(*manager_, options);
  }

  std::vector<uint8_t> Pattern(size_t n, uint8_t seed = 1) {
    std::vector<uint8_t> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = static_cast<uint8_t>(seed + i * 13);
    }
    return v;
  }

  // Appends `chunk`-byte writes to `path` until one fails or the file
  // reaches `limit` bytes; returns the size the acked appends reached.
  uint64_t AppendUntilFailure(const std::string& path, uint64_t chunk,
                              uint64_t limit) {
    uint64_t size = 0;
    while (size < limit && fs_->Write(path, size, Pattern(chunk)).ok()) {
      size += chunk;
    }
    return size;
  }

  SimClock clock_;
  std::unique_ptr<DramDevice> dram_;
  std::unique_ptr<FlashDevice> flash_;
  std::unique_ptr<FlashStore> store_;
  std::unique_ptr<StorageManager> manager_;
  std::unique_ptr<MemoryFileSystem> fs_;
};

TEST_F(MemoryFsTest, WritesStayInDramUntilSync) {
  ASSERT_TRUE(fs_->Create("/f").ok());
  ASSERT_TRUE(fs_->Write("/f", 0, Pattern(2048)).ok());
  EXPECT_EQ(store_->stats().user_writes.value(), 0u);
  EXPECT_EQ(fs_->write_buffer().dirty_pages(), 4u);
  ASSERT_TRUE(fs_->Sync().ok());
  EXPECT_EQ(store_->stats().user_writes.value(), 4u);
  EXPECT_EQ(fs_->write_buffer().dirty_pages(), 0u);
}

TEST_F(MemoryFsTest, ShortLivedFileNeverTouchesFlash) {
  // The core write-avoidance effect: create, write, delete before any flush.
  ASSERT_TRUE(fs_->Create("/tmp1").ok());
  ASSERT_TRUE(fs_->Write("/tmp1", 0, Pattern(4096)).ok());
  ASSERT_TRUE(fs_->Unlink("/tmp1").ok());
  ASSERT_TRUE(fs_->Sync().ok());
  EXPECT_EQ(store_->stats().user_writes.value(), 0u);
  EXPECT_EQ(flash_->stats().programs.value(), 0u);
  EXPECT_GE(fs_->write_buffer().stats().dropped_writes.value(), 8u);
}

TEST_F(MemoryFsTest, CleanReadsComeDirectlyFromFlash) {
  ASSERT_TRUE(fs_->Create("/f").ok());
  const auto data = Pattern(1024);
  ASSERT_TRUE(fs_->Write("/f", 0, data).ok());
  ASSERT_TRUE(fs_->Sync().ok());
  std::vector<uint8_t> out(1024);
  ASSERT_TRUE(fs_->Read("/f", 0, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(fs_->stats().flash_direct_read_bytes.value(), 1024u);
  EXPECT_EQ(fs_->stats().buffered_read_bytes.value(), 0u);
}

TEST_F(MemoryFsTest, DirtyReadsComeFromBuffer) {
  ASSERT_TRUE(fs_->Create("/f").ok());
  ASSERT_TRUE(fs_->Write("/f", 0, Pattern(512)).ok());
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(fs_->Read("/f", 0, out).ok());
  EXPECT_EQ(fs_->stats().buffered_read_bytes.value(), 512u);
  EXPECT_EQ(fs_->stats().flash_direct_read_bytes.value(), 0u);
}

TEST_F(MemoryFsTest, PartialReadFromFlashIsByteGranular) {
  ASSERT_TRUE(fs_->Create("/f").ok());
  ASSERT_TRUE(fs_->Write("/f", 0, Pattern(512)).ok());
  ASSERT_TRUE(fs_->Sync().ok());
  const uint64_t bytes_before = flash_->stats().read_bytes.value();
  std::vector<uint8_t> out(10);
  ASSERT_TRUE(fs_->Read("/f", 100, out).ok());
  // Only ~10 bytes crossed the flash interface, not a whole block.
  EXPECT_LE(flash_->stats().read_bytes.value() - bytes_before, 16u);
}

TEST_F(MemoryFsTest, PartialOverwriteOfFlashBlockDoesCow) {
  ASSERT_TRUE(fs_->Create("/f").ok());
  ASSERT_TRUE(fs_->Write("/f", 0, Pattern(512)).ok());
  ASSERT_TRUE(fs_->Sync().ok());
  // Small write into the flushed block triggers a flash->DRAM copy.
  ASSERT_TRUE(fs_->Write("/f", 100, Pattern(10, 0xEE)).ok());
  EXPECT_EQ(fs_->stats().cow_block_copies.value(), 1u);
  // Contents merge old and new.
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(fs_->Read("/f", 0, out).ok());
  const auto original = Pattern(512);
  EXPECT_EQ(out[99], original[99]);
  EXPECT_EQ(out[100], Pattern(10, 0xEE)[0]);
  EXPECT_EQ(out[110], original[110]);
}

TEST_F(MemoryFsTest, FullBlockOverwriteSkipsCow) {
  ASSERT_TRUE(fs_->Create("/f").ok());
  ASSERT_TRUE(fs_->Write("/f", 0, Pattern(512)).ok());
  ASSERT_TRUE(fs_->Sync().ok());
  ASSERT_TRUE(fs_->Write("/f", 0, Pattern(512, 3)).ok());
  EXPECT_EQ(fs_->stats().cow_block_copies.value(), 0u);
}

TEST_F(MemoryFsTest, TickFlushHonorsAge) {
  MemoryFsOptions options;
  options.flush_age = 30 * kSecond;
  Recreate(options);
  ASSERT_TRUE(fs_->Create("/f").ok());
  ASSERT_TRUE(fs_->Write("/f", 0, Pattern(512)).ok());
  clock_.Advance(10 * kSecond);
  ASSERT_TRUE(fs_->TickFlush(clock_.now()).ok());
  EXPECT_EQ(store_->stats().user_writes.value(), 0u);  // Still young.
  clock_.Advance(25 * kSecond);
  ASSERT_TRUE(fs_->TickFlush(clock_.now()).ok());
  EXPECT_EQ(store_->stats().user_writes.value(), 1u);  // Aged out.
}

TEST_F(MemoryFsTest, UnbufferedModeWritesThrough) {
  MemoryFsOptions options;
  options.write_buffer_pages = 0;
  Recreate(options);
  ASSERT_TRUE(fs_->Create("/f").ok());
  ASSERT_TRUE(fs_->Write("/f", 0, Pattern(1024)).ok());
  EXPECT_EQ(store_->stats().user_writes.value(), 2u);
}

TEST_F(MemoryFsTest, OverwriteChurnAbsorbedByBuffer) {
  ASSERT_TRUE(fs_->Create("/f").ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(fs_->Write("/f", 0, Pattern(512, static_cast<uint8_t>(i))).ok());
  }
  ASSERT_TRUE(fs_->Sync().ok());
  // 50 writes, 1 flash program.
  EXPECT_EQ(store_->stats().user_writes.value(), 1u);
}

TEST_F(MemoryFsTest, BlockLocationsReportPlacement) {
  ASSERT_TRUE(fs_->Create("/f").ok());
  ASSERT_TRUE(fs_->Write("/f", 0, Pattern(512)).ok());     // Block 0 dirty.
  ASSERT_TRUE(fs_->Write("/f", 1024, Pattern(512)).ok());  // Block 2 dirty.
  ASSERT_TRUE(fs_->Sync().ok());
  ASSERT_TRUE(fs_->Write("/f", 0, Pattern(512, 5)).ok());  // Block 0 re-dirty.
  Result<std::vector<BlockLocation>> locs = fs_->BlockLocations("/f");
  ASSERT_TRUE(locs.ok());
  ASSERT_EQ(locs.value().size(), 3u);
  EXPECT_EQ(locs.value()[0].kind, BlockLocation::Kind::kBuffered);
  EXPECT_EQ(locs.value()[1].kind, BlockLocation::Kind::kHole);
  EXPECT_EQ(locs.value()[2].kind, BlockLocation::Kind::kFlash);
}

TEST_F(MemoryFsTest, FileIdStableAcrossWrites) {
  ASSERT_TRUE(fs_->Create("/f").ok());
  Result<uint64_t> id1 = fs_->FileId("/f");
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(fs_->Write("/f", 0, Pattern(512)).ok());
  Result<uint64_t> id2 = fs_->FileId("/f");
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(id1.value(), id2.value());
  EXPECT_EQ(fs_->FileId("/missing").status().code(), ErrorCode::kNotFound);
}

TEST_F(MemoryFsTest, LoseBufferedDataDropsDirtyOnly) {
  ASSERT_TRUE(fs_->Create("/f").ok());
  ASSERT_TRUE(fs_->Write("/f", 0, Pattern(1024)).ok());  // 2 dirty blocks.
  ASSERT_TRUE(fs_->Sync().ok());
  ASSERT_TRUE(fs_->Write("/f", 0, Pattern(512, 9)).ok());  // 1 dirty block.
  const uint64_t lost = fs_->LoseBufferedData();
  EXPECT_EQ(lost, 512u);
  // The flash copy (previous content) of the second block still reads back.
  const auto original = Pattern(1024);
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(fs_->Read("/f", 512, out).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(original.begin() + 512, original.end()));
  // The first block's dirty overwrite was lost; its flash copy (the original
  // first block) is what survives.
  ASSERT_TRUE(fs_->Read("/f", 0, out).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(original.begin(), original.begin() + 512));
}

// Regression: a multi-block append that fails partway (flash full) had
// staged blocks past the file's old end. Unlink releases only blocks below
// the size, so those outlived their inode and every later Sync failed with
// "flush for unlinked inode".
TEST_F(MemoryFsTest, FailedAppendLeavesNothingBufferedPastEof) {
  MemoryFsOptions options;
  options.write_buffer_pages = 8;
  Recreate(options, 1 * kMiB);
  ASSERT_TRUE(fs_->Create("/fill").ok());
  const uint64_t size = AppendUntilFailure("/fill", 4096, 2 * kMiB);
  ASSERT_LT(size, 2 * kMiB) << "the card never filled";
  // The failed append staged some of its blocks before running out.
  EXPECT_GT(fs_->write_buffer().stats().puts.value(), size / 512);
  Result<FileInfo> info = fs_->Stat("/fill");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().size, size);

  ASSERT_TRUE(fs_->Unlink("/fill").ok());
  ASSERT_TRUE(fs_->Sync().ok());
  EXPECT_EQ(fs_->write_buffer().dirty_pages(), 0u);
  // The freed card takes new data again.
  ASSERT_TRUE(fs_->Create("/g").ok());
  ASSERT_TRUE(fs_->Write("/g", 0, Pattern(4096)).ok());
  ASSERT_TRUE(fs_->Sync().ok());
}

// The same wedge with the journal on, where the append fails for DRAM
// rather than flash: the rollback journals the old size, then releases.
TEST_F(MemoryFsTest, FailedAppendUnderJournalLeavesNothingBufferedPastEof) {
  fs_.reset();
  manager_ = std::make_unique<StorageManager>(*dram_, *store_, 512);
  MetadataJournal journal(*manager_);
  ASSERT_TRUE(journal.Format().ok());
  MemoryFsOptions options;
  options.write_buffer_pages = 1 << 20;  // Larger than the 2 MiB of DRAM.
  options.journal = &journal;
  fs_ = std::make_unique<MemoryFileSystem>(*manager_, options);

  ASSERT_TRUE(fs_->Create("/fill").ok());
  // Six blocks per append, so the last one runs out partway.
  const uint64_t size = AppendUntilFailure("/fill", 3072, 4 * kMiB);
  ASSERT_LT(size, 4 * kMiB) << "DRAM never filled";
  EXPECT_GT(fs_->write_buffer().stats().puts.value(), size / 512);
  Result<FileInfo> info = fs_->Stat("/fill");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().size, size);

  ASSERT_TRUE(fs_->Unlink("/fill").ok());
  ASSERT_TRUE(fs_->Sync().ok());
  EXPECT_EQ(fs_->write_buffer().dirty_pages(), 0u);
  fs_.reset();  // Before the journal it points at.
}

TEST_F(MemoryFsTest, MetadataOpsCostDramTimeOnly) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  ASSERT_TRUE(fs_->Create("/d/f").ok());
  const SimTime before = clock_.now();
  ASSERT_TRUE(fs_->Stat("/d/f").ok());
  const Duration stat_cost = clock_.now() - before;
  // A stat is a couple of DRAM accesses: well under a microsecond, and no
  // flash or disk I/O.
  EXPECT_LT(stat_cost, 10 * kMicrosecond);
  EXPECT_EQ(flash_->stats().reads.value(), 0u);
}

// --- Metadata checkpointing & crash recovery -----------------------------

class MemoryFsCheckpointTest : public MemoryFsTest {
 protected:
  // Simulates total battery failure + reboot: drops the buffer, builds a
  // fresh storage manager over the surviving flash, recovers.
  Result<std::unique_ptr<MemoryFileSystem>> CrashAndRecover(
      RecoveryReport* report) {
    fs_->LoseBufferedData();
    fs_.reset();  // DRAM-resident metadata is gone.
    manager_ = std::make_unique<StorageManager>(*dram_, *store_, 512);
    return MemoryFileSystem::RecoverFromCheckpoint(*manager_,
                                                   MemoryFsOptions{}, report);
  }
};

TEST_F(MemoryFsCheckpointTest, RecoverRestoresNamespaceAndData) {
  ASSERT_TRUE(fs_->Mkdir("/docs").ok());
  ASSERT_TRUE(fs_->Mkdir("/docs/work").ok());
  ASSERT_TRUE(fs_->Create("/docs/work/report").ok());
  const auto data = Pattern(3000, 7);
  ASSERT_TRUE(fs_->Write("/docs/work/report", 0, data).ok());
  ASSERT_TRUE(fs_->Sync().ok());
  ASSERT_TRUE(fs_->CheckpointMetadata().ok());

  RecoveryReport report;
  auto recovered = CrashAndRecover(&report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(report.directories_recovered, 2u);
  EXPECT_EQ(report.files_recovered, 1u);
  EXPECT_GE(report.bytes_recovered, 3000u);

  Result<FileInfo> info = recovered.value()->Stat("/docs/work/report");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().size, 3000u);
  std::vector<uint8_t> out(3000);
  Result<uint64_t> read = recovered.value()->Read("/docs/work/report", 0, out);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(out, data);
}

TEST_F(MemoryFsCheckpointTest, RecoveryWithoutCheckpointFails) {
  ASSERT_TRUE(fs_->Create("/f").ok());
  ASSERT_TRUE(fs_->Sync().ok());
  RecoveryReport report;
  auto recovered = CrashAndRecover(&report);
  EXPECT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(MemoryFsCheckpointTest, DataAfterCheckpointIsLost) {
  ASSERT_TRUE(fs_->Create("/old").ok());
  ASSERT_TRUE(fs_->Write("/old", 0, Pattern(512)).ok());
  ASSERT_TRUE(fs_->Sync().ok());
  ASSERT_TRUE(fs_->CheckpointMetadata().ok());
  // Created after the checkpoint: not in the recovered namespace.
  ASSERT_TRUE(fs_->Create("/new").ok());
  ASSERT_TRUE(fs_->Write("/new", 0, Pattern(512)).ok());
  ASSERT_TRUE(fs_->Sync().ok());

  RecoveryReport report;
  auto recovered = CrashAndRecover(&report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered.value()->Stat("/old").ok());
  EXPECT_EQ(recovered.value()->Stat("/new").status().code(),
            ErrorCode::kNotFound);
}

TEST_F(MemoryFsCheckpointTest, UnflushedBlocksRecoverAsHoles) {
  ASSERT_TRUE(fs_->Create("/f").ok());
  ASSERT_TRUE(fs_->Write("/f", 0, Pattern(1024, 0xAA)).ok());
  // Checkpoint while the data is still only in the (battery-backed) buffer.
  ASSERT_TRUE(fs_->CheckpointMetadata().ok());
  RecoveryReport report;
  auto recovered = CrashAndRecover(&report);
  ASSERT_TRUE(recovered.ok());
  // The file exists with its size, but the never-flushed content is gone.
  Result<FileInfo> info = recovered.value()->Stat("/f");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().size, 1024u);
  std::vector<uint8_t> out(1024);
  Result<uint64_t> read = recovered.value()->Read("/f", 0, out);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(out, std::vector<uint8_t>(1024, 0));
  EXPECT_EQ(report.bytes_recovered, 0u);
}

TEST_F(MemoryFsCheckpointTest, BlocksFreedAfterCheckpointRecoverAsHoles) {
  ASSERT_TRUE(fs_->Create("/f").ok());
  ASSERT_TRUE(fs_->Write("/f", 0, Pattern(512, 0x33)).ok());
  ASSERT_TRUE(fs_->Sync().ok());
  ASSERT_TRUE(fs_->CheckpointMetadata().ok());
  ASSERT_TRUE(fs_->Unlink("/f").ok());  // Frees (trims) the flash block.

  RecoveryReport report;
  auto recovered = CrashAndRecover(&report);
  ASSERT_TRUE(recovered.ok());
  // The stale namespace resurrects the file, but its trimmed block must
  // read as a hole, never as someone else's data.
  std::vector<uint8_t> out(512);
  Result<uint64_t> read = recovered.value()->Read("/f", 0, out);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(out, std::vector<uint8_t>(512, 0));
}

TEST_F(MemoryFsCheckpointTest, RepeatedCheckpointsDoNotLeakFlash) {
  ASSERT_TRUE(fs_->Create("/f").ok());
  ASSERT_TRUE(fs_->Write("/f", 0, Pattern(4096)).ok());
  ASSERT_TRUE(fs_->Sync().ok());
  ASSERT_TRUE(fs_->CheckpointMetadata().ok());
  const uint64_t free_after_first = manager_->free_flash_blocks();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fs_->CheckpointMetadata().ok());
  }
  // Each checkpoint replaces the previous one's blocks.
  EXPECT_EQ(manager_->free_flash_blocks(), free_after_first);
}

TEST_F(MemoryFsCheckpointTest, LargeNamespaceSurvivesRoundTrip) {
  // Enough files that the checkpoint index must chain past one block.
  for (int d = 0; d < 4; ++d) {
    const std::string dir = "/d" + std::to_string(d);
    ASSERT_TRUE(fs_->Mkdir(dir).ok());
    for (int f = 0; f < 60; ++f) {
      const std::string path = dir + "/f" + std::to_string(f);
      ASSERT_TRUE(fs_->Create(path).ok());
      ASSERT_TRUE(
          fs_->Write(path, 0, Pattern(700, static_cast<uint8_t>(f))).ok());
    }
  }
  ASSERT_TRUE(fs_->Sync().ok());
  ASSERT_TRUE(fs_->CheckpointMetadata().ok());

  RecoveryReport report;
  auto recovered = CrashAndRecover(&report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(report.files_recovered, 240u);
  EXPECT_EQ(report.directories_recovered, 4u);
  std::vector<uint8_t> out(700);
  ASSERT_TRUE(recovered.value()->Read("/d2/f33", 0, out).ok());
  EXPECT_EQ(out, Pattern(700, 33));
}

TEST_F(MemoryFsTest, DeepHierarchyWorks) {
  std::string path;
  for (int i = 0; i < 10; ++i) {
    path += "/d" + std::to_string(i);
    ASSERT_TRUE(fs_->Mkdir(path).ok());
  }
  ASSERT_TRUE(fs_->Create(path + "/leaf").ok());
  ASSERT_TRUE(fs_->Write(path + "/leaf", 0, Pattern(100)).ok());
  Result<FileInfo> info = fs_->Stat(path + "/leaf");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().size, 100u);
}

}  // namespace
}  // namespace ssmc
