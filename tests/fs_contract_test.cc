// Contract tests run identically against both file systems: the paper's
// MemoryFileSystem and the conventional DiskFileSystem baseline. Any
// behavioral divergence between the two is a bug in one of them — the
// E3 comparison is only meaningful if they agree on semantics.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "src/device/disk_device.h"
#include "src/device/dram_device.h"
#include "src/device/flash_device.h"
#include "src/fs/disk_fs.h"
#include "src/fs/file_system.h"
#include "src/fs/log_fs.h"
#include "src/fs/memory_fs.h"
#include "src/ftl/flash_store.h"
#include "src/storage/storage_manager.h"

namespace ssmc {
namespace {

// Owns the devices and one file system under test.
class FsHarness {
 public:
  virtual ~FsHarness() = default;
  virtual FileSystem& fs() = 0;
  SimClock clock;
};

class MemoryFsHarness : public FsHarness {
 public:
  MemoryFsHarness() {
    DramSpec dram_spec;
    dram_spec.read = {80, 25};
    dram_spec.write = {80, 25};
    dram_spec.active_mw_per_mib = 150;
    dram_spec.standby_mw_per_mib = 1.5;
    dram_ = std::make_unique<DramDevice>(dram_spec, 2 * kMiB, clock);

    FlashSpec flash_spec;
    flash_spec.read = {150, 100};
    flash_spec.program = {2000, 10000};
    flash_spec.erase_sector_bytes = 4096;
    flash_spec.erase_ns = 100 * kMillisecond;
    flash_spec.endurance_cycles = 1000000;
    flash_ = std::make_unique<FlashDevice>(flash_spec, 8 * kMiB, 2, clock);

    store_ = std::make_unique<FlashStore>(*flash_, FlashStoreOptions{});
    manager_ = std::make_unique<StorageManager>(*dram_, *store_, 512);
    fs_ = std::make_unique<MemoryFileSystem>(*manager_, MemoryFsOptions{});
  }
  FileSystem& fs() override { return *fs_; }

 private:
  std::unique_ptr<DramDevice> dram_;
  std::unique_ptr<FlashDevice> flash_;
  std::unique_ptr<FlashStore> store_;
  std::unique_ptr<StorageManager> manager_;
  std::unique_ptr<MemoryFileSystem> fs_;
};

class DiskFsHarness : public FsHarness {
 public:
  DiskFsHarness() {
    DiskSpec spec;
    spec.sector_bytes = 512;
    spec.sectors_per_track = 32;
    spec.cylinders = 1024;  // 16 MiB.
    spec.min_seek_ns = 2 * kMillisecond;
    spec.avg_seek_ns = 12 * kMillisecond;
    spec.max_seek_ns = 25 * kMillisecond;
    spec.rotation_ns = 11 * kMillisecond;
    spec.transfer_mib_per_s = 1.0;
    spec.spin_up_ns = kSecond;
    spec.active_mw = 1500;
    spec.idle_mw = 700;
    spec.standby_mw = 15;
    disk_ = std::make_unique<DiskDevice>(spec, clock);
    disk_->set_spin_down_after(0);
    fs_ = std::make_unique<DiskFileSystem>(*disk_, DiskFsOptions{});
  }
  FileSystem& fs() override { return *fs_; }

 private:
  std::unique_ptr<DiskDevice> disk_;
  std::unique_ptr<DiskFileSystem> fs_;
};

class LogFsHarness : public FsHarness {
 public:
  LogFsHarness() {
    DiskSpec spec;
    spec.sector_bytes = 512;
    spec.sectors_per_track = 32;
    spec.cylinders = 1024;  // 16 MiB.
    spec.min_seek_ns = 2 * kMillisecond;
    spec.avg_seek_ns = 12 * kMillisecond;
    spec.max_seek_ns = 25 * kMillisecond;
    spec.rotation_ns = 11 * kMillisecond;
    spec.transfer_mib_per_s = 1.0;
    spec.spin_up_ns = kSecond;
    spec.active_mw = 1500;
    spec.idle_mw = 700;
    spec.standby_mw = 15;
    disk_ = std::make_unique<DiskDevice>(spec, clock);
    disk_->set_spin_down_after(0);
    fs_ = std::make_unique<LogFileSystem>(*disk_, LogFsOptions{});
  }
  FileSystem& fs() override { return *fs_; }

 private:
  std::unique_ptr<DiskDevice> disk_;
  std::unique_ptr<LogFileSystem> fs_;
};

enum class FsKind { kMemory, kDisk, kLog };

class FsContractTest : public ::testing::TestWithParam<FsKind> {
 protected:
  void SetUp() override {
    switch (GetParam()) {
      case FsKind::kMemory:
        harness_ = std::make_unique<MemoryFsHarness>();
        break;
      case FsKind::kDisk:
        harness_ = std::make_unique<DiskFsHarness>();
        break;
      case FsKind::kLog:
        harness_ = std::make_unique<LogFsHarness>();
        break;
    }
  }
  FileSystem& fs() { return harness_->fs(); }

  std::vector<uint8_t> Pattern(size_t n, uint8_t seed = 1) {
    std::vector<uint8_t> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = static_cast<uint8_t>(seed + i * 13);
    }
    return v;
  }

  std::unique_ptr<FsHarness> harness_;
};

TEST_P(FsContractTest, CreateStatEmptyFile) {
  ASSERT_TRUE(fs().Create("/f").ok());
  Result<FileInfo> info = fs().Stat("/f");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().size, 0u);
  EXPECT_FALSE(info.value().is_directory);
}

TEST_P(FsContractTest, CreateDuplicateFails) {
  ASSERT_TRUE(fs().Create("/f").ok());
  EXPECT_EQ(fs().Create("/f").code(), ErrorCode::kAlreadyExists);
}

TEST_P(FsContractTest, CreateWithoutParentFails) {
  EXPECT_EQ(fs().Create("/nodir/f").code(), ErrorCode::kNotFound);
}

TEST_P(FsContractTest, StatMissingFails) {
  EXPECT_EQ(fs().Stat("/missing").status().code(), ErrorCode::kNotFound);
}

TEST_P(FsContractTest, WriteThenReadBack) {
  ASSERT_TRUE(fs().Create("/f").ok());
  const auto data = Pattern(1000);
  Result<uint64_t> wrote = fs().Write("/f", 0, data);
  ASSERT_TRUE(wrote.ok());
  EXPECT_EQ(wrote.value(), 1000u);
  std::vector<uint8_t> out(1000);
  Result<uint64_t> read = fs().Read("/f", 0, out);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), 1000u);
  EXPECT_EQ(out, data);
}

TEST_P(FsContractTest, WriteAtOffsetExtendsFile) {
  ASSERT_TRUE(fs().Create("/f").ok());
  const auto data = Pattern(100);
  ASSERT_TRUE(fs().Write("/f", 5000, data).ok());
  Result<FileInfo> info = fs().Stat("/f");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().size, 5100u);
  // The hole reads as zeros.
  std::vector<uint8_t> out(100);
  Result<uint64_t> read = fs().Read("/f", 1000, out);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(out, std::vector<uint8_t>(100, 0));
}

TEST_P(FsContractTest, ReadPastEofReturnsZeroBytes) {
  ASSERT_TRUE(fs().Create("/f").ok());
  ASSERT_TRUE(fs().Write("/f", 0, Pattern(10)).ok());
  std::vector<uint8_t> out(10);
  Result<uint64_t> read = fs().Read("/f", 100, out);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), 0u);
}

TEST_P(FsContractTest, ReadClampsAtEof) {
  ASSERT_TRUE(fs().Create("/f").ok());
  ASSERT_TRUE(fs().Write("/f", 0, Pattern(10)).ok());
  std::vector<uint8_t> out(100);
  Result<uint64_t> read = fs().Read("/f", 5, out);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), 5u);
}

TEST_P(FsContractTest, OverwriteMiddleOfFile) {
  ASSERT_TRUE(fs().Create("/f").ok());
  ASSERT_TRUE(fs().Write("/f", 0, std::vector<uint8_t>(3000, 0xAA)).ok());
  ASSERT_TRUE(fs().Write("/f", 1000, std::vector<uint8_t>(500, 0xBB)).ok());
  std::vector<uint8_t> out(3000);
  ASSERT_TRUE(fs().Read("/f", 0, out).ok());
  EXPECT_EQ(out[999], 0xAA);
  EXPECT_EQ(out[1000], 0xBB);
  EXPECT_EQ(out[1499], 0xBB);
  EXPECT_EQ(out[1500], 0xAA);
  Result<FileInfo> info = fs().Stat("/f");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().size, 3000u);  // Size unchanged.
}

TEST_P(FsContractTest, LargeFileMultiBlockRoundTrip) {
  ASSERT_TRUE(fs().Create("/big").ok());
  const auto data = Pattern(100 * 1000, 7);
  ASSERT_TRUE(fs().Write("/big", 0, data).ok());
  std::vector<uint8_t> out(data.size());
  Result<uint64_t> read = fs().Read("/big", 0, out);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), data.size());
  EXPECT_EQ(out, data);
}

TEST_P(FsContractTest, UnlinkRemovesFile) {
  ASSERT_TRUE(fs().Create("/f").ok());
  ASSERT_TRUE(fs().Write("/f", 0, Pattern(5000)).ok());
  ASSERT_TRUE(fs().Unlink("/f").ok());
  EXPECT_EQ(fs().Stat("/f").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(fs().Unlink("/f").code(), ErrorCode::kNotFound);
}

TEST_P(FsContractTest, UnlinkFreesSpaceForReuse) {
  // Create/delete cycles must not leak storage.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(fs().Create("/f").ok()) << "cycle " << i;
    ASSERT_TRUE(fs().Write("/f", 0, Pattern(50 * 1024)).ok()) << "cycle " << i;
    ASSERT_TRUE(fs().Unlink("/f").ok()) << "cycle " << i;
  }
}

TEST_P(FsContractTest, MkdirAndNestedFiles) {
  ASSERT_TRUE(fs().Mkdir("/d").ok());
  ASSERT_TRUE(fs().Mkdir("/d/e").ok());
  ASSERT_TRUE(fs().Create("/d/e/f").ok());
  ASSERT_TRUE(fs().Write("/d/e/f", 0, Pattern(100)).ok());
  Result<FileInfo> info = fs().Stat("/d/e/f");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().size, 100u);
  Result<FileInfo> dir_info = fs().Stat("/d");
  ASSERT_TRUE(dir_info.ok());
  EXPECT_TRUE(dir_info.value().is_directory);
}

TEST_P(FsContractTest, ListDirectory) {
  ASSERT_TRUE(fs().Mkdir("/d").ok());
  ASSERT_TRUE(fs().Create("/d/a").ok());
  ASSERT_TRUE(fs().Create("/d/b").ok());
  ASSERT_TRUE(fs().Mkdir("/d/sub").ok());
  Result<std::vector<std::string>> names = fs().List("/d");
  ASSERT_TRUE(names.ok());
  std::vector<std::string> sorted = names.value();
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::string>{"a", "b", "sub"}));
}

TEST_P(FsContractTest, RmdirOnlyWhenEmpty) {
  ASSERT_TRUE(fs().Mkdir("/d").ok());
  ASSERT_TRUE(fs().Create("/d/f").ok());
  EXPECT_EQ(fs().Rmdir("/d").code(), ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(fs().Unlink("/d/f").ok());
  EXPECT_TRUE(fs().Rmdir("/d").ok());
  EXPECT_EQ(fs().Stat("/d").status().code(), ErrorCode::kNotFound);
}

TEST_P(FsContractTest, UnlinkOfDirectoryFails) {
  ASSERT_TRUE(fs().Mkdir("/d").ok());
  EXPECT_EQ(fs().Unlink("/d").code(), ErrorCode::kFailedPrecondition);
}

TEST_P(FsContractTest, RenameMovesFileWithData) {
  ASSERT_TRUE(fs().Mkdir("/d").ok());
  ASSERT_TRUE(fs().Create("/f").ok());
  const auto data = Pattern(777);
  ASSERT_TRUE(fs().Write("/f", 0, data).ok());
  ASSERT_TRUE(fs().Rename("/f", "/d/g").ok());
  EXPECT_EQ(fs().Stat("/f").status().code(), ErrorCode::kNotFound);
  std::vector<uint8_t> out(777);
  Result<uint64_t> read = fs().Read("/d/g", 0, out);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(out, data);
}

TEST_P(FsContractTest, RenameDirectoryMovesSubtree) {
  ASSERT_TRUE(fs().Mkdir("/src").ok());
  ASSERT_TRUE(fs().Create("/src/f").ok());
  ASSERT_TRUE(fs().Write("/src/f", 0, Pattern(64)).ok());
  ASSERT_TRUE(fs().Mkdir("/dst").ok());
  ASSERT_TRUE(fs().Rename("/src", "/dst/moved").ok());
  EXPECT_EQ(fs().Stat("/src").status().code(), ErrorCode::kNotFound);
  Result<FileInfo> info = fs().Stat("/dst/moved/f");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().size, 64u);
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(fs().Read("/dst/moved/f", 0, out).ok());
  EXPECT_EQ(out, Pattern(64));
}

TEST_P(FsContractTest, RenameOntoExistingFails) {
  ASSERT_TRUE(fs().Create("/a").ok());
  ASSERT_TRUE(fs().Create("/b").ok());
  EXPECT_EQ(fs().Rename("/a", "/b").code(), ErrorCode::kAlreadyExists);
}

// Regression: moving a directory into its own subtree used to succeed and
// orphan the whole subtree (and, in the memory and log file systems, leak
// it: the directory ended up owning its own ancestor).
TEST_P(FsContractTest, RenameIntoOwnSubtreeFails) {
  ASSERT_TRUE(fs().Mkdir("/a").ok());
  ASSERT_TRUE(fs().Mkdir("/a/b").ok());
  ASSERT_TRUE(fs().Create("/a/b/f").ok());
  ASSERT_TRUE(fs().Write("/a/b/f", 0, Pattern(300)).ok());
  EXPECT_EQ(fs().Rename("/a", "/a/b/c").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(fs().Rename("/a", "/a/c").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(fs().Rename("/a", "/a").code(), ErrorCode::kInvalidArgument);
  std::vector<uint8_t> out(300);
  Result<uint64_t> read = fs().Read("/a/b/f", 0, out);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), 300u);
  EXPECT_EQ(out, Pattern(300));
  Result<std::vector<std::string>> root = fs().List("/");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root.value(), std::vector<std::string>{"a"});
  // A sibling whose name merely starts with the source's is fine.
  ASSERT_TRUE(fs().Rename("/a", "/ab").ok());
  ASSERT_TRUE(fs().Read("/ab/b/f", 0, out).ok());
  EXPECT_EQ(out, Pattern(300));
}

TEST_P(FsContractTest, TruncateShrinks) {
  ASSERT_TRUE(fs().Create("/f").ok());
  ASSERT_TRUE(fs().Write("/f", 0, Pattern(5000)).ok());
  ASSERT_TRUE(fs().Truncate("/f", 1234).ok());
  Result<FileInfo> info = fs().Stat("/f");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().size, 1234u);
  std::vector<uint8_t> out(5000);
  Result<uint64_t> read = fs().Read("/f", 0, out);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), 1234u);
}

TEST_P(FsContractTest, TruncateExtendReadsZeros) {
  ASSERT_TRUE(fs().Create("/f").ok());
  ASSERT_TRUE(fs().Write("/f", 0, Pattern(10)).ok());
  ASSERT_TRUE(fs().Truncate("/f", 1000).ok());
  std::vector<uint8_t> out(990);
  Result<uint64_t> read = fs().Read("/f", 10, out);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), 990u);
  EXPECT_EQ(out, std::vector<uint8_t>(990, 0));
}

TEST_P(FsContractTest, TruncateShrinkThenExtendReadsZeros) {
  // Regression (found by the model-based property suite): shrinking must
  // zero the cut-off tail of the final partial block, or a later extension
  // resurrects stale bytes.
  ASSERT_TRUE(fs().Create("/f").ok());
  ASSERT_TRUE(fs().Write("/f", 0, std::vector<uint8_t>(3000, 0xAA)).ok());
  ASSERT_TRUE(fs().Truncate("/f", 1000).ok());
  ASSERT_TRUE(fs().Truncate("/f", 3000).ok());
  std::vector<uint8_t> out(2000);
  Result<uint64_t> read = fs().Read("/f", 1000, out);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(out, std::vector<uint8_t>(2000, 0));
}

TEST_P(FsContractTest, ReusedStorageNeverLeaksOldContents) {
  // Regression (found by the model-based property suite): blocks freed from
  // one file and reallocated to another must read as zeros in the holes of
  // the new owner, not as the previous file's data.
  ASSERT_TRUE(fs().Create("/secret").ok());
  ASSERT_TRUE(fs().Write("/secret", 0, std::vector<uint8_t>(64 * 1024, 0x5E))
                  .ok());
  ASSERT_TRUE(fs().Sync().ok());
  ASSERT_TRUE(fs().Unlink("/secret").ok());
  // New file: write a few bytes deep into a block, leaving a hole before
  // them; the hole may land on recycled storage.
  ASSERT_TRUE(fs().Create("/fresh").ok());
  ASSERT_TRUE(fs().Write("/fresh", 5000, Pattern(10)).ok());
  std::vector<uint8_t> out(5000);
  Result<uint64_t> read = fs().Read("/fresh", 0, out);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(out, std::vector<uint8_t>(5000, 0));
}

TEST_P(FsContractTest, DataSurvivesSync) {
  ASSERT_TRUE(fs().Create("/f").ok());
  const auto data = Pattern(3000, 9);
  ASSERT_TRUE(fs().Write("/f", 0, data).ok());
  ASSERT_TRUE(fs().Sync().ok());
  std::vector<uint8_t> out(3000);
  Result<uint64_t> read = fs().Read("/f", 0, out);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(out, data);
}

TEST_P(FsContractTest, ManyFilesInOneDirectory) {
  ASSERT_TRUE(fs().Mkdir("/d").ok());
  for (int i = 0; i < 50; ++i) {
    const std::string path = "/d/file" + std::to_string(i);
    ASSERT_TRUE(fs().Create(path).ok()) << path;
    ASSERT_TRUE(
        fs().Write(path, 0, Pattern(100, static_cast<uint8_t>(i))).ok());
  }
  Result<std::vector<std::string>> names = fs().List("/d");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value().size(), 50u);
  // Spot check contents.
  std::vector<uint8_t> out(100);
  ASSERT_TRUE(fs().Read("/d/file37", 0, out).ok());
  EXPECT_EQ(out, Pattern(100, 37));
}

TEST_P(FsContractTest, InvalidPathsRejected) {
  EXPECT_FALSE(fs().Create("relative").ok());
  EXPECT_FALSE(fs().Create("/a/").ok());
  EXPECT_FALSE(fs().Stat("").ok());
}

INSTANTIATE_TEST_SUITE_P(AllFileSystems, FsContractTest,
                         ::testing::Values(FsKind::kMemory, FsKind::kDisk,
                                           FsKind::kLog),
                         [](const ::testing::TestParamInfo<FsKind>& info) {
                           switch (info.param) {
                             case FsKind::kMemory:
                               return "MemoryFs";
                             case FsKind::kDisk:
                               return "DiskFs";
                             case FsKind::kLog:
                               return "LogFs";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace ssmc
