// Paper-claims regression suite: the headline *shapes* from EXPERIMENTS.md,
// asserted as tests so a code change that silently breaks an experimental
// result fails CI, not just the next person to read a bench table. Each test
// is a scaled-down version of the corresponding bench binary.

#include <gtest/gtest.h>

#include "src/core/machine.h"
#include "src/device/disk_device.h"
#include "src/fs/disk_fs.h"
#include "src/fs/log_fs.h"
#include "src/support/log.h"
#include "src/trace/generator.h"
#include "src/trace/replayer.h"
#include "src/vm/loader.h"

namespace ssmc {
namespace {

class ClaimsTest : public ::testing::Test {
 protected:
  void SetUp() override { SetLogLevel(LogLevel::kError); }
};

// E1: flash writes are ~two orders of magnitude slower than reads; disk
// random access is orders slower than flash reads.
TEST_F(ClaimsTest, E1_DeviceSpeedOrdering) {
  SimClock clock;
  FlashDevice flash(IntelFlash1993(), 1 * kMiB, 1, clock);
  std::vector<uint8_t> buf(512);
  const Duration flash_read = flash.Read(0, buf).value();
  ExtentPool pool(512);
  const std::vector<uint8_t> data(512, 1);
  const Duration flash_write =
      flash.ProgramExtent(flash.sector_bytes(), pool.AllocateCopy(data.data()))
          .value();
  const double wr_ratio = static_cast<double>(flash_write) /
                          static_cast<double>(flash_read);
  EXPECT_GE(wr_ratio, 50.0);
  EXPECT_LE(wr_ratio, 500.0);

  DiskDevice disk(KittyHawkDisk1993(), clock);
  disk.set_spin_down_after(0);
  std::vector<uint8_t> sector(512);
  (void)disk.ReadSectors(0, sector);
  const Duration disk_read =
      disk.ReadSectors(disk.num_sectors() / 2, sector).value();
  EXPECT_GT(disk_read, 100 * flash_read);
}

// E3: the memory-resident FS beats the disk FS by well over an order of
// magnitude on the same trace.
TEST_F(ClaimsTest, E3_MemoryFsBeatsDiskFs) {
  WorkloadOptions options = OfficeWorkload();
  options.duration = kMinute;
  options.max_file_bytes = 64 * 1024;
  const Trace trace = WorkloadGenerator(options).Generate();

  MobileComputer solid(NotebookConfig());
  const ReplayReport ssd = solid.RunTrace(trace);

  SimClock disk_clock;
  DiskDevice disk(FujitsuDisk1993(), disk_clock);
  disk.set_spin_down_after(0);
  DiskFileSystem disk_fs(disk, DiskFsOptions{});
  TraceReplayer replayer(disk_fs, disk_clock);
  const ReplayReport hdd = replayer.Replay(trace);

  EXPECT_EQ(ssd.failures, 0u);
  EXPECT_EQ(hdd.failures, 0u);
  EXPECT_GT(hdd.all_ops.mean_ns(), 50.0 * ssd.all_ops.mean_ns());
}

// E3 (strong baseline): even LFS on disk loses to the memory FS by >5x.
TEST_F(ClaimsTest, E3_MemoryFsBeatsEvenLfs) {
  WorkloadOptions options = OfficeWorkload();
  options.duration = kMinute;
  options.max_file_bytes = 64 * 1024;
  const Trace trace = WorkloadGenerator(options).Generate();

  MobileComputer solid(NotebookConfig());
  const ReplayReport ssd = solid.RunTrace(trace);

  SimClock lfs_clock;
  DiskDevice disk(FujitsuDisk1993(), lfs_clock);
  disk.set_spin_down_after(0);
  LogFileSystem lfs(disk, LogFsOptions{});
  TraceReplayer replayer(lfs, lfs_clock);
  const ReplayReport lfs_report = replayer.Replay(trace);

  EXPECT_EQ(lfs_report.failures, 0u);
  EXPECT_GT(lfs_report.all_ops.mean_ns(), 5.0 * ssd.all_ops.mean_ns());
  // And LFS genuinely fixes the disk write path: its write mean beats the
  // classic disk FS's by an order of magnitude (sequential log).
  SimClock ufs_clock;
  DiskDevice disk2(FujitsuDisk1993(), ufs_clock);
  disk2.set_spin_down_after(0);
  DiskFileSystem ufs(disk2, DiskFsOptions{});
  TraceReplayer replayer2(ufs, ufs_clock);
  const ReplayReport ufs_report = replayer2.Replay(trace);
  EXPECT_LT(lfs_report.ForOp(TraceOp::kWrite).mean_ns() * 10.0,
            ufs_report.ForOp(TraceOp::kWrite).mean_ns());
}

// E5: XIP launch is orders faster than copying and uses no DRAM for code.
TEST_F(ClaimsTest, E5_XipLaunchShape) {
  MobileComputer machine(OmniBookConfig());
  Program program;
  program.path = "/app";
  program.text_bytes = 128 * kKiB;
  ASSERT_TRUE(InstallProgram(machine.fs(), program).ok());
  machine.Idle(2 * kMinute);

  ProgramLoader loader;
  AddressSpace& xip_space = machine.CreateAddressSpace();
  const LaunchResult xip =
      loader.Launch(xip_space, machine.fs(), program,
                    LaunchStrategy::kExecuteInPlace)
          .value();
  Program copy_program = program;
  copy_program.path = "/app2";
  ASSERT_TRUE(InstallProgram(machine.fs(), copy_program).ok());
  machine.Idle(2 * kMinute);
  AddressSpace& copy_space = machine.CreateAddressSpace();
  const LaunchResult copy =
      loader.Launch(copy_space, machine.fs(), copy_program,
                    LaunchStrategy::kCopyFromFlash)
          .value();

  EXPECT_LT(xip.launch_latency * 100, copy.launch_latency);
  EXPECT_EQ(xip.dram_pages_after_launch, 0u);
  EXPECT_EQ(copy.dram_pages_after_launch, 128u * kKiB / 512);
}

// E6: a ~1 MiB write buffer absorbs a substantial share (but not all) of
// the write traffic on a Sprite-shaped workload.
TEST_F(ClaimsTest, E6_WriteBufferAbsorbsTraffic) {
  WorkloadOptions options;
  options.seed = 60;
  options.duration = 3 * kMinute;
  options.mean_interarrival = 45 * kMillisecond;
  options.num_directories = 32;
  options.initial_files = 768;
  options.min_file_bytes = 1024;
  options.max_file_bytes = 128 * 1024;
  options.p_read = 0.25;
  options.p_write = 0.45;
  options.p_create = 0.10;
  options.p_delete = 0.08;
  options.p_whole_file = 0.60;
  options.hot_skew = 0.4;
  options.p_short_lived = 0.40;
  options.short_lived_mean = 30 * kSecond;
  options.partial_io_bytes = 2048;
  const Trace trace = WorkloadGenerator(options).Generate();

  auto flash_writes = [&](uint64_t buffer_pages) {
    MachineConfig config = NotebookConfig();
    config.fs_options.write_buffer_pages = buffer_pages;
    MobileComputer machine(config);
    (void)machine.RunTrace(trace);
    (void)machine.fs().Sync();
    return machine.flash_store().stats().user_writes.value();
  };
  const uint64_t baseline = flash_writes(0);
  const uint64_t buffered = flash_writes(2048);  // 1 MiB.
  const double reduction =
      1.0 - static_cast<double>(buffered) / static_cast<double>(baseline);
  EXPECT_GT(reduction, 0.25);
  EXPECT_LT(reduction, 0.75);
}

// E8: segregated banks keep read-mostly reads near the raw device latency
// while round-robin banks stall substantially.
TEST_F(ClaimsTest, E8_BankSegregationShape) {
  auto run = [&](int banks, int hot) {
    SimClock clock;
    FlashSpec spec = GenericPaperFlash();
    spec.erase_sector_bytes = 4 * kKiB;
    spec.erase_ns = 50 * kMillisecond;
    spec.endurance_cycles = 10000000;
    FlashDevice flash(spec, 2 * kMiB, banks, clock, 4);
    FlashStoreOptions options;
    options.background_writes = true;
    options.hot_bank_count = hot;
    FlashStore store(flash, options);
    std::vector<uint8_t> block(512, 1);
    const uint64_t fill = store.num_blocks() * 7 / 10;
    const uint64_t hot_blocks = fill / 10;
    for (uint64_t b = 0; b < fill; ++b) {
      (void)store.Write(b, block,
                        b < hot_blocks ? WriteStream::kUser
                                       : WriteStream::kRelocation);
    }
    clock.Advance(5 * kMinute);
    Rng rng(17);
    LatencyRecorder reads;
    std::vector<uint8_t> out(512);
    for (int i = 0; i < 100; ++i) {
      (void)store.Write(rng.NextBelow(hot_blocks), block);
      for (int r = 0; r < 8; ++r) {
        const SimTime before = clock.now();
        (void)store.Read(hot_blocks + rng.NextBelow(fill - hot_blocks), out);
        reads.Record(clock.now() - before);
        clock.Advance(500 * kMicrosecond);
      }
    }
    return reads.mean_ns();
  };
  const double round_robin = run(4, 0);
  const double segregated = run(4, 1);
  EXPECT_LT(segregated * 3, round_robin);
}

// E10: "many days" on primaries, "many hours" on the backup.
TEST_F(ClaimsTest, E10_RetentionWindows) {
  MobileComputer machine(NotebookConfig());
  const double standby =
      machine.dram().standby_mw() + machine.flash().standby_mw();
  EXPECT_GT(machine.battery().TimeRemainingAt(standby), 3 * kDay);
  Battery backup_only(0, 250, machine.clock());
  EXPECT_GT(backup_only.TimeRemainingAt(standby), 3 * kHour);
  EXPECT_LT(backup_only.TimeRemainingAt(standby), 3 * kDay);
}

}  // namespace
}  // namespace ssmc
