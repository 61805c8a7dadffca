// Edge cases and failure paths across modules that the per-module suites do
// not reach: exhaustion, cross-callback event manipulation, error
// propagation through composed layers.

#include <gtest/gtest.h>

#include "src/core/machine.h"
#include "src/fs/disk_fs.h"
#include "src/sim/event_queue.h"
#include "src/storage/write_buffer.h"
#include "src/vm/loader.h"
#include "tests/block_slots.h"

namespace ssmc {
namespace {

// --- Event queue ----------------------------------------------------------

TEST(EventQueueEdgeTest, CallbackCancelsAnotherPendingEvent) {
  SimClock clock;
  EventQueue q(clock);
  bool second_ran = false;
  EventQueue::EventId second = q.ScheduleAt(200, [&] { second_ran = true; });
  q.ScheduleAt(100, [&] { EXPECT_TRUE(q.Cancel(second)); });
  q.RunUntil(1000);
  EXPECT_FALSE(second_ran);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueEdgeTest, ZeroDelayScheduleRunsAtCurrentTime) {
  SimClock clock;
  EventQueue q(clock);
  clock.Advance(500);
  SimTime seen = -1;
  q.ScheduleAfter(0, [&] { seen = clock.now(); });
  q.RunUntil(clock.now());
  EXPECT_EQ(seen, 500);
}

TEST(EventQueueEdgeTest, CallbackSchedulingAtSameInstantRuns) {
  SimClock clock;
  EventQueue q(clock);
  int order = 0;
  int first = 0;
  int chained = 0;
  q.ScheduleAt(100, [&] {
    first = ++order;
    q.ScheduleAt(100, [&] { chained = ++order; });
  });
  q.RunUntil(100);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(chained, 2);
}

// --- Write buffer error propagation ----------------------------------------

TEST(WriteBufferEdgeTest, FlushFailurePropagates) {
  SimClock clock;
  DramSpec dram_spec;
  dram_spec.read = {50, 10};
  dram_spec.write = {60, 12};
  DramDevice dram(dram_spec, 64 * 1024, clock);
  FlashSpec flash_spec;
  flash_spec.read = {100, 10};
  flash_spec.program = {1000, 100};
  flash_spec.erase_sector_bytes = 2048;
  flash_spec.erase_ns = kMillisecond;
  flash_spec.endurance_cycles = 1000000;
  FlashDevice flash(flash_spec, 128 * 1024, 1, clock);
  FlashStore store(flash, {});
  StorageManager manager(dram, store, 512);
  BlockSlots slot(manager.residency());

  int failures_injected = 0;
  WriteBuffer buffer(manager, 4,
                     [&](const BlockKey&, const PayloadRef&, TenantId) -> Status {
                       ++failures_injected;
                       return NoSpaceError("injected");
                     });
  std::vector<uint8_t> page(512, 1);
  ASSERT_TRUE(buffer.Put(slot(BlockKey{1, 0}), page, 0).ok());
  Status flushed = buffer.FlushAll();
  EXPECT_EQ(flushed.code(), ErrorCode::kNoSpace);
  EXPECT_EQ(failures_injected, 1);
  // The block stays buffered (not lost) after a failed flush attempt...
  EXPECT_TRUE(buffer.Contains(slot(BlockKey{1, 0})));
  // ...so its data remains readable.
  std::vector<uint8_t> out(512);
  EXPECT_TRUE(buffer.Get(slot(BlockKey{1, 0}), out).ok());
}

// --- DRAM exhaustion through the stack --------------------------------------

TEST(ExhaustionTest, WriteBufferSurvivesDramPressure) {
  // A machine whose write buffer capacity exceeds physical DRAM: the buffer
  // must hit RESOURCE_EXHAUSTED on the allocator, not corrupt state.
  MachineConfig config = PdaConfig();  // 1 MiB DRAM = 2048 pages.
  config.fs_options.write_buffer_pages = 4096;  // Lies about capacity.
  MobileComputer machine(config);
  ASSERT_TRUE(machine.fs().Create("/hog").ok());
  std::vector<uint8_t> chunk(512, 1);
  Status last = Status::Ok();
  for (int i = 0; i < 4000 && last.ok(); ++i) {
    Result<uint64_t> wrote =
        machine.fs().Write("/hog", static_cast<uint64_t>(i) * 512, chunk);
    last = wrote.status();
  }
  EXPECT_EQ(last.code(), ErrorCode::kResourceExhausted);
  // The machine still functions: sync drains the buffer, writes resume.
  ASSERT_TRUE(machine.fs().Sync().ok());
  EXPECT_TRUE(machine.fs().Write("/hog", 0, chunk).ok());
}

// --- Disk file system corners ------------------------------------------------

DiskSpec SmallDiskSpec() {
  DiskSpec spec;
  spec.sector_bytes = 512;
  spec.sectors_per_track = 16;
  spec.cylinders = 200;  // ~1.6 MiB: easy to fill.
  spec.min_seek_ns = kMillisecond;
  spec.avg_seek_ns = 5 * kMillisecond;
  spec.max_seek_ns = 10 * kMillisecond;
  spec.rotation_ns = 10 * kMillisecond;
  spec.transfer_mib_per_s = 1.0;
  spec.spin_up_ns = 100 * kMillisecond;
  return spec;
}

TEST(DiskFsEdgeTest, DiskFullReportedAndRecoverable) {
  SimClock clock;
  DiskDevice disk(SmallDiskSpec(), clock);
  disk.set_spin_down_after(0);
  DiskFileSystem fs(disk, DiskFsOptions{});
  ASSERT_TRUE(fs.Create("/fill").ok());
  std::vector<uint8_t> chunk(64 * 1024, 1);
  Status last = Status::Ok();
  uint64_t offset = 0;
  while (last.ok()) {
    Result<uint64_t> wrote = fs.Write("/fill", offset, chunk);
    last = wrote.status();
    offset += chunk.size();
  }
  EXPECT_EQ(last.code(), ErrorCode::kNoSpace);
  // Deleting frees everything; a new write fits again.
  ASSERT_TRUE(fs.Unlink("/fill").ok());
  ASSERT_TRUE(fs.Create("/after").ok());
  EXPECT_TRUE(fs.Write("/after", 0, chunk).ok());
}

TEST(DiskFsEdgeTest, InodeReuseAfterRmdir) {
  SimClock clock;
  DiskDevice disk(SmallDiskSpec(), clock);
  disk.set_spin_down_after(0);
  DiskFsOptions options;
  options.inode_count = 8;  // 6 usable.
  DiskFileSystem fs(disk, options);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(fs.Mkdir("/d" + std::to_string(i)).ok())
          << "round " << round << " dir " << i;
    }
    EXPECT_EQ(fs.Mkdir("/overflow").code(), ErrorCode::kNoSpace);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(fs.Rmdir("/d" + std::to_string(i)).ok());
    }
  }
}

// --- Loader misuse -----------------------------------------------------------

TEST(LoaderEdgeTest, WrongStrategyEntryPointsRejected) {
  MobileComputer machine(OmniBookConfig());
  Program program;
  program.path = "/app";
  program.text_bytes = 4096;
  ASSERT_TRUE(InstallProgram(machine.fs(), program).ok());
  machine.Idle(kMinute);
  ProgramLoader loader;
  AddressSpace& space = machine.CreateAddressSpace();
  Result<LaunchResult> launch = loader.Launch(
      space, machine.fs(), program, LaunchStrategy::kCopyFromDisk);
  EXPECT_FALSE(launch.ok());
  EXPECT_EQ(launch.status().code(), ErrorCode::kInvalidArgument);
}

TEST(LoaderEdgeTest, LaunchMissingProgramFails) {
  MobileComputer machine(OmniBookConfig());
  ProgramLoader loader;
  AddressSpace& space = machine.CreateAddressSpace();
  Program program;
  program.path = "/nonexistent";
  program.text_bytes = 4096;
  Result<LaunchResult> launch = loader.Launch(
      space, machine.fs(), program, LaunchStrategy::kExecuteInPlace);
  EXPECT_FALSE(launch.ok());
}

// --- Battery corner: machine dies mid-workload -------------------------------

TEST(BatteryEdgeTest, DeadBatteryStopsDaemonsWithoutCrash) {
  MachineConfig config = PdaConfig();
  config.primary_battery_mwh = 0.000001;  // Essentially dead on arrival.
  config.backup_battery_mwh = 0.000001;
  MobileComputer machine(config);
  ASSERT_TRUE(machine.fs().Create("/f").ok());
  std::vector<uint8_t> data(512, 1);
  ASSERT_TRUE(machine.fs().Write("/f", 0, data).ok());
  machine.Idle(kMinute);
  EXPECT_FALSE(machine.SettleEnergy());  // Battery could not cover it.
  EXPECT_TRUE(machine.battery().dead());
  // Daemons notice the dead battery and do nothing; time can still advance.
  machine.Idle(kMinute);
}

}  // namespace
}  // namespace ssmc
