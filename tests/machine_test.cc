#include "src/core/machine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/trace/generator.h"

namespace ssmc {
namespace {

TEST(MachineTest, PresetsConstruct) {
  MobileComputer omnibook(OmniBookConfig());
  EXPECT_EQ(omnibook.dram().capacity_bytes(), 4 * kMiB);
  EXPECT_EQ(omnibook.flash().capacity_bytes(), 10 * kMiB);

  MobileComputer pda(PdaConfig());
  EXPECT_EQ(pda.dram().capacity_bytes(), 1 * kMiB);

  MobileComputer notebook(NotebookConfig());
  EXPECT_EQ(notebook.flash().num_banks(), 4);
}

TEST(MachineTest, FlushDaemonFlushesAgedData) {
  MobileComputer machine(OmniBookConfig());
  ASSERT_TRUE(machine.fs().Create("/f").ok());
  std::vector<uint8_t> data(512, 1);
  ASSERT_TRUE(machine.fs().Write("/f", 0, data).ok());
  EXPECT_EQ(machine.flash_store().stats().user_writes.value(), 0u);
  // Default flush age is 30 s; idle past it and let the daemon run.
  machine.Idle(40 * kSecond);
  EXPECT_EQ(machine.flash_store().stats().user_writes.value(), 1u);
}

TEST(MachineTest, SettleEnergyDrainsBattery) {
  MobileComputer machine(OmniBookConfig());
  const double before = machine.battery().primary_remaining_mwh();
  ASSERT_TRUE(machine.fs().Create("/f").ok());
  std::vector<uint8_t> data(64 * 1024, 1);
  ASSERT_TRUE(machine.fs().Write("/f", 0, data).ok());
  ASSERT_TRUE(machine.fs().Sync().ok());
  machine.Idle(kMinute);
  EXPECT_TRUE(machine.SettleEnergy());
  EXPECT_LT(machine.battery().primary_remaining_mwh(), before);
  EXPECT_GT(machine.TotalEnergyNj(), 0.0);
}

TEST(MachineTest, SettleEnergyIsIncremental) {
  MobileComputer machine(OmniBookConfig());
  machine.Idle(kMinute);
  ASSERT_TRUE(machine.SettleEnergy());
  const double after_first = machine.battery().primary_remaining_mwh();
  // No further activity: a second settle drains (almost) nothing.
  ASSERT_TRUE(machine.SettleEnergy());
  EXPECT_NEAR(machine.battery().primary_remaining_mwh(), after_first, 1e-6);
}

TEST(MachineTest, BatteryFailureLosesDirtyData) {
  MobileComputer machine(OmniBookConfig());
  ASSERT_TRUE(machine.fs().Create("/f").ok());
  std::vector<uint8_t> data(2048, 1);
  ASSERT_TRUE(machine.fs().Write("/f", 0, data).ok());
  MobileComputer::CrashReport report = machine.InjectBatteryFailure();
  EXPECT_EQ(report.lost_dirty_bytes, 2048u);
  EXPECT_TRUE(report.dram_contents_lost);
  EXPECT_TRUE(machine.battery().dead());
}

TEST(MachineTest, OrderlyShutdownLosesNothing) {
  MobileComputer machine(OmniBookConfig());
  ASSERT_TRUE(machine.fs().Create("/f").ok());
  std::vector<uint8_t> data(2048, 1);
  ASSERT_TRUE(machine.fs().Write("/f", 0, data).ok());
  MobileComputer::CrashReport report = machine.OrderlyShutdown();
  EXPECT_EQ(report.lost_dirty_bytes, 0u);
  EXPECT_FALSE(report.dram_contents_lost);
  EXPECT_EQ(machine.flash_store().stats().user_writes.value(), 4u);
}

TEST(MachineTest, SwapBatteryKeepsMachineAlive) {
  MachineConfig config = OmniBookConfig();
  config.primary_battery_mwh = 100;
  MobileComputer machine(config);
  EXPECT_TRUE(machine.SwapBattery(20000));
  EXPECT_FALSE(machine.battery().dead());
  EXPECT_NEAR(machine.battery().primary_remaining_mwh(), 20000, 1e-6);
}

TEST(MachineTest, RecoverAfterFailureRestoresCheckpointedState) {
  MachineConfig config = OmniBookConfig();
  config.journal = true;
  MobileComputer machine(config);
  ASSERT_TRUE(machine.fs().Mkdir("/docs").ok());
  ASSERT_TRUE(machine.fs().Create("/docs/f").ok());
  std::vector<uint8_t> data(2048, 0x42);
  ASSERT_TRUE(machine.fs().Write("/docs/f", 0, data).ok());
  ASSERT_TRUE(machine.fs().Sync().ok());
  ASSERT_TRUE(machine.fs().CheckpointMetadata().ok());
  machine.Idle(30 * kSecond);  // The flush daemon runs.

  machine.InjectBatteryFailure();
  Result<RecoveryReport> report = machine.RecoverAfterFailure(20000);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().files_recovered, 1u);
  std::vector<uint8_t> out(2048);
  Result<uint64_t> read = machine.fs().Read("/docs/f", 0, out);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(out, data);
  EXPECT_FALSE(machine.battery().dead());
}

// Recovery destroys the file system with whatever it buffered. Twice in a
// row, each time with the write buffer full, the rebuilt storage stack must
// pass the residency audit. That the destroyed file system handed back every
// page and slot is asserted inside RecoverAfterFailure, before its storage
// manager goes, so a leak fails this test in a build with assertions; in any
// build NvmTierTest.FileSystemDestroyedAloneReturnsEveryPageSlotAndExtent
// checks the same release on a storage manager that outlives its file system.
TEST(MachineTest, BackToBackRecoveriesWithFullWriteBufferKeepInvariants) {
  MachineConfig config = OmniBookConfig();
  config.journal = true;
  config.fs_options.write_buffer_pages = 32;
  MobileComputer machine(config);
  const std::vector<uint8_t> data(64 * 512, 0x5A);
  for (int round = 0; round < 2; ++round) {
    const std::string path = "/full" + std::to_string(round);
    ASSERT_TRUE(machine.fs().Create(path).ok());
    ASSERT_TRUE(machine.fs().Write(path, 0, data).ok());
    ASSERT_EQ(machine.fs().write_buffer().dirty_pages(), 32u);
    ASSERT_TRUE(machine.storage().residency().CheckInvariants().ok());

    Result<RecoveryReport> report = machine.RecoverAfterFailure(20000);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const Status audit = machine.storage().residency().CheckInvariants();
    EXPECT_TRUE(audit.ok()) << "round " << round << ": " << audit.ToString();
    EXPECT_EQ(machine.fs().write_buffer().dirty_pages(), 0u);
  }
}

TEST(MachineTest, RecoverWithoutCheckpointComesUpEmpty) {
  MobileComputer machine(OmniBookConfig());  // No journal.
  ASSERT_TRUE(machine.fs().Create("/f").ok());
  ASSERT_TRUE(machine.fs().Sync().ok());
  machine.InjectBatteryFailure();
  Result<RecoveryReport> report = machine.RecoverAfterFailure(20000);
  EXPECT_FALSE(report.ok());
  // Factory-reset file system still works.
  EXPECT_TRUE(machine.fs().Create("/fresh").ok());
  EXPECT_EQ(machine.fs().Stat("/f").status().code(), ErrorCode::kNotFound);
}

TEST(MachineTest, RunTraceEndToEnd) {
  MobileComputer machine(NotebookConfig());
  WorkloadOptions options = OfficeWorkload();
  options.duration = kMinute;
  options.max_file_bytes = 64 * 1024;
  const Trace trace = WorkloadGenerator(options).Generate();
  ReplayReport report = machine.RunTrace(trace);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_GT(report.bytes_written, 0u);
  // The flush daemon ran: some data reached flash during the minute.
  EXPECT_GT(machine.flash_store().stats().user_writes.value(), 0u);
  // And the write buffer absorbed traffic: flash writes < logical writes.
  const uint64_t flash_bytes =
      machine.flash_store().stats().user_writes.value() * 512;
  EXPECT_LT(flash_bytes, report.bytes_written * 2);
}

TEST(MachineTest, RunTraceAttributesIoByClass) {
  MobileComputer machine(NotebookConfig());
  WorkloadOptions options = OfficeWorkload();
  options.duration = kMinute;
  options.max_file_bytes = 64 * 1024;
  const Trace trace = WorkloadGenerator(options).Generate();
  const ReplayReport report = machine.RunTrace(trace);

  // Foreground reads and flush-daemon writes both ran during the minute.
  const IoLaneStats& fg = report.ForClass(IoPriority::kForeground);
  const IoLaneStats& flush = report.ForClass(IoPriority::kFlush);
  EXPECT_GT(fg.requests.value(), 0u);
  EXPECT_GT(fg.service_ns.value(), 0u);
  EXPECT_GT(flush.requests.value(), 0u);
  EXPECT_GT(flush.service_ns.value(), 0u);

  // The breakdown covers only the replay window: a second replay on the
  // same (reused) machine reports its own deltas, not cumulative totals.
  const ReplayReport second = machine.RunTrace(trace);
  const IoLaneStats& fg2 = second.ForClass(IoPriority::kForeground);
  EXPECT_GT(fg2.requests.value(), 0u);
  // Device-level cumulative counters span both windows (plus inter-replay
  // daemon work), so each window's delta is strictly below them.
  const uint64_t device_fg_requests =
      machine.flash()
          .stats()
          .by_class[static_cast<int>(IoPriority::kForeground)]
          .requests.value();
  EXPECT_LT(fg2.requests.value(), device_fg_requests);
  EXPECT_GE(device_fg_requests, fg.requests.value() + fg2.requests.value());
}

TEST(MachineTest, PrioritySchedulingConfigIsAppliedToFlash) {
  MachineConfig config = NotebookConfig();
  config.io_sched = IoSchedPolicy::kPriority;
  MobileComputer machine(config);
  EXPECT_EQ(machine.flash().scheduler().policy(), IoSchedPolicy::kPriority);
  // And the machine still runs a trace correctly under the alternate policy.
  WorkloadOptions options = OfficeWorkload();
  options.duration = 10 * kSecond;
  options.max_file_bytes = 64 * 1024;
  const Trace trace = WorkloadGenerator(options).Generate();
  const ReplayReport report = machine.RunTrace(trace);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_GT(report.ops, 0u);
}

TEST(MachineTest, RunTraceAttributesIoAndLatencyByTenant) {
  MachineConfig config = NotebookConfig();
  config.io_sched = IoSchedPolicy::kWeightedFair;
  config.tenant_qos = {{1, 9, 0, 0}, {2, 1, 0, 0}};
  MobileComputer machine(config);
  EXPECT_EQ(machine.flash().scheduler().policy(), IoSchedPolicy::kWeightedFair);

  // Alternate the issuing tenant record-by-record: both tenants touch the
  // same files, so attribution follows the issuer, not the data.
  WorkloadOptions options = OfficeWorkload();
  options.duration = kMinute;
  options.max_file_bytes = 64 * 1024;
  Trace trace;
  size_t i = 0;
  const Trace generated = WorkloadGenerator(options).Generate();
  for (TraceRecord r : generated.records()) {
    r.tenant = static_cast<TenantId>(1 + (i++ % 2));
    trace.Add(std::move(r));
  }
  const ReplayReport report = machine.RunTrace(trace);
  EXPECT_EQ(report.failures, 0u);

  // Replay-level latency lanes exist for exactly the tenants that issued
  // operations.
  EXPECT_EQ(report.by_tenant.Find(kDefaultTenant), nullptr);
  for (TenantId t : {TenantId{1}, TenantId{2}}) {
    const TenantLatency* lane = report.by_tenant.Find(t);
    ASSERT_NE(lane, nullptr) << "tenant " << t;
    EXPECT_GT(lane->reads.count() + lane->writes.count(), 0u);
  }

  // Device-level attribution: every flash request in the replay window is
  // billed to some tenant, and the per-tenant lanes sum to the per-class
  // lanes (two partitions of the same window).
  uint64_t class_requests = 0;
  for (int p = 0; p < kNumIoPriorities; ++p) {
    class_requests +=
        report.io_by_class[static_cast<size_t>(p)].requests.value();
  }
  uint64_t tenant_requests = 0;
  for (const auto& e : report.io_by_tenant.entries()) {
    tenant_requests += e.value.requests.value();
  }
  EXPECT_GT(class_requests, 0u);
  EXPECT_EQ(tenant_requests, class_requests);
}

TEST(MachineTest, SimulationIsFullyDeterministic) {
  // Two machines, same config, same trace: identical clocks, stats, and
  // energy to the last nanojoule. This is what makes every experiment in
  // bench/ exactly reproducible.
  WorkloadOptions options = OfficeWorkload();
  options.duration = kMinute;
  options.max_file_bytes = 64 * 1024;
  const Trace trace = WorkloadGenerator(options).Generate();

  auto run = [&](MobileComputer& machine) {
    ReplayReport report = machine.RunTrace(trace);
    (void)machine.fs().Sync();
    machine.SettleEnergy();
    return report;
  };
  MobileComputer a(NotebookConfig());
  MobileComputer b(NotebookConfig());
  const ReplayReport ra = run(a);
  const ReplayReport rb = run(b);

  EXPECT_EQ(a.clock().now(), b.clock().now());
  EXPECT_EQ(ra.ops, rb.ops);
  EXPECT_EQ(ra.all_ops.total_ns(), rb.all_ops.total_ns());
  EXPECT_EQ(a.flash().stats().programs.value(),
            b.flash().stats().programs.value());
  EXPECT_EQ(a.flash_store().stats().erases.value(),
            b.flash_store().stats().erases.value());
  EXPECT_DOUBLE_EQ(a.TotalEnergyNj(), b.TotalEnergyNj());
  EXPECT_DOUBLE_EQ(a.battery().primary_remaining_mwh(),
                   b.battery().primary_remaining_mwh());
}

TEST(MachineTest, BackgroundFlushDoesNotBlockForeground) {
  // A burst of writes larger than the buffer forces evictions mid-burst,
  // but because flushes are background device ops the foreground cost stays
  // near DRAM speed.
  MachineConfig config = OmniBookConfig();
  config.fs_options.write_buffer_pages = 64;  // Tiny: 32 KiB.
  MobileComputer machine(config);
  ASSERT_TRUE(machine.fs().Create("/burst").ok());
  std::vector<uint8_t> chunk(512, 7);
  const SimTime start = machine.clock().now();
  for (int i = 0; i < 256; ++i) {  // 128 KiB, 4x the buffer.
    ASSERT_TRUE(machine.fs().Write("/burst", i * 512, chunk).ok());
  }
  const Duration elapsed = machine.clock().now() - start;
  // 256 writes at raw flash program speed (~5 ms each at 10 us/B) would be
  // seconds; buffered + background flush keeps it well under one second.
  EXPECT_LT(elapsed, 500 * kMillisecond);
}

}  // namespace
}  // namespace ssmc
