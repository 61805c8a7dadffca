// End-to-end integration scenarios exercising the whole machine: devices,
// FTL, storage manager, file system, VM, loader, battery, daemons, and
// crash recovery working together over long simulated stretches.

#include <gtest/gtest.h>

#include "src/core/machine.h"
#include "src/support/log.h"
#include "src/trace/generator.h"
#include "src/vm/loader.h"

namespace ssmc {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override { SetLogLevel(LogLevel::kError); }
  std::vector<uint8_t> Pattern(size_t n, uint8_t seed) {
    std::vector<uint8_t> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = static_cast<uint8_t>(seed + i * 13);
    }
    return v;
  }
};

TEST_F(IntegrationTest, FullDayOfOfficeWorkWithJournal) {
  MachineConfig config = NotebookConfig();
  config.journal = true;
  MobileComputer machine(config);

  // Three workload sessions separated by idle periods, like a real day.
  uint64_t total_failures = 0;
  for (int session = 0; session < 3; ++session) {
    WorkloadOptions options = OfficeWorkload();
    options.seed = 100 + static_cast<uint64_t>(session);
    options.duration = kMinute;
    options.max_file_bytes = 64 * 1024;
    options.num_directories = 4;
    // Each session uses its own directory subtree to avoid collisions.
    const std::string prefix = "/s" + std::to_string(session);
    ASSERT_TRUE(machine.fs().Mkdir(prefix).ok());
    const Trace trace =
        WorkloadGenerator(options).Generate().WithPathPrefix(prefix);
    const ReplayReport report = machine.RunTrace(trace);
    total_failures += report.failures;
    machine.Idle(10 * kMinute);  // Lunch / meetings: daemons run.
    ASSERT_TRUE(machine.SettleEnergy());
  }
  EXPECT_EQ(total_failures, 0u);
  // The day's activity reached flash via the flush daemon.
  EXPECT_GT(machine.flash_store().stats().user_writes.value(), 0u);
  // Every acked namespace mutation reached the journal.
  EXPECT_GT(machine.journal()->stats().records.value(), 0u);
  EXPECT_FALSE(machine.battery().dead());

  // The machine is dropped at the end of the day...
  machine.InjectBatteryFailure();
  Result<RecoveryReport> recovery = machine.RecoverAfterFailure(20000);
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_GT(recovery.value().files_recovered, 0u);
  // ...and the recovered machine keeps working.
  ASSERT_TRUE(machine.fs().Create("/after-recovery").ok());
  ASSERT_TRUE(
      machine.fs().Write("/after-recovery", 0, Pattern(1000, 1)).ok());
  std::vector<uint8_t> out(1000);
  ASSERT_TRUE(machine.fs().Read("/after-recovery", 0, out).ok());
  EXPECT_EQ(out, Pattern(1000, 1));
}

TEST_F(IntegrationTest, ProgramsAndFilesShareTheMachine) {
  MobileComputer machine(OmniBookConfig());
  ASSERT_TRUE(machine.fs().Mkdir("/bin").ok());
  ASSERT_TRUE(machine.fs().Mkdir("/home").ok());

  // Install and launch an editor XIP.
  Program editor;
  editor.path = "/bin/editor";
  editor.text_bytes = 96 * kKiB;
  editor.data_bytes = 16 * kKiB;
  ASSERT_TRUE(InstallProgram(machine.fs(), editor).ok());
  machine.Idle(2 * kMinute);

  ProgramLoader loader;
  AddressSpace& space = machine.CreateAddressSpace();
  Result<LaunchResult> launch = loader.Launch(
      space, machine.fs(), editor, LaunchStrategy::kExecuteInPlace);
  ASSERT_TRUE(launch.ok());

  // The "editor" edits a document: reads it via the FS, writes new content.
  ASSERT_TRUE(machine.fs().Create("/home/doc").ok());
  for (int edit = 0; edit < 20; ++edit) {
    ASSERT_TRUE(machine.fs()
                    .Write("/home/doc", static_cast<uint64_t>(edit) * 100,
                           Pattern(100, static_cast<uint8_t>(edit)))
                    .ok());
    // It also executes some code between edits.
    ASSERT_TRUE(loader.Execute(space, launch.value(), 1).ok());
    machine.Idle(5 * kSecond);
  }
  ASSERT_TRUE(machine.fs().Sync().ok());

  // Document intact; program still executable; wear negligible.
  std::vector<uint8_t> out(100);
  ASSERT_TRUE(machine.fs().Read("/home/doc", 700, out).ok());
  EXPECT_EQ(out, Pattern(100, 7));
  EXPECT_LT(machine.flash().SummarizeWear().max_erases, 50u);
}

TEST_F(IntegrationTest, ProtectionAcrossAddressSpaces) {
  // Section 3.2: VM exists for protection. Two processes map the same
  // file; one writes its private COW copy; the other never sees it.
  MobileComputer machine(NotebookConfig());
  ASSERT_TRUE(machine.fs().Create("/shared").ok());
  ASSERT_TRUE(machine.fs().Write("/shared", 0, Pattern(2048, 5)).ok());
  ASSERT_TRUE(machine.fs().Sync().ok());
  machine.Idle(kMinute);

  AddressSpace& a = machine.CreateAddressSpace();
  AddressSpace& b = machine.CreateAddressSpace();
  const uint64_t va = uint64_t{1} << 30;
  ASSERT_TRUE(a.MapFileCow(va, machine.fs(), "/shared", true).ok());
  ASSERT_TRUE(b.MapFileCow(va, machine.fs(), "/shared", false).ok());

  // A writes privately.
  std::vector<uint8_t> patch(64, 0xEE);
  ASSERT_TRUE(a.Write(va + 128, patch).ok());
  // B cannot write at all...
  EXPECT_EQ(b.Write(va + 128, patch).status().code(),
            ErrorCode::kPermissionDenied);
  // ...and B reads the original bytes.
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(b.Read(va + 128, out).ok());
  const auto original = Pattern(2048, 5);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), original.begin() + 128));
  // A reads its own patch.
  ASSERT_TRUE(a.Read(va + 128, out).ok());
  EXPECT_EQ(out, patch);
  // And the file itself is unchanged.
  std::vector<uint8_t> file_bytes(64);
  ASSERT_TRUE(machine.fs().Read("/shared", 128, file_bytes).ok());
  EXPECT_TRUE(
      std::equal(file_bytes.begin(), file_bytes.end(), original.begin() + 128));
}

TEST_F(IntegrationTest, SustainedChurnKeepsInvariantsOverHours) {
  // A soak: hours of simulated hot churn through the whole stack. The
  // cleaner, wear leveler, flush daemon and metadata journal all run;
  // nothing may leak, corrupt, or dead-end.
  MachineConfig config = PdaConfig();
  config.journal = true;
  MobileComputer machine(config);
  MemoryFileSystem& fs = machine.fs();
  ASSERT_TRUE(fs.Mkdir("/data").ok());
  for (int f = 0; f < 16; ++f) {
    ASSERT_TRUE(fs.Create("/data/f" + std::to_string(f)).ok());
  }
  Rng rng(2024);
  for (int round = 0; round < 2000; ++round) {
    const std::string path =
        "/data/f" + std::to_string(rng.NextBelow(16));
    const uint8_t tag = static_cast<uint8_t>(round);
    ASSERT_TRUE(fs.Write(path, rng.NextBelow(8) * 512,
                         Pattern(512, tag))
                    .ok())
        << "round " << round;
    machine.Idle(10 * kSecond);
  }
  ASSERT_TRUE(fs.Sync().ok());
  ASSERT_TRUE(machine.SettleEnergy());

  // ~5.5 hours of simulated time passed.
  EXPECT_GT(machine.clock().now(), 5 * kHour);
  // DRAM pages all accounted for (buffer empty after sync).
  EXPECT_EQ(fs.write_buffer().dirty_pages(), 0u);
  // Flash store consistency: every file still fully readable.
  std::vector<uint8_t> out(512);
  for (int f = 0; f < 16; ++f) {
    const std::string path = "/data/f" + std::to_string(f);
    Result<FileInfo> info = fs.Stat(path);
    ASSERT_TRUE(info.ok());
    if (info.value().size >= 512) {
      EXPECT_TRUE(fs.Read(path, 0, out).ok()) << path;
    }
  }
  // No sector wore out (PDA flash is lightly loaded relative to endurance).
  EXPECT_EQ(machine.flash().SummarizeWear().bad_sectors, 0u);
}

}  // namespace
}  // namespace ssmc
