// E10 — Stability of battery-backed DRAM (paper Section 3.1).
//
// Claims under test: battery-backed DRAM "can safely hold file system data
// for much longer than in conventional configurations"; backup batteries
// cover pack swaps; but "the contents of DRAM will not survive a battery
// failure. Such failures will be relatively common in mobile computers" —
// which is why flash must hold long-lived data and why the flush policy
// bounds the exposure.
//
// Method: run an office workload and inject a total battery failure at a
// random point, for several flush-age policies and several seeds. Report
// the dirty (unflushed) bytes lost, absolute and as a share of all data
// written. Also verify the two safe paths: orderly shutdown and a battery
// swap carried by the backup, both of which lose nothing.

#include "bench/bench_common.h"

namespace ssmc {
namespace {

struct LossResult {
  uint64_t lost_bytes = 0;
  uint64_t written_bytes = 0;
  uint64_t flash_writes = 0;
};

// Replays the trace records up to `cut`, then injects battery failure.
// buffer_pages == 0 is true write-through (no exposure, maximum traffic).
LossResult RunFailure(uint64_t buffer_pages, Duration flush_age,
                      uint64_t seed, double cut_fraction,
                      Obs* obs = nullptr) {
  WorkloadOptions options = WriteHotWorkload();
  options.seed = seed;
  options.duration = 4 * kMinute;
  options.mean_interarrival = 25 * kMillisecond;
  options.initial_files = 256;
  options.hot_skew = 0.5;
  options.max_file_bytes = 64 * 1024;
  const Trace full = WorkloadGenerator(options).Generate();
  const Trace prefix = full.Prefix(static_cast<SimTime>(
      static_cast<double>(full.DurationNs()) * cut_fraction));

  MachineConfig config = NotebookConfig();
  config.fs_options.write_buffer_pages = buffer_pages;
  config.fs_options.flush_age = flush_age;
  config.obs = obs;
  MobileComputer machine(config);
  const ReplayReport report = machine.RunTrace(prefix);
  const MobileComputer::CrashReport crash = machine.InjectBatteryFailure();

  LossResult result;
  result.lost_bytes = crash.lost_dirty_bytes;
  result.written_bytes = report.bytes_written;
  result.flash_writes = machine.flash_store().stats().user_writes.value();
  return result;
}

}  // namespace
}  // namespace ssmc

int main(int argc, char** argv) {
  using namespace ssmc;
  PrintHeader("E10: battery failure and flush policy (Section 3.1)",
              "Claim: battery-backed DRAM safely buffers file data, but a "
              "total battery failure loses\nwhatever has not reached flash — "
              "the flush policy bounds the exposure.");

  const uint64_t seeds[] = {11, 22, 33, 44, 55};
  Table table({"flush policy", "avg dirty bytes lost", "max lost",
               "share of bytes written", "flash block writes"});
  struct Policy {
    std::string name;
    uint64_t buffer_pages;
    Duration age;
  };
  const Policy policies[] = {
      {"write-through (no buffer)", 0, 0},
      {"flush age 5 s", 4096, 5 * kSecond},
      {"flush age 30 s", 4096, 30 * kSecond},
      {"flush age 5 min", 4096, 5 * kMinute},
      {"never (capacity evictions only)", 4096, 365 * kDay},
  };
  // One cell per (policy, seed) pair, aggregated per policy row below.
  ObsCapture capture(argc, argv);
  std::vector<std::function<LossResult()>> cells;
  for (const Policy& policy : policies) {
    for (const uint64_t seed : seeds) {
      const int cell = static_cast<int>(cells.size());
      const uint64_t buffer_pages = policy.buffer_pages;
      const Duration age = policy.age;
      cells.push_back([&capture, cell, buffer_pages, age, seed] {
        return RunFailure(buffer_pages, age, seed, 0.7,
                          capture.ForCell(cell));
      });
    }
  }
  const std::vector<LossResult> results =
      RunCellsOrdered(argc, argv, std::move(cells));

  for (size_t p = 0; p < std::size(policies); ++p) {
    const Policy& policy = policies[p];
    uint64_t total_lost = 0;
    uint64_t max_lost = 0;
    uint64_t total_written = 0;
    uint64_t total_flash_writes = 0;
    for (size_t s = 0; s < std::size(seeds); ++s) {
      const LossResult& r = results[p * std::size(seeds) + s];
      total_lost += r.lost_bytes;
      max_lost = std::max(max_lost, r.lost_bytes);
      total_written += r.written_bytes;
      total_flash_writes += r.flash_writes;
    }
    table.AddRow();
    table.AddCell(policy.name);
    table.AddCell(FormatSize(total_lost / std::size(seeds)));
    table.AddCell(FormatSize(max_lost));
    table.AddCell(Pct(static_cast<double>(total_lost) /
                      static_cast<double>(std::max<uint64_t>(1, total_written))));
    table.AddCell(total_flash_writes / std::size(seeds));
  }
  table.Print(std::cout);
  std::cout << "\nThe flush policy trades crash exposure against flash write "
               "traffic (and thus wear):\na shorter age loses less at "
               "failure but forfeits part of the E6 write absorption.\n";

  // Crash recovery through the metadata journal.
  std::cout << "\nRecovery after total failure (metadata journal):\n";
  {
    WorkloadOptions options = OfficeWorkload();
    options.duration = 3 * kMinute;
    options.max_file_bytes = 64 * 1024;
    const Trace full = WorkloadGenerator(options).Generate();
    const Trace prefix = full.Prefix(full.DurationNs() * 7 / 10);
    MachineConfig config = NotebookConfig();
    config.journal = true;
    // Pair the journal with a shorter flush age: metadata recovery is only
    // as useful as the data that actually reached flash.
    config.fs_options.flush_age = 10 * kSecond;
    // Capture cell 25 (after the 5x5 failure matrix): the crash / journal
    // mount spans land on this cell's "machine" track.
    config.obs = capture.ForCell(25);
    MobileComputer machine(config);
    (void)machine.RunTrace(prefix);
    const MobileComputer::CrashReport crash = machine.InjectBatteryFailure();
    Result<RecoveryReport> recovery = machine.RecoverAfterFailure(20000);
    if (recovery.ok()) {
      std::cout << "  lost at failure: "
                << FormatSize(crash.lost_dirty_bytes)
                << " dirty\n  journal remount: "
                << recovery.value().journal_records_replayed
                << " log records replayed over a checkpoint "
                << FormatDuration(recovery.value().checkpoint_age)
                << " old\n    " << recovery.value().directories_recovered
                << " directories, " << recovery.value().files_recovered
                << " files, " << FormatSize(recovery.value().bytes_recovered)
                << " of file data back from flash.\n";
    } else {
      std::cout << "  recovery failed: " << recovery.status().ToString()
                << "\n";
    }
  }

  // The safe paths.
  std::cout << "\nSafe-path checks:\n";
  {
    MobileComputer machine(NotebookConfig());
    WorkloadOptions options = OfficeWorkload();
    options.duration = kMinute;
    options.max_file_bytes = 64 * 1024;
    (void)machine.RunTrace(WorkloadGenerator(options).Generate());
    const MobileComputer::CrashReport report = machine.OrderlyShutdown();
    std::cout << "  orderly shutdown: lost " << report.lost_dirty_bytes
              << " bytes (expected 0)\n";
  }
  {
    MachineConfig config = NotebookConfig();
    config.primary_battery_mwh = 50;  // Nearly drained pack.
    MobileComputer machine(config);
    const bool swapped = machine.SwapBattery(20000);
    std::cout << "  battery swap on backup power: "
              << (swapped ? "survived, no data loss" : "FAILED") << "\n";
  }
  {
    // Idle retention: how long the batteries hold DRAM in a sleeping machine.
    MobileComputer machine(NotebookConfig());
    const double standby_mw =
        machine.dram().standby_mw() + machine.flash().standby_mw();
    std::cout << "  idle retention on a full pack at "
              << FormatDouble(standby_mw, 1) << " mW standby: "
              << FormatDuration(machine.battery().TimeRemainingAt(standby_mw))
              << " (paper: \"many days\")\n";
    Battery backup_only(0, 250, machine.clock());
    std::cout << "  retention on the lithium backup alone: "
              << FormatDuration(backup_only.TimeRemainingAt(standby_mw))
              << " (paper: \"many hours\")\n";
  }
  capture.Finish();
  return 0;
}
