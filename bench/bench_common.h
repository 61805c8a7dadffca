// Shared helpers for the experiment benches (E1-E10). Each bench binary
// regenerates one table from DESIGN.md's claim->experiment index; see
// EXPERIMENTS.md for the measured results and their reading.

#ifndef SSMC_BENCH_BENCH_COMMON_H_
#define SSMC_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/core/machine.h"
#include "src/device/disk_device.h"
#include "src/fs/disk_fs.h"
#include "src/harness/parallel_runner.h"
#include "src/obs/metrics_export.h"
#include "src/obs/obs.h"
#include "src/obs/trace_export.h"
#include "src/support/log.h"
#include "src/support/table.h"
#include "src/support/units.h"
#include "src/trace/generator.h"

namespace ssmc {

// A conventional disk-based mobile computer: the baseline the paper argues
// against. Groups the disk, its file system, and a clock.
struct DiskMachine {
  explicit DiskMachine(DiskSpec spec = KittyHawkDisk1993(),
                       DiskFsOptions options = {}) {
    disk = std::make_unique<DiskDevice>(spec, clock);
    disk->set_spin_down_after(0);  // Keep spinning: favors the baseline.
    fs = std::make_unique<DiskFileSystem>(*disk, options);
  }
  SimClock clock;
  std::unique_ptr<DiskDevice> disk;
  std::unique_ptr<DiskFileSystem> fs;
};

inline void PrintHeader(const std::string& id, const std::string& claim) {
  // Benches exercise overload corners (full devices, dead batteries) on
  // purpose; keep the warning log out of the tables.
  SetLogLevel(LogLevel::kError);
  std::cout << "\n=== " << id << " ===\n" << claim << "\n\n";
}

inline std::string Pct(double fraction) {
  return FormatDouble(fraction * 100.0, 1) + "%";
}

// True when `flag` (e.g. "--tail") appears verbatim in argv. Benches use
// this for opt-in ablation sections that must not perturb the default
// (regression-compared) output.
inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == flag) {
      return true;
    }
  }
  return false;
}

// Value of a `--flag=value` argument, or "" when absent. Benches use this
// for --trace=<path> and --metrics=<path>.
inline std::string FlagValue(int argc, char** argv, const char* prefix) {
  const std::string p(prefix);
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind(p, 0) == 0) {
      return arg.substr(p.size());
    }
  }
  return "";
}

// Where a bench writes its JSON artifact: the --json=<path> argument, else
// `default_name` in the working directory.
inline std::string JsonPath(int argc, char** argv, const char* default_name) {
  const std::string path = FlagValue(argc, argv, "--json=");
  return path.empty() ? default_name : path;
}

// Per-bench observability capture: parses --trace=<path> (Chrome
// trace-event / Perfetto JSON) and --metrics=<path> (merged metrics
// snapshot JSON) and owns one Obs bundle per experiment cell. With neither
// flag given, ForCell() returns null and every hook in the simulator stays
// a disabled null check — the default output is untouched.
class ObsCapture {
 public:
  ObsCapture(int argc, char** argv)
      : trace_path_(FlagValue(argc, argv, "--trace=")),
        metrics_path_(FlagValue(argc, argv, "--metrics=")) {}

  bool enabled() const {
    return !trace_path_.empty() || !metrics_path_.empty();
  }

  // The Obs bundle for experiment cell `cell` (created on first use, tagged
  // with the cell id), or null when capture is off. Thread-safe: cells run
  // concurrently under the parallel runner, but each cell must use its own
  // bundle.
  Obs* ForCell(int cell) {
    if (!enabled()) {
      return nullptr;
    }
    std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<Obs>& slot = cells_[cell];
    if (slot == nullptr) {
      ObsOptions options;
      options.cell = cell;
      slot = std::make_unique<Obs>(options);
    }
    return slot.get();
  }

  // Writes whatever was requested: the trace file over all cells (one
  // Perfetto pid per cell) and the metrics file as the deterministic merge
  // of every cell's snapshot. Call once, after all cells finished.
  void Finish() {
    if (!enabled()) {
      return;
    }
    std::vector<Obs*> ordered;
    ordered.reserve(cells_.size());
    for (const auto& [cell, obs] : cells_) {
      ordered.push_back(obs.get());
    }
    if (!trace_path_.empty()) {
      const std::vector<const Obs*> view(ordered.begin(), ordered.end());
      if (WriteChromeTraceFile(trace_path_, view)) {
        std::cout << "\n[trace written to " << trace_path_ << "]\n";
      } else {
        std::cerr << "failed to write trace to " << trace_path_ << "\n";
      }
    }
    if (!metrics_path_.empty()) {
      MetricsSnapshot merged;
      for (Obs* obs : ordered) {
        merged.Merge(obs->SnapshotMetrics());
      }
      if (WriteMetricsJsonFile(metrics_path_, merged)) {
        std::cout << "[metrics written to " << metrics_path_ << "]\n";
      } else {
        std::cerr << "failed to write metrics to " << metrics_path_ << "\n";
      }
    }
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::mutex mu_;
  std::map<int, std::unique_ptr<Obs>> cells_;  // Keyed by cell id.
};

// Runs independent experiment cells through the shared --jobs / SSMC_JOBS
// parallel harness, returning results in submission order so the tables are
// byte-identical to a serial run. Matrix benches call this instead of
// hand-rolling the ParallelRunner setup.
template <typename Result>
std::vector<Result> RunCellsOrdered(int argc, char** argv,
                                    std::vector<std::function<Result()>> cells) {
  ParallelRunner runner(JobsFromArgs(argc, argv));
  return runner.RunOrdered(std::move(cells));
}

}  // namespace ssmc

#endif  // SSMC_BENCH_BENCH_COMMON_H_
