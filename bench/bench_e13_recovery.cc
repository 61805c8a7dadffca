// E13 — durable metadata journal: crash-recovery mount time vs namespace
// size (ROADMAP E13, paper Section 4).
//
// Claim under test: a mobile computer that keeps its file system in
// battery-backed DRAM must still survive total power failure, and remount
// time must not grow with a serial walk of the namespace. The journal
// persists a dense checkpoint plus an append-only log tail; Recover() reads
// the checkpoint chain bank-parallel and replays only the tail, so mount
// cost scales with checkpoint bytes over the aggregate read bandwidth —
// not with per-path rebuild work against one serially-busy bank.
//
// Method: per namespace size N (1k..256k inodes), populate a journaled
// machine, checkpoint, apply a fixed burst of post-checkpoint tail
// mutations, then pull the battery and time the journal mount (dense
// checkpoint install + log-tail replay) on the simulated clock. Every
// file, the tail burst included, must come back. Flash write overhead of
// journaling (journal-tenant programmed bytes vs all other write traffic)
// is reported per cell. Results land in BENCH_recovery.json (or
// --json=<path>), which CI diffs byte for byte against the committed copy
// (scripts/golden_check.py). EXPERIMENTS.md keeps the historical
// comparison against the retired serial block-0 checkpoint rebuild.

#include <algorithm>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/machine.h"
#include "src/fs/memory_fs.h"
#include "src/journal/journal.h"
#include "src/obs/metrics_export.h"

namespace ssmc {
namespace {

constexpr uint64_t kInodeSweep[] = {1024, 4096, 16384, 65536, 262144};
constexpr uint64_t kDirs = 64;
constexpr uint64_t kDataFiles = 4096;     // Files that also carry data...
constexpr uint64_t kDataFileBytes = 4096; // ...this much each (16 MiB total).
constexpr uint64_t kTailMutations = 128;  // Acked after the last checkpoint.

struct RecoveryResult {
  uint64_t inodes = 0;
  uint64_t journal_mount_ns = 0;    // Dense checkpoint + log-tail replay.
  uint64_t journal_files = 0;       // Files the mount recovered.
  uint64_t tail_replayed = 0;       // Log records applied on top.
  double journal_overhead_pct = 0;  // Journal programs vs all other writes.
  bool ok = false;
};

RecoveryResult RunCell(uint64_t inodes, Obs* obs) {
  MachineConfig config;
  config.obs = obs;
  config.name = "recovery";
  config.dram_bytes = 64 * kMiB;
  config.flash_bytes = 128 * kMiB;
  config.flash_banks = 8;
  config.journal = true;
  // One explicit checkpoint below; no compaction mid-population, so the
  // cell measures one well-defined checkpoint + tail image.
  config.journal_options.compact_log_blocks = 0;
  MobileComputer machine(config);

  RecoveryResult result;
  result.inodes = inodes;

  // Population: kDirs directories, `inodes` files round-robin across them;
  // a fixed 16 MiB of file data spread over kDataFiles of the names so the
  // write-overhead ratio has real user traffic under it at every N.
  for (uint64_t d = 0; d < kDirs; ++d) {
    if (!machine.fs().Mkdir("/d" + std::to_string(d)).ok()) return result;
  }
  const uint64_t data_stride =
      inodes > kDataFiles ? inodes / kDataFiles : 1;
  const std::vector<uint8_t> payload(kDataFileBytes, 0xA5);
  for (uint64_t i = 0; i < inodes; ++i) {
    const std::string path =
        "/d" + std::to_string(i % kDirs) + "/f" + std::to_string(i);
    if (!machine.fs().Create(path).ok()) return result;
    if (i % data_stride == 0) {
      if (!machine.fs().Write(path, 0, payload).ok()) return result;
    }
  }
  if (!machine.fs().Sync().ok()) return result;
  if (!machine.fs().CheckpointMetadata().ok()) return result;

  // Tail burst: acked after the checkpoint, durable only in the log.
  for (uint64_t i = 0; i < kTailMutations; ++i) {
    if (!machine.fs().Create("/d0/tail" + std::to_string(i)).ok()) {
      return result;
    }
  }

  // Journal share of all flash write traffic (tail-block programs, the
  // checkpoint chain, and cleaner relocations of journal blocks) against
  // everything else (user data and its relocations).
  uint64_t journal_bytes = 0;
  uint64_t total_bytes = 0;
  for (const auto& entry : machine.flash_store().stats().by_tenant.entries()) {
    total_bytes += entry.value.written_bytes.value();
    if (entry.tenant == kJournalTenant) {
      journal_bytes = entry.value.written_bytes.value();
    }
  }
  if (total_bytes > journal_bytes) {
    result.journal_overhead_pct =
        100.0 * static_cast<double>(journal_bytes) /
        static_cast<double>(total_bytes - journal_bytes);
  }

  // Population queued its programs non-blocking; let every bank drain so
  // the mount times its own reads, not the population backlog.
  SimTime quiesce = machine.clock().now();
  for (int b = 0; b < machine.config().flash_banks; ++b) {
    quiesce = std::max(quiesce, machine.flash().BankBusyUntil(b));
  }
  machine.clock().AdvanceTo(quiesce);

  machine.InjectBatteryFailure();

  const SimTime t0 = machine.clock().now();
  Result<RecoveryReport> report = machine.RecoverAfterFailure(20000);
  if (!report.ok()) return result;
  result.journal_mount_ns = machine.clock().now() - t0;
  result.journal_files = report.value().files_recovered;
  result.tail_replayed = report.value().journal_records_replayed;
  // Every acked create must come back, the tail burst included.
  result.ok = result.journal_files == inodes + kTailMutations;
  return result;
}

}  // namespace
}  // namespace ssmc

int main(int argc, char** argv) {
  using namespace ssmc;
  PrintHeader("E13: journal crash recovery — mount time vs namespace size "
              "(Section 4)",
              "Claim: remount after power failure scales with checkpoint "
              "bytes + log-tail length,\nnot with a serial per-path rebuild "
              "of the namespace; acked tail mutations survive.");
  std::cout << "Flash 128 MiB x8 banks, 16 MiB file data, " << kDirs
            << " dirs, " << kTailMutations
            << " post-checkpoint tail mutations;\nnamespace size swept.\n";

  ObsCapture capture(argc, argv);
  std::vector<std::function<RecoveryResult()>> cells;
  for (const uint64_t inodes : kInodeSweep) {
    const int cell = static_cast<int>(cells.size());
    cells.push_back(
        [&capture, cell, inodes] { return RunCell(inodes, capture.ForCell(cell)); });
  }
  const std::vector<RecoveryResult> results =
      RunCellsOrdered(argc, argv, std::move(cells));

  std::cout << "\n";
  Table table({"inodes", "journal mount", "files recovered", "tail replayed",
               "journal write overhead"});
  std::vector<MetricsSnapshot> rows;
  bool all_ok = true;
  for (const RecoveryResult& r : results) {
    all_ok = all_ok && r.ok;
    table.AddRow();
    table.AddCell(r.inodes);
    table.AddCell(FormatDuration(r.journal_mount_ns));
    table.AddCell(r.journal_files);
    table.AddCell(r.tail_replayed);
    table.AddCell(Pct(r.journal_overhead_pct / 100.0));

    MetricsSnapshot row;
    row.Set("op", MetricValue::MakeString("recovery/inodes/" +
                                          std::to_string(r.inodes)));
    row.Set("journal_mount_ns",
            MetricValue::MakeInt(static_cast<int64_t>(r.journal_mount_ns)));
    row.Set("journal_write_overhead_pct",
            MetricValue::MakeDouble(r.journal_overhead_pct));
    row.Set("files_recovered",
            MetricValue::MakeInt(static_cast<int64_t>(r.journal_files)));
    row.Set("tail_records_replayed",
            MetricValue::MakeInt(static_cast<int64_t>(r.tail_replayed)));
    rows.push_back(std::move(row));
  }
  table.Print(std::cout);

  std::cout << "\nReading: the mount streams the dense checkpoint across "
               "all banks and replays only the\nlog tail, so it grows with "
               "checkpoint bytes, not with a per-path rebuild; every file\n"
               "comes back, the post-checkpoint tail burst included (inodes "
               "+ " << kTailMutations << ").\n";
  if (!all_ok) {
    std::cerr << "\nERROR: at least one cell failed to populate, mount, or "
                 "recover every file.\n";
    return 1;
  }
  (void)WriteMetricsJsonArrayFile(JsonPath(argc, argv, "BENCH_recovery.json"),
                                  rows);
  capture.Finish();
  return 0;
}
