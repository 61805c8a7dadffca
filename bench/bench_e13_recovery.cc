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
// machine (journal_oracle keeps the legacy block-0 checkpoint alongside),
// checkpoint, apply a fixed burst of post-checkpoint tail mutations, then
// pull the battery. Mount the SAME flash image both ways and compare
// simulated wall time:
//   checkpoint rebuild — the legacy serial path: read the block-0 chain,
//     re-create every path (the pre-E13 recovery story);
//   journal mount      — dense checkpoint install + log-tail replay.
// The journal mount also recovers the tail burst, which the legacy path
// loses (it only knows state as of the checkpoint). Flash write overhead
// of journaling (journal-tenant programmed bytes vs all other write
// traffic) is reported per cell. Results land in BENCH_recovery.json,
// which CI diffs byte for byte against the committed copy
// (scripts/golden_check.py).

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
#include "src/storage/storage_manager.h"

namespace ssmc {
namespace {

constexpr uint64_t kInodeSweep[] = {1024, 4096, 16384, 65536, 262144};
constexpr uint64_t kDirs = 64;
constexpr uint64_t kDataFiles = 4096;     // Files that also carry data...
constexpr uint64_t kDataFileBytes = 4096; // ...this much each (16 MiB total).
constexpr uint64_t kTailMutations = 128;  // Acked after the last checkpoint.

struct RecoveryResult {
  uint64_t inodes = 0;
  uint64_t checkpoint_mount_ns = 0;  // Legacy serial rebuild.
  uint64_t journal_mount_ns = 0;     // Dense checkpoint + log-tail replay.
  uint64_t journal_files = 0;        // Files each path recovered.
  uint64_t legacy_files = 0;
  uint64_t tail_replayed = 0;        // Log records applied on top.
  double journal_overhead_pct = 0;   // Journal programs vs all other writes.
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
  config.journal_oracle = true;  // Maintain the legacy checkpoint too.
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
  // everything else (user data, legacy checkpoint, user relocations).
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
  // the two mounts time their own reads, not the population backlog.
  SimTime quiesce = machine.clock().now();
  for (int b = 0; b < machine.config().flash_banks; ++b) {
    quiesce = std::max(quiesce, machine.flash().BankBusyUntil(b));
  }
  machine.clock().AdvanceTo(quiesce);

  machine.InjectBatteryFailure();

  // Legacy oracle mount over the SAME surviving flash: a throwaway manager,
  // since the rebuild only reads flash and re-registers blocks with its own
  // allocator. This is the pre-E13 recovery path, timed on the same clock.
  {
    const SimTime t0 = machine.clock().now();
    StorageManager oracle(machine.dram(), machine.flash_store(),
                          machine.config().page_bytes);
    RecoveryReport legacy_report;
    Result<std::unique_ptr<MemoryFileSystem>> legacy =
        MemoryFileSystem::RecoverFromCheckpoint(oracle, MemoryFsOptions{},
                                                &legacy_report);
    if (!legacy.ok()) return result;
    result.checkpoint_mount_ns = machine.clock().now() - t0;
    result.legacy_files = legacy_report.files_recovered;
  }

  // Journal mount: the machine's real recovery path.
  const SimTime t1 = machine.clock().now();
  Result<RecoveryReport> report = machine.RecoverAfterFailure(20000);
  if (!report.ok()) return result;
  result.journal_mount_ns = machine.clock().now() - t1;
  result.journal_files = report.value().files_recovered;
  result.tail_replayed = report.value().journal_records_replayed;
  result.ok = true;
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
            << " post-checkpoint tail mutations;\nnamespace size swept. "
               "Both recovery paths mount the same crashed image.\n";

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
  Table table({"inodes", "checkpoint rebuild", "journal mount", "speedup",
               "files (legacy)", "files (journal)", "tail replayed",
               "journal write overhead"});
  std::vector<MetricsSnapshot> rows;
  bool all_ok = true;
  for (const RecoveryResult& r : results) {
    all_ok = all_ok && r.ok;
    const double speedup =
        r.journal_mount_ns > 0
            ? static_cast<double>(r.checkpoint_mount_ns) /
                  static_cast<double>(r.journal_mount_ns)
            : 0;
    table.AddRow();
    table.AddCell(r.inodes);
    table.AddCell(FormatDuration(r.checkpoint_mount_ns));
    table.AddCell(FormatDuration(r.journal_mount_ns));
    table.AddCell(speedup, 1);
    table.AddCell(r.legacy_files);
    table.AddCell(r.journal_files);
    table.AddCell(r.tail_replayed);
    table.AddCell(Pct(r.journal_overhead_pct / 100.0));

    MetricsSnapshot row;
    row.Set("op", MetricValue::MakeString("recovery/inodes/" +
                                          std::to_string(r.inodes)));
    row.Set("journal_mount_ns",
            MetricValue::MakeInt(static_cast<int64_t>(r.journal_mount_ns)));
    row.Set("checkpoint_mount_ns", MetricValue::MakeInt(static_cast<int64_t>(
                                       r.checkpoint_mount_ns)));
    row.Set("speedup", MetricValue::MakeDouble(speedup));
    row.Set("journal_write_overhead_pct",
            MetricValue::MakeDouble(r.journal_overhead_pct));
    row.Set("files_recovered",
            MetricValue::MakeInt(static_cast<int64_t>(r.journal_files)));
    row.Set("tail_records_replayed",
            MetricValue::MakeInt(static_cast<int64_t>(r.tail_replayed)));
    rows.push_back(std::move(row));
  }
  table.Print(std::cout);

  std::cout << "\nReading: the legacy path re-reads the block-0 checkpoint "
               "chain serially and re-creates\nevery path, so mount time "
               "grows with namespace size against one busy bank. The "
               "journal\nmount streams the dense checkpoint across all "
               "banks and replays only the log tail —\nand it is the only "
               "path that recovers the post-checkpoint mutations (files "
               "journal vs\nlegacy differ by the tail burst).\n";
  if (!all_ok) {
    std::cerr << "\nERROR: at least one cell failed to populate or mount.\n";
    return 1;
  }
  (void)WriteMetricsJsonArrayFile("BENCH_recovery.json", rows);
  capture.Finish();
  return 0;
}
