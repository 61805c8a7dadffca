// E8 — Flash bank partitioning (paper Section 3.3).
//
// Claim under test: "In order to maintain fast read access to programs and
// other data in secondary storage during the slow erase/write cycles of
// flash memory, it may prove necessary to partition flash memory into two or
// more banks."
//
// Method: a foreground reader streams random reads from the flash store
// while a background writer (the storage manager's flush path) continuously
// programs and forces cleaning erases. Sweep the bank count; report the
// foreground read latency distribution and total stall time. With one bank
// every read can stall behind a multi-millisecond erase; with several banks
// reads proceed in the banks the writer is not using.

// Each (banks, placement) configuration is a closed simulation cell; the
// seven runs execute concurrently on the parallel runner and the table
// prints in submission order, byte-identical to --jobs=1.

#include <functional>
#include <memory>

#include "bench/bench_common.h"
#include "src/ftl/flash_store.h"

namespace ssmc {
namespace {

struct BankResult {
  LatencyRecorder read_latency;
  uint64_t stall_ns = 0;
  uint64_t reads = 0;
};

// `write_burst` > 1 issues the background writes in back-to-back batches, as
// a write buffer flushing a dirty window would; queued flush programs then
// stack on the banks, which is the regime where scheduling policy matters.
// The default (1) is the original smooth-writer workload.
BankResult RunBanks(int banks, int hot_banks,
                    IoSchedPolicy policy = IoSchedPolicy::kFifo,
                    int write_burst = 1, Obs* obs = nullptr) {
  SimClock clock;
  FlashSpec spec = GenericPaperFlash();
  spec.erase_sector_bytes = 4 * kKiB;
  spec.erase_ns = 50 * kMillisecond;  // Slow erases: the problem case.
  spec.endurance_cycles = 10000000;
  FlashDevice flash(spec, 4 * kMiB, banks, clock, /*seed=*/4);
  flash.scheduler().set_policy(policy);
  flash.AttachObs(obs);  // Per-bank + per-class tracks (--trace).
  FlashStoreOptions options;
  options.background_writes = true;  // Writer does not advance our clock.
  options.hot_bank_count = hot_banks;
  FlashStore store(flash, options);
  store.AttachObs(obs);  // Cleaner-pass spans on the same cell.

  // Pre-fill to 70% so reads have targets and cleaning has work. The hot
  // tenth (blocks the writer overwrites) is placed as ordinary user data;
  // the read-mostly remainder carries the cold placement hint, as a file
  // system installing programs and documents would.
  std::vector<uint8_t> block(512, 1);
  const uint64_t fill_blocks = store.num_blocks() * 7 / 10;
  const uint64_t hot_blocks = fill_blocks / 10;
  for (uint64_t b = 0; b < fill_blocks; ++b) {
    (void)store.Write(b, block,
                      b < hot_blocks ? WriteStream::kUser
                                     : WriteStream::kRelocation);
  }
  // Let the fill drain, then settle with a burst of hot-set overwrites so
  // the store reaches its steady state before we measure.
  clock.Advance(5 * kMinute);
  Rng settle_rng(3);
  for (int i = 0; i < 3000; ++i) {
    (void)store.Write(settle_rng.NextBelow(hot_blocks), block);
    clock.Advance(10 * kMillisecond);
  }
  clock.Advance(5 * kMinute);
  const uint64_t stall_baseline = flash.stats().read_stall_ns.value();

  Rng rng(17);
  BankResult result;
  std::vector<uint8_t> out(512);
  // Steady load: one background flush write (5.2 ms program) per 16 reads
  // spaced 500 us apart (~8 ms of foreground time). The write stream keeps
  // ~60% of one bank's bandwidth busy — heavy but stable, so the bank count
  // determines how often a read lands behind a program or a cleaning erase.
  // Foreground reads target the read-mostly 90% (programs, documents) —
  // exactly the data the paper wants kept fast while writes churn.
  for (int i = 0; i < 300; ++i) {
    for (int w = 0; w < write_burst; ++w) {
      (void)store.Write(rng.NextBelow(hot_blocks), block);
    }
    for (int r = 0; r < 16; ++r) {
      const SimTime before = clock.now();
      (void)store.Read(hot_blocks + rng.NextBelow(fill_blocks - hot_blocks),
                       out);
      result.read_latency.Record(clock.now() - before);
      ++result.reads;
      clock.Advance(500 * kMicrosecond);  // Think time between reads.
    }
  }
  result.stall_ns = flash.stats().read_stall_ns.value() - stall_baseline;
  return result;
}

}  // namespace
}  // namespace ssmc

int main(int argc, char** argv) {
  using namespace ssmc;
  PrintHeader("E8: flash bank partitioning (Section 3.3)",
              "Claim: partitioning flash into banks keeps reads fast during "
              "slow erase/write cycles.");

  std::cout << "4 MiB store, 50 ms erases, continuous background flush "
               "writes, 4000 foreground reads.\n\n";

  Table table({"banks", "placement", "read mean", "read p50", "read p99",
               "read max", "total read stall"});
  struct Config {
    int banks;
    int hot;
  };
  const Config configs[] = {{1, 0}, {2, 0}, {4, 0}, {8, 0},
                            {2, 1}, {4, 1}, {8, 2}};
  ObsCapture capture(argc, argv);
  std::vector<std::function<BankResult()>> cells;
  for (const Config& config : configs) {
    const int cell = static_cast<int>(cells.size());
    cells.push_back([&capture, cell, config] {
      return RunBanks(config.banks, config.hot, IoSchedPolicy::kFifo,
                      /*write_burst=*/1, capture.ForCell(cell));
    });
  }
  const std::vector<BankResult> results =
      RunCellsOrdered(argc, argv, std::move(cells));
  for (size_t i = 0; i < std::size(configs); ++i) {
    const Config& config = configs[i];
    const BankResult& r = results[i];
    table.AddRow();
    table.AddCell(static_cast<int64_t>(config.banks));
    table.AddCell(config.hot == 0
                      ? std::string("round-robin")
                      : "segregated (hot=" + std::to_string(config.hot) + ")");
    table.AddCell(FormatDuration(static_cast<Duration>(r.read_latency.mean_ns())));
    table.AddCell(FormatDuration(static_cast<Duration>(r.read_latency.p50_ns())));
    table.AddCell(FormatDuration(static_cast<Duration>(r.read_latency.p99_ns())));
    table.AddCell(FormatDuration(static_cast<Duration>(r.read_latency.max_ns())));
    table.AddCell(FormatDuration(static_cast<Duration>(r.stall_ns)));
  }
  table.Print(std::cout);

  std::cout
      << "\nReading: round-robin banks dilute stalls roughly linearly; "
         "segregating the write\ntraffic into dedicated banks removes them "
         "almost entirely (reads run at the raw\ndevice latency). The "
         "2-bank segregated row shows the boundary condition: the cold\n"
         "partition must be large enough to actually hold the read-mostly "
         "data, or it spills\ninto the write banks and the benefit "
         "evaporates.\n";

  // Opt-in ablation (--tail): the same workload under the two I/O scheduling
  // policies. FIFO is the charge-latency oracle the tables above use;
  // priority mode lets foreground reads jump queued cleaner work (programs
  // and erases issued by the flash store's cleaner), which trims the read
  // tail without adding banks. Kept behind a flag so the default output
  // stays byte-comparable across runs.
  if (HasFlag(argc, argv, "--tail")) {
    std::cout << "\n--- Read tail under cleaning: FIFO vs priority "
                 "scheduling (--tail) ---\n\nSame store, but the writer "
                 "flushes in bursts of 8 (a write buffer draining a\ndirty "
                 "window), so flush programs and cleaner work stack on the "
                 "banks.\n\n";
    struct TailConfig {
      int banks;
      IoSchedPolicy policy;
    };
    const TailConfig tail_configs[] = {
        {1, IoSchedPolicy::kFifo},
        {1, IoSchedPolicy::kPriority},
        {2, IoSchedPolicy::kFifo},
        {2, IoSchedPolicy::kPriority},
        {4, IoSchedPolicy::kFifo},
        {4, IoSchedPolicy::kPriority},
    };
    std::vector<std::function<BankResult()>> tail_cells;
    for (const TailConfig& config : tail_configs) {
      // Tail cells get ids after the 7 default cells so a combined capture
      // keeps every configuration distinct.
      const int cell = static_cast<int>(std::size(configs) + tail_cells.size());
      tail_cells.push_back([&capture, cell, config] {
        return RunBanks(config.banks, /*hot_banks=*/0, config.policy,
                        /*write_burst=*/8, capture.ForCell(cell));
      });
    }
    const std::vector<BankResult> tail_results =
        RunCellsOrdered(argc, argv, std::move(tail_cells));
    Table tail_table({"banks", "scheduler", "read mean", "read p50",
                      "read p99", "read max", "total read stall"});
    for (size_t i = 0; i < std::size(tail_configs); ++i) {
      const TailConfig& config = tail_configs[i];
      const BankResult& r = tail_results[i];
      tail_table.AddRow();
      tail_table.AddCell(static_cast<int64_t>(config.banks));
      tail_table.AddCell(config.policy == IoSchedPolicy::kFifo
                             ? std::string("fifo")
                             : std::string("priority"));
      tail_table.AddCell(
          FormatDuration(static_cast<Duration>(r.read_latency.mean_ns())));
      tail_table.AddCell(
          FormatDuration(static_cast<Duration>(r.read_latency.p50_ns())));
      tail_table.AddCell(
          FormatDuration(static_cast<Duration>(r.read_latency.p99_ns())));
      tail_table.AddCell(
          FormatDuration(static_cast<Duration>(r.read_latency.max_ns())));
      tail_table.AddCell(FormatDuration(static_cast<Duration>(r.stall_ns)));
    }
    tail_table.Print(std::cout);
    std::cout
        << "\nReading: priority scheduling attacks the same tail as bank "
           "partitioning but from\nthe scheduler: a foreground read jumps "
           "cleaner programs/erases that are queued\nbut not yet in service. "
           "It cannot preempt an erase already on the die, so the\nworst "
           "case (read arrives mid-erase) is unchanged — banks cut the tail "
           "by\nphysical parallelism, priority by reordering, and they "
           "compose.\n";
  }
  capture.Finish();
  return 0;
}
