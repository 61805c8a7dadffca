// M1 — Microbenchmarks over the simulator's hot paths (google-benchmark).
//
// These measure *host* execution cost of the simulation primitives (not
// simulated time): device ops, flash-store writes with and without cleaning
// pressure, file-system operations, page-table walks. They guard against
// performance regressions that would make the E3/E6/E9 sweeps impractically
// slow.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/machine.h"
#include "src/core/single_level_store.h"
#include "src/device/disk_device.h"
#include "src/fs/disk_fs.h"
#include "src/harness/scaleout.h"
#include "src/obs/metrics_export.h"
#include "src/trace/generator.h"
#include "src/vm/loader.h"

namespace ssmc {
namespace {

FlashSpec MicroFlashSpec() {
  FlashSpec spec = GenericPaperFlash();
  spec.erase_sector_bytes = 4 * kKiB;
  spec.erase_ns = 10 * kMillisecond;
  spec.endurance_cycles = 100000000;
  return spec;
}

void BM_FlashRead512(benchmark::State& state) {
  SimClock clock;
  FlashDevice flash(MicroFlashSpec(), 1 * kMiB, 1, clock);
  std::vector<uint8_t> buf(512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flash.Read(0, buf));
  }
}
BENCHMARK(BM_FlashRead512);

void BM_FlashProgramEraseCycle(benchmark::State& state) {
  SimClock clock;
  FlashDevice flash(MicroFlashSpec(), 1 * kMiB, 1, clock);
  ExtentPool pool(512);
  const std::vector<uint8_t> bytes(512, 1);
  const PayloadRef data = pool.AllocateCopy(bytes.data());
  for (auto _ : state) {
    benchmark::DoNotOptimize(flash.ProgramExtent(0, data));
    benchmark::DoNotOptimize(flash.EraseSector(0));
  }
}
BENCHMARK(BM_FlashProgramEraseCycle);

void BM_FlashProgram4K(benchmark::State& state) {
  // Full-sector program + erase on the extent path: files one 4 KiB extent
  // and drops it again; no payload byte is copied or scanned.
  SimClock clock;
  FlashDevice flash(MicroFlashSpec(), 1 * kMiB, 1, clock);
  ExtentPool pool(4096);
  const std::vector<uint8_t> bytes(4096, 1);
  const PayloadRef data = pool.AllocateCopy(bytes.data());
  for (auto _ : state) {
    benchmark::DoNotOptimize(flash.ProgramExtent(0, data));
    benchmark::DoNotOptimize(flash.EraseSector(0));
  }
}
BENCHMARK(BM_FlashProgram4K);

void BM_DramWrite512(benchmark::State& state) {
  SimClock clock;
  DramDevice dram(NecDram1993(), 1 * kMiB, clock);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dram.ChargeAccess(512, /*is_write=*/true));
  }
}
BENCHMARK(BM_DramWrite512);

void BM_DiskRandomRead(benchmark::State& state) {
  SimClock clock;
  DiskDevice disk(KittyHawkDisk1993(), clock);
  disk.set_spin_down_after(0);
  std::vector<uint8_t> buf(512);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        disk.ReadSectors(rng.NextBelow(disk.num_sectors()), buf));
  }
}
BENCHMARK(BM_DiskRandomRead);

void BM_FlashStoreSequentialOverwrite(benchmark::State& state) {
  SimClock clock;
  FlashDevice flash(MicroFlashSpec(), 2 * kMiB, 1, clock);
  FlashStore store(flash, FlashStoreOptions{});
  std::vector<uint8_t> block(512, 1);
  uint64_t b = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Write(b, block));
    b = (b + 1) % store.num_blocks();
  }
  state.counters["write_amp"] = store.WriteAmplification();
}
BENCHMARK(BM_FlashStoreSequentialOverwrite);

void BM_FlashStoreHotOverwriteWithCleaning(benchmark::State& state) {
  SimClock clock;
  FlashDevice flash(MicroFlashSpec(), 2 * kMiB, 1, clock);
  FlashStoreOptions options;
  options.cleaner = CleanerPolicy::kCostBenefit;
  FlashStore store(flash, options);
  std::vector<uint8_t> block(512, 1);
  for (uint64_t i = 0; i < store.num_blocks(); ++i) {
    (void)store.Write(i, block);
  }
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Write(rng.NextBelow(64), block));
  }
  state.counters["write_amp"] = store.WriteAmplification();
}
BENCHMARK(BM_FlashStoreHotOverwriteWithCleaning);

// --- Large-device FTL hot paths ------------------------------------------
//
// Production-scale devices (4k-64k erase sectors) under sustained cleaning
// pressure. These are the paths the indexed FTL keeps O(1)/O(log N): page
// allocation, victim selection, free-sector take, and wear tracking. The
// "sectors" counter is emitted into BENCH_micro.json so the perf trajectory
// across PRs is machine-comparable.

FlashSpec LargeFlashSpec() {
  FlashSpec spec = GenericPaperFlash();
  spec.erase_sector_bytes = 4 * kKiB;  // 8 pages of 512 B.
  spec.erase_ns = 10 * kMillisecond;
  spec.endurance_cycles = 0;  // Unlimited: these runs measure host cost only.
  return spec;
}

// Fills every logical block once, so the steady-state loop starts with the
// store near capacity and every further write fights the cleaner.
void FillStore(FlashStore& store, std::span<const uint8_t> block) {
  for (uint64_t b = 0; b < store.num_blocks(); ++b) {
    (void)store.Write(b, block);
  }
}

void LargeStoreOverwrite(benchmark::State& state, CleanerPolicy cleaner,
                         WearPolicy wear, bool random_blocks, int banks,
                         int hot_banks) {
  const uint64_t sectors = static_cast<uint64_t>(state.range(0));
  SimClock clock;
  FlashDevice flash(LargeFlashSpec(), sectors * 4 * kKiB, banks, clock);
  FlashStoreOptions options;
  options.cleaner = cleaner;
  options.wear = wear;
  options.hot_bank_count = hot_banks;
  FlashStore store(flash, options);
  std::vector<uint8_t> block(512, 1);
  FillStore(store, block);
  Rng rng(7);
  uint64_t b = 0;
  for (auto _ : state) {
    if (random_blocks) {
      b = rng.NextBelow(store.num_blocks());
    } else {
      b = (b + 1) % store.num_blocks();
    }
    benchmark::DoNotOptimize(store.Write(b, block));
  }
  state.counters["sectors"] = static_cast<double>(sectors);
  state.counters["write_amp"] = store.WriteAmplification();
}

void BM_LargeStoreSeqOverwrite(benchmark::State& state) {
  // Sequential overwrite: victims are fully dead, so host cost is dominated
  // by victim selection + free-sector take, one erase per pages_per_sector
  // writes.
  LargeStoreOverwrite(state, CleanerPolicy::kCostBenefit, WearPolicy::kDynamic,
                      /*random_blocks=*/false, /*banks=*/1, /*hot_banks=*/0);
}
BENCHMARK(BM_LargeStoreSeqOverwrite)->Arg(4096)->Arg(16384)->Arg(65536)
    ->Unit(benchmark::kNanosecond);

void BM_LargeStoreRandOverwrite(benchmark::State& state) {
  // Random overwrite at ~90% utilization: high write amplification, victim
  // selection and relocation on nearly every user write.
  LargeStoreOverwrite(state, CleanerPolicy::kCostBenefit, WearPolicy::kDynamic,
                      /*random_blocks=*/true, /*banks=*/1, /*hot_banks=*/0);
}
BENCHMARK(BM_LargeStoreRandOverwrite)->Arg(4096)->Arg(16384)->Arg(65536)
    ->Unit(benchmark::kNanosecond);

void BM_LargeStoreRandOverwriteGreedyStatic(benchmark::State& state) {
  // Greedy cleaning + static wear leveling: exercises the dead-page victim
  // buckets and the min/max wear trackers instead of the cost-benefit index.
  LargeStoreOverwrite(state, CleanerPolicy::kGreedy, WearPolicy::kStatic,
                      /*random_blocks=*/true, /*banks=*/1, /*hot_banks=*/0);
}
BENCHMARK(BM_LargeStoreRandOverwriteGreedyStatic)
    ->Arg(4096)->Arg(16384)->Arg(65536)->Unit(benchmark::kNanosecond);

void BM_CleaningRelocation(benchmark::State& state) {
  // The cleaner's page-relocation path in near-isolation: with only 2%
  // overprovisioning, uniform random overwrite leaves every victim sector
  // mostly valid, so nearly all host work per user write is victim selection
  // plus live-page relocation — since the zero-copy data plane a refcount
  // bump and map update per page, not a read/program memcpy pair. Arg is the
  // page size: 8 pages per erase sector on a fixed 64 MiB card, so /512 and
  // /4096 relocate the same page count per op but 8x different byte counts —
  // the spread between them is the residual per-byte cost of relocation
  // (zero for the extent plane, two memcpys per page for the flat plane it
  // replaced). Both are reported in CI alongside BM_SimCoreReplay and
  // BM_LargeStoreRandOverwrite/65536 (scripts/bench_gate.py).
  const uint64_t page_bytes = static_cast<uint64_t>(state.range(0));
  SimClock clock;
  FlashSpec spec = LargeFlashSpec();
  spec.erase_sector_bytes = 8 * page_bytes;
  FlashDevice flash(spec, 64 * kMiB, /*banks=*/1, clock);
  FlashStoreOptions options;
  options.block_bytes = page_bytes;
  options.cleaner = CleanerPolicy::kCostBenefit;
  options.wear = WearPolicy::kDynamic;
  options.overprovision = 0.02;
  FlashStore store(flash, options);
  std::vector<uint8_t> block(page_bytes, 1);
  FillStore(store, block);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.Write(rng.NextBelow(store.num_blocks()), block));
  }
  state.counters["write_amp"] = store.WriteAmplification();
  state.counters["relocations_per_op"] =
      static_cast<double>(store.stats().gc_relocations.value()) /
      static_cast<double>(std::max<int64_t>(state.iterations(), 1));
}
BENCHMARK(BM_CleaningRelocation)->Arg(512)->Arg(4096)
    ->Unit(benchmark::kNanosecond);

void BM_LargeStoreSegregatedChurn(benchmark::State& state) {
  // Bank segregation with a hot-range working set: exercises the cold-sector
  // eviction path on top of cleaning.
  LargeStoreOverwrite(state, CleanerPolicy::kCostBenefit, WearPolicy::kDynamic,
                      /*random_blocks=*/true, /*banks=*/8, /*hot_banks=*/2);
}
BENCHMARK(BM_LargeStoreSegregatedChurn)->Arg(4096)->Arg(16384)
    ->Unit(benchmark::kNanosecond);

void BM_ReadTailUnderCleaning(benchmark::State& state) {
  // Foreground reads against a near-full 1-bank store whose cleaner issues
  // background programs/erases. Arg(0) = FIFO (the charge-latency oracle),
  // Arg(1) = priority scheduling (reads jump queued cleaner work). Host
  // ns/op guards the scheduler's queue mechanics; the sim_read_p99_ns
  // counter records the simulated read tail each policy produces, so the
  // FIFO-vs-priority ablation is machine-comparable across PRs.
  const IoSchedPolicy policy = state.range(0) == 0 ? IoSchedPolicy::kFifo
                                                   : IoSchedPolicy::kPriority;
  SimClock clock;
  FlashDevice flash(MicroFlashSpec(), 2 * kMiB, 1, clock);
  flash.scheduler().set_policy(policy);
  FlashStoreOptions options;
  options.background_writes = true;  // Cleaner work queues, never blocks us.
  FlashStore store(flash, options);
  std::vector<uint8_t> block(512, 1);
  FillStore(store, block);
  Rng rng(11);
  std::vector<uint8_t> out(512);
  LatencyRecorder read_latency;
  for (auto _ : state) {
    (void)store.Write(rng.NextBelow(64), block);  // Churn: forces cleaning.
    const SimTime before = clock.now();
    benchmark::DoNotOptimize(
        store.Read(64 + rng.NextBelow(store.num_blocks() - 64), out));
    read_latency.Record(clock.now() - before);
    // Think time just above the ~5.2 ms/write production rate: the queue
    // drains between cleaning bursts instead of growing without bound, so
    // reads contend with bursts (where policy matters), not a backlog.
    clock.Advance(8 * kMillisecond);
  }
  state.counters["sim_read_p99_ns"] =
      static_cast<double>(read_latency.p99_ns());
  state.counters["sim_read_mean_ns"] = read_latency.mean_ns();
}
BENCHMARK(BM_ReadTailUnderCleaning)->Arg(0)->Arg(1)
    ->Unit(benchmark::kNanosecond);

void BM_MemoryFsCreateWriteUnlink(benchmark::State& state) {
  MobileComputer machine(NotebookConfig());
  std::vector<uint8_t> data(4096, 1);
  uint64_t i = 0;
  for (auto _ : state) {
    const std::string path = "/f" + std::to_string(i++);
    (void)machine.fs().Create(path);
    (void)machine.fs().Write(path, 0, data);
    (void)machine.fs().Unlink(path);
  }
}
BENCHMARK(BM_MemoryFsCreateWriteUnlink);

void BM_MemoryFsRead4K(benchmark::State& state) {
  MobileComputer machine(NotebookConfig());
  (void)machine.fs().Create("/f");
  std::vector<uint8_t> data(4096, 1);
  (void)machine.fs().Write("/f", 0, data);
  (void)machine.fs().Sync();
  std::vector<uint8_t> out(4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine.fs().Read("/f", 0, out));
  }
}
BENCHMARK(BM_MemoryFsRead4K);

// --- Write-buffer / residency boundary -------------------------------------
//
// The layer between the file system and the FTL: the DRAM write buffer and
// the residency tiers. Both rows drive MemoryFileSystem's public API over a
// bare storage stack, so the per-block bookkeeping (dirty/clean/NVM state,
// LRUs, heat) is the cost that moves.

struct BoundaryStack {
  BoundaryStack(ResidencyOptions residency, uint64_t nvm_bytes,
                MemoryFsOptions fs_options)
      : dram(NecDram1993(), 1 * kMiB, clock),
        flash(MicroFlashSpec(), 4 * kMiB, 4, clock),
        store(flash, FlashStoreOptions{}) {
    if (nvm_bytes > 0) {
      nvm = std::make_unique<NvmDevice>(PcmNvm(), nvm_bytes, 2, clock);
    }
    storage = std::make_unique<StorageManager>(dram, store, 512, residency,
                                               nvm.get());
    fs = std::make_unique<MemoryFileSystem>(*storage, fs_options);
  }

  SimClock clock;
  DramDevice dram;
  FlashDevice flash;
  FlashStore store;
  std::unique_ptr<NvmDevice> nvm;
  std::unique_ptr<StorageManager> storage;
  std::unique_ptr<MemoryFileSystem> fs;
};

void BM_WriteBufferChurn(benchmark::State& state) {
  // Sub-block overwrites over 16 files x 32 blocks, four times the buffer:
  // every op is a copy-on-write into the buffer or an absorbed overwrite,
  // with capacity evictions and a periodic age flush draining it.
  MemoryFsOptions fs_options;
  fs_options.write_buffer_pages = 128;
  fs_options.flush_age = 20 * kMillisecond;
  BoundaryStack stack(ResidencyOptions{}, 0, fs_options);
  MemoryFileSystem& fs = *stack.fs;
  std::vector<std::string> paths;
  for (int f = 0; f < 16; ++f) {
    paths.push_back("/f" + std::to_string(f));
    (void)fs.Create(paths.back());
    (void)fs.Write(paths.back(), 0, std::vector<uint8_t>(32 * 512, 1));
  }
  (void)fs.Sync();
  std::vector<uint8_t> data(100, 7);
  Rng rng(5);
  uint64_t i = 0;
  for (auto _ : state) {
    const std::string& path = paths[rng.NextBelow(paths.size())];
    benchmark::DoNotOptimize(
        fs.Write(path, rng.NextBelow(32 * 512 - 100), data));
    stack.clock.Advance(100 * kMicrosecond);
    if (++i % 64 == 0) {
      (void)fs.TickFlush(stack.clock.now());
    }
  }
  // Per op: the share of writes absorbed in DRAM and of capacity evictions.
  const WriteBuffer::Stats& wb = fs.write_buffer().stats();
  state.counters["absorbed"] = benchmark::Counter(
      static_cast<double>(wb.absorbed_overwrites.value()),
      benchmark::Counter::kAvgIterations);
  state.counters["evictions"] = benchmark::Counter(
      static_cast<double>(wb.capacity_evictions.value()),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_WriteBufferChurn);

void BM_ResidencyLadderRead(benchmark::State& state) {
  // Read-promote with an NVM tier: 512-byte reads over 1024 synced blocks,
  // against a 102-page DRAM clean cache over a 256-page NVM tier. Reads
  // climb flash -> NVM -> DRAM and the DRAM tail falls back into NVM.
  ResidencyOptions residency;
  residency.policy = ResidencyPolicy::kReadPromote;
  residency.max_clean_fraction = 0.05;
  BoundaryStack stack(residency, 256 * 512, MemoryFsOptions{});
  MemoryFileSystem& fs = *stack.fs;
  std::vector<std::string> paths;
  for (int f = 0; f < 16; ++f) {
    paths.push_back("/f" + std::to_string(f));
    (void)fs.Create(paths.back());
    (void)fs.Write(paths.back(), 0, std::vector<uint8_t>(64 * 512, 1));
  }
  (void)fs.Sync();
  std::vector<uint8_t> out(512);
  Rng rng(7);
  for (auto _ : state) {
    const std::string& path = paths[rng.NextBelow(paths.size())];
    benchmark::DoNotOptimize(fs.Read(path, rng.NextBelow(64) * 512, out));
    stack.clock.Advance(10 * kMicrosecond);
  }
  // Per op: climbs from NVM into DRAM and falls from DRAM back into NVM.
  const ResidencyManager::Stats& res = stack.storage->residency().stats();
  state.counters["nvm_to_dram"] = benchmark::Counter(
      static_cast<double>(res.nvm_to_dram_promotions.value()),
      benchmark::Counter::kAvgIterations);
  state.counters["demotions_to_nvm"] = benchmark::Counter(
      static_cast<double>(res.demotions_to_nvm.value()),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ResidencyLadderRead);

void BM_DiskFsRead4KWarm(benchmark::State& state) {
  SimClock clock;
  DiskDevice disk(KittyHawkDisk1993(), clock);
  disk.set_spin_down_after(0);
  DiskFileSystem fs(disk, DiskFsOptions{});
  (void)fs.Create("/f");
  std::vector<uint8_t> data(4096, 1);
  (void)fs.Write("/f", 0, data);
  std::vector<uint8_t> out(4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs.Read("/f", 0, out));
  }
}
BENCHMARK(BM_DiskFsRead4KWarm);

void BM_FlashStoreSegregatedWrite(benchmark::State& state) {
  SimClock clock;
  FlashDevice flash(MicroFlashSpec(), 2 * kMiB, 4, clock);
  FlashStoreOptions options;
  options.hot_bank_count = 1;
  FlashStore store(flash, options);
  std::vector<uint8_t> block(512, 1);
  Rng rng(3);
  for (uint64_t b = 0; b < store.num_blocks(); ++b) {
    (void)store.Write(b, block,
                      b < store.num_blocks() / 10
                          ? WriteStream::kUser
                          : WriteStream::kRelocation);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.Write(rng.NextBelow(store.num_blocks() / 10), block));
  }
}
BENCHMARK(BM_FlashStoreSegregatedWrite);

// Host cost of one journal compaction: serialize the 132-node namespace
// into the dense snapshot and write it through the journal's checkpoint
// chain.
void BM_MetadataCheckpoint(benchmark::State& state) {
  MachineConfig config = NotebookConfig();
  config.journal = true;
  MobileComputer machine(config);
  for (int d = 0; d < 4; ++d) {
    (void)machine.fs().Mkdir("/d" + std::to_string(d));
    for (int f = 0; f < 32; ++f) {
      const std::string path =
          "/d" + std::to_string(d) + "/f" + std::to_string(f);
      (void)machine.fs().Create(path);
      std::vector<uint8_t> data(2048, 1);
      (void)machine.fs().Write(path, 0, data);
    }
  }
  (void)machine.fs().Sync();
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine.fs().CheckpointMetadata());
  }
  state.counters["files"] = 128;
}
BENCHMARK(BM_MetadataCheckpoint);

void BM_TraceGeneration(benchmark::State& state) {
  WorkloadOptions options = OfficeWorkload();
  options.duration = kMinute;
  uint64_t records = 0;
  for (auto _ : state) {
    options.seed += 1;
    WorkloadGenerator generator(options);
    const Trace trace = generator.Generate();
    records += trace.size();
    benchmark::DoNotOptimize(trace.size());
  }
  state.counters["records_per_iter"] =
      static_cast<double>(records) /
      static_cast<double>(std::max<int64_t>(1, state.iterations()));
}
BENCHMARK(BM_TraceGeneration);

void BM_TraceGenerationUser(benchmark::State& state) {
  // One fleet user's trace (RunScaleout's per-user workload): two seconds,
  // about 190 records, alternating office and write-hot users. A trace this
  // short shows any fixed per-Generate() cost next to the per-record work.
  const ScaleoutOptions fleet;
  uint64_t user = 0;
  uint64_t records = 0;
  for (auto _ : state) {
    WorkloadOptions options =
        user % 2 != 0 ? WriteHotWorkload() : OfficeWorkload();
    options.seed = DeriveCellSeed(fleet.base_seed, 2 * user);
    options.duration = 2 * kSecond;
    options.max_file_bytes = fleet.max_file_bytes;
    ++user;
    const Trace trace = WorkloadGenerator(options).Generate();
    records += trace.size();
    benchmark::DoNotOptimize(trace.size());
  }
  state.counters["records_per_iter"] =
      static_cast<double>(records) /
      static_cast<double>(std::max<int64_t>(1, state.iterations()));
}
BENCHMARK(BM_TraceGenerationUser);

void BM_FleetUserTeardown(benchmark::State& state) {
  // Destroying one fleet user's machine after its replay (RunScaleout's
  // per-user teardown): the file system hands back its dirty pages, slots
  // and namespace, then the storage stack and the devices go. Generating
  // the trace, building the machine and replaying run with the timer paused.
  const ScaleoutOptions fleet;
  uint64_t user = 0;
  uint64_t ops = 0;
  for (auto _ : state) {
    state.PauseTiming();
    WorkloadOptions options =
        user % 2 != 0 ? WriteHotWorkload() : OfficeWorkload();
    options.seed = DeriveCellSeed(fleet.base_seed, 2 * user);
    options.duration = 2 * kSecond;
    options.max_file_bytes = fleet.max_file_bytes;
    MachineConfig config = NotebookConfig();
    config.seed = DeriveCellSeed(fleet.base_seed, 2 * user + 1);
    ++user;
    auto machine = std::make_unique<MobileComputer>(config);
    ops += machine->RunTrace(WorkloadGenerator(options).Generate()).ops;
    state.ResumeTiming();
    machine.reset();
  }
  benchmark::DoNotOptimize(ops);
}
BENCHMARK(BM_FleetUserTeardown)->Unit(benchmark::kMicrosecond);

void BM_TraceReplay(benchmark::State& state) {
  // Host cost of replaying one pre-generated office trace on a fresh
  // machine. Exercises the replayer's per-record path (period-256 pattern
  // fill, one-shot buffer reservation) on top of the FS.
  WorkloadOptions options = OfficeWorkload();
  options.duration = kMinute;
  options.max_file_bytes = 64 * 1024;
  const Trace trace = WorkloadGenerator(options).Generate();
  uint64_t records = 0;
  for (auto _ : state) {
    MobileComputer machine(NotebookConfig());
    const ReplayReport report = machine.RunTrace(trace);
    records += report.ops;
    benchmark::DoNotOptimize(report.ops);
  }
  state.counters["records_per_iter"] =
      static_cast<double>(records) /
      static_cast<double>(std::max<int64_t>(1, state.iterations()));
}
BENCHMARK(BM_TraceReplay)->Unit(benchmark::kMicrosecond);

void BM_SimCoreReplay(benchmark::State& state) {
  // Macro-benchmark over the whole simulation core: a five-minute office
  // workload replayed on a fresh machine each iteration — event queue, I/O
  // pipeline, FTL, file system, and tracer all on the hot path. The
  // sim_ops_per_s rate (trace records retired per host second) is the
  // headline figure: CI's bench-smoke leg reports it against the committed
  // BENCH_micro.json baseline (scripts/bench_gate.py, a report, not a gate);
  // scripts/regen_experiments.sh refreshes the baseline after intentional
  // changes.
  WorkloadOptions options = OfficeWorkload();
  options.duration = 5 * kMinute;
  options.max_file_bytes = 64 * 1024;
  const Trace trace = WorkloadGenerator(options).Generate();
  uint64_t ops = 0;
  for (auto _ : state) {
    MobileComputer machine(NotebookConfig());
    const ReplayReport report = machine.RunTrace(trace);
    ops += report.ops;
    benchmark::DoNotOptimize(report.ops);
  }
  state.counters["sim_ops_per_s"] = benchmark::Counter(
      static_cast<double>(ops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimCoreReplay)->Unit(benchmark::kMillisecond);

void BM_MachineConstruct(benchmark::State& state) {
  // Builds and destroys one notebook machine (16 MiB DRAM) with
  // range(0) MiB of flash: the per-user setup a fleet run (RunScaleout)
  // pays before replaying anything, at the notebook's 32 MiB and at 16x
  // that. Allocator free lists, FTL maps and per-sector state fill in as
  // they are used, so the two rows should cost about the same.
  MachineConfig config = NotebookConfig();
  config.flash_bytes = static_cast<uint64_t>(state.range(0)) * kMiB;
  for (auto _ : state) {
    MobileComputer machine(config);
    benchmark::DoNotOptimize(&machine);
  }
}
BENCHMARK(BM_MachineConstruct)
    ->Arg(32)
    ->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_SingleLevelStoreLoad(benchmark::State& state) {
  MobileComputer machine(NotebookConfig());
  (void)machine.fs().Create("/f");
  std::vector<uint8_t> data(64 * kKiB, 1);
  (void)machine.fs().Write("/f", 0, data);
  (void)machine.fs().Sync();
  machine.Idle(kMinute);
  SingleLevelStore store(machine.storage(), machine.fs());
  const uint64_t base = store.Attach("/f").value();
  std::vector<uint8_t> out(512);
  uint64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Load(base + off, out));
    off = (off + 512) % (64 * kKiB);
  }
}
BENCHMARK(BM_SingleLevelStoreLoad);

void BM_PageTableWalk(benchmark::State& state) {
  PageTable table(512, nullptr);
  for (uint64_t va = 0; va < 1024 * 512; va += 512) {
    PageTableEntry& pte = table.FindOrCreate(va);
    table.MarkPresent(pte, true);
  }
  uint64_t va = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Find(va));
    va = (va + 512) % (1024 * 512);
  }
}
BENCHMARK(BM_PageTableWalk);

void BM_AddressSpaceDramRead(benchmark::State& state) {
  MobileComputer machine(NotebookConfig());
  AddressSpace& space = machine.CreateAddressSpace();
  (void)space.MapAnonymous(1 << 20, 64 * kKiB, "bench");
  std::vector<uint8_t> data(64 * kKiB, 1);
  (void)space.Write(1 << 20, data);
  std::vector<uint8_t> out(512);
  uint64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.Read((1 << 20) + off, out));
    off = (off + 512) % (64 * kKiB);
  }
}
BENCHMARK(BM_AddressSpaceDramRead);

// Console reporter that also collects every run as a MetricsSnapshot row
// and dumps them through the shared metrics-snapshot emitter (same code
// path as BENCH_scaleout.json and the benches' --metrics flag): op name,
// ns/op (normalized to nanoseconds), counters; keys in sorted order.
class JsonDumpingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) {
        continue;
      }
      MetricsSnapshot row;
      row.Set("op", MetricValue::MakeString(run.benchmark_name()));
      // GetAdjustedRealTime() is in the run's display unit; normalize so the
      // JSON field is always nanoseconds regardless of ->Unit().
      double to_ns = 1.0;
      switch (run.time_unit) {
        case benchmark::kNanosecond:  to_ns = 1.0;  break;
        case benchmark::kMicrosecond: to_ns = 1e3;  break;
        case benchmark::kMillisecond: to_ns = 1e6;  break;
        case benchmark::kSecond:      to_ns = 1e9;  break;
      }
      row.Set("ns_per_op",
              MetricValue::MakeDouble(run.GetAdjustedRealTime() * to_ns));
      for (const auto& [counter_name, counter] : run.counters) {
        row.Set(counter_name,
                MetricValue::MakeDouble(static_cast<double>(counter.value)));
      }
      rows_.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  bool WriteJson(const std::string& path) const {
    return WriteMetricsJsonArrayFile(path, rows_);
  }

 private:
  std::vector<MetricsSnapshot> rows_;
};

}  // namespace
}  // namespace ssmc

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  ssmc::JsonDumpingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!reporter.WriteJson("BENCH_micro.json")) {
    fprintf(stderr, "failed to write BENCH_micro.json\n");
    return 1;
  }
  return 0;
}
