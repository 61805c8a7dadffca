// perfbench: one run of one workload of the ssmc repository benchmark
// (perfbench/README.md lists the workloads, the metrics, and which layer
// metric should move which end-to-end metric).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--spans <path>]
//
// --trace 0 times repetitions of the workload through the program's own entry
// points (MobileComputer::RunTrace, RunScaleout) and prints the end-to-end
// metrics. --trace 1 instead replays with a host-time span around every call
// the benchmark makes into a layer and prints the per-layer metrics; --spans
// writes the first spans as a Chrome trace. Both modes replay every trace once
// more against an in-memory model of the namespace, check every result, and
// check that every repetition reproduced the same simulated results. The last
// line of stdout is one JSON object: correct, attempted, failed, metrics.

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/machine.h"
#include "src/harness/parallel_runner.h"
#include "src/harness/scaleout.h"
#include "src/trace/generator.h"

namespace ssmc {
namespace {

int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time of the calling thread.
int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Nearest-rank quantile, q in (0, 1].
template <typename T>
double Quantile(std::vector<T> v, double q) {
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::max<size_t>(rank, 1) - 1]);
}

// Geometric mean of positive values: a long tail of a few values moves it
// far less than it moves the arithmetic mean.
double GeometricMean(const std::vector<double>& v) {
  double log_sum = 0;
  for (double x : v) {
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// --- Host speed -------------------------------------------------------------

// On a shared host the CPU's speed drifts by up to 1.5x over seconds as other
// tenants load the machine, which would drown any change to the simulator in
// noise. So every host time is reported at a reference speed: it is scaled
// by kReferenceNs over the time a fixed calibration kernel took next to it.
// The kernel does what the simulator's hot paths do (string keys hashed into
// a map, small allocations, block copies, sorting) and none of it is program
// code, so no change to the program can move it.
class HostSpeed {
 public:
  // The kernel's time at the reference speed: about its time on the 4-vCPU
  // Xeon (Sapphire Rapids) KVM guest the benchmark was tuned on, so reported
  // times are close to wall-clock times there.
  static constexpr double kReferenceNs = 6e6;

  HostSpeed() { last_ns_ = Calibrate(); }

  // Runs `fn` and returns its thread CPU time in ns at the reference speed,
  // calibrated by the mean of the kernel runs just before and just after.
  template <typename Fn>
  double Time(Fn&& fn) {
    const int64_t start = CpuNs();
    fn();
    const double ns = static_cast<double>(CpuNs() - start);
    const double before = last_ns_;
    last_ns_ = Calibrate();
    return ns * kReferenceNs / ((before + last_ns_) / 2);
  }

  // Reference-speed factor over the whole run so far (median calibration).
  double Factor() const {
    return kReferenceNs / Quantile(calibrations_, 0.5);
  }

 private:
  static constexpr uint64_t kXorshiftSeed = 88172645463325252ull;

  static uint64_t Xorshift(uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }

  double Calibrate() {
    const int64_t start = CpuNs();
    std::unordered_map<std::string, uint64_t> map;
    std::vector<std::unique_ptr<std::array<uint64_t, 8>>> nodes;
    std::vector<uint8_t> a(64 * kKiB, 1);
    std::vector<uint8_t> b(64 * kKiB);
    std::vector<uint64_t> v(20000);
    uint64_t x = kXorshiftSeed;
    for (int round = 0; round < 2; ++round) {
      for (int i = 0; i < 4000; ++i) {
        map["/dir" + std::to_string(i % 8) + "/f" + std::to_string(i)] += 1;
      }
      for (int i = 0; i < 4000; ++i) {
        x += map.count("/dir" + std::to_string(i % 8) + "/f" +
                       std::to_string(Xorshift(x) % 8000));
      }
      for (int i = 0; i < 20000; ++i) {
        nodes.push_back(std::make_unique<std::array<uint64_t, 8>>());
        (*nodes.back())[i % 8] = x;
      }
      nodes.clear();
      for (size_t i = 0; i < 32; ++i) {
        std::memcpy(b.data(), a.data(), a.size());
        a[i] = b[i * 7];
      }
      for (uint64_t& e : v) {
        e = Xorshift(x);
      }
      std::sort(v.begin(), v.end());
    }
    sink_ = map.size() + v[0] + a[3];
    calibrations_.push_back(static_cast<double>(CpuNs() - start));
    return calibrations_.back();
  }

  std::vector<double> calibrations_;
  double last_ns_ = 0;
  volatile uint64_t sink_ = 0;  // Keeps the kernel's results live.
};

// --- Workloads --------------------------------------------------------------

// One simulated machine replaying one trace.
struct Job {
  MachineConfig config;
  Trace trace;
};

struct Workload {
  const char* name;
  int jobs;  // Machines (each with its own trace) per repetition.
  Job (*make_job)(uint64_t seed, int index);
  // Repetitions run through RunScaleout (one cell, one thread) instead of a
  // machine per job; make_job then mirrors the harness's per-user setup.
  bool fleet;
};

Job MakeJob(MachineConfig config, WorkloadOptions workload, uint64_t seed,
            int index) {
  workload.seed = DeriveCellSeed(seed, 2 * static_cast<uint64_t>(index));
  config.seed = DeriveCellSeed(seed, 2 * static_cast<uint64_t>(index) + 1);
  return {std::move(config), WorkloadGenerator(workload).Generate()};
}

// Mixed office traffic on the notebook preset: namespace and DRAM write
// buffer work, flash mostly idle (the BM_SimCoreReplay shape).
Job OfficeJob(uint64_t seed, int index) {
  WorkloadOptions workload = OfficeWorkload();
  workload.duration = 5 * kMinute;
  workload.max_file_bytes = 64 * kKiB;
  return MakeJob(NotebookConfig(), workload, seed, index);
}

// Overwrite-heavy traffic whose live files fill most of a 2 MiB two-bank
// card behind a 64 KiB write buffer: flushes keep the flash bank queues
// busy and the FTL cleaner erasing.
Job WriteHotJob(uint64_t seed, int index) {
  MachineConfig config = NotebookConfig();
  config.name = "writehot";
  config.dram_bytes = 2 * kMiB;
  config.flash_bytes = 2 * kMiB;
  config.flash_banks = 2;
  config.fs_options.write_buffer_pages = 128;
  config.flush_period = kSecond;
  WorkloadOptions workload = WriteHotWorkload();
  workload.duration = 90 * kSecond;
  workload.initial_files = 256;
  workload.min_file_bytes = 2 * kKiB;
  workload.max_file_bytes = 32 * kKiB;
  return MakeJob(config, workload, seed, index);
}

// Read-mostly traffic whose file set outgrows a 1 MiB DRAM: reads climb the
// residency ladder (flash -> NVM -> DRAM clean cache).
Job NvmJob(uint64_t seed, int index) {
  MachineConfig config = NotebookConfig();
  config.name = "nvm";
  config.dram_bytes = 1 * kMiB;
  config.fs_options.write_buffer_pages = 256;
  config.nvm_bytes = 1 * kMiB;
  config.nvm_banks = 2;
  config.residency.policy = ResidencyPolicy::kReadPromote;
  config.residency.max_clean_fraction = 0.25;
  WorkloadOptions workload = ReadMostlyWorkload();
  workload.duration = 3 * kMinute;
  workload.initial_files = 256;
  workload.max_file_bytes = 64 * kKiB;
  return MakeJob(config, workload, seed, index);
}

constexpr int kFleetUsers = 512;

ScaleoutOptions FleetOptions(uint64_t seed) {
  ScaleoutOptions options;
  options.users = kFleetUsers;
  options.cells = 1;
  options.jobs = 1;
  options.base_seed = seed;
  options.user_duration = 2 * kSecond;
  options.keep_per_user = false;
  return options;
}

// User `index` of RunScaleout(FleetOptions(seed)), built the way the harness
// builds it (even users office, odd users write-hot). The verification pass
// checks that these jobs sum to the harness's aggregate.
Job FleetJob(uint64_t seed, int index) {
  const ScaleoutOptions options = FleetOptions(seed);
  const uint64_t user = static_cast<uint64_t>(index);
  WorkloadOptions workload =
      index % 2 != 0 ? WriteHotWorkload() : OfficeWorkload();
  workload.seed = DeriveCellSeed(options.base_seed, 2 * user);
  workload.duration = options.user_duration;
  workload.max_file_bytes = options.max_file_bytes;
  MachineConfig config = NotebookConfig();
  config.name = "scaleout-user-" + std::to_string(index);
  config.seed = DeriveCellSeed(options.base_seed, 2 * user + 1);
  return {std::move(config), WorkloadGenerator(workload).Generate()};
}

const Workload kWorkloads[] = {
    {"office", 64, OfficeJob, false},
    {"writehot", 48, WriteHotJob, false},
    {"nvm", 64, NvmJob, false},
    {"fleet", kFleetUsers, FleetJob, true},
};

// --- Spans ------------------------------------------------------------------

// Host-time spans the benchmark records around its own calls into each
// layer. Totals cover every span; the first kKeptSpans are kept for --spans.
enum Layer {
  kGenerate,   // WorkloadGenerator::Generate (trace layer).
  kConstruct,  // MobileComputer construction (core + every device model).
  kOp,         // One replayed record; its children are the spans below.
  kEvents,     // EventQueue::RunUntil to the op's start: flush daemon,
               // write buffer, FTL cleaner, device completions.
  kFsRead,     // MemoryFileSystem::Read and everything beneath it.
  kFsWrite,    // MemoryFileSystem::Write and everything beneath it.
  kFsMeta,     // Create / Unlink / Mkdir / Stat.
  kTeardown,   // MobileComputer destruction.
  kNumLayers,
};
constexpr const char* kLayerNames[kNumLayers] = {
    "generate", "construct", "op",       "events",
    "fs.read",  "fs.write",  "fs.meta", "teardown"};

class Spans {
 public:
  static constexpr size_t kKeptSpans = 20000;

  // Reserved once, so keeping a span never reallocates inside a timed slice.
  Spans() { kept_.reserve(kKeptSpans); }

  struct Open {
    Layer layer;
    int64_t start;
    int64_t id;  // Index among kept spans; -1 once the cap is reached.
  };

  Open Begin(Layer layer, int64_t parent = -1) {
    int64_t id = -1;
    if (kept_.size() < kKeptSpans) {
      id = static_cast<int64_t>(kept_.size());
      kept_.push_back({layer, 0, 0, parent});
    }
    return {layer, HostNs(), id};
  }

  void End(const Open& open) {
    const int64_t dur = HostNs() - open.start;
    total_ns_[open.layer] += dur;
    count_[open.layer] += 1;
    if (open.id >= 0) {
      kept_[static_cast<size_t>(open.id)].start = open.start;
      kept_[static_cast<size_t>(open.id)].dur = dur;
    }
  }

  int64_t total_ns(Layer layer) const { return total_ns_[layer]; }
  // Mean span duration (0 when the layer never ran).
  double MeanNs(Layer layer) const {
    return count_[layer] == 0 ? 0.0
                              : static_cast<double>(total_ns_[layer]) /
                                    static_cast<double>(count_[layer]);
  }

  bool WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    const int64_t origin = kept_.empty() ? 0 : kept_.front().start;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < kept_.size(); ++i) {
      const Kept& s = kept_[i];
      out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << kLayerNames[s.layer]
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << static_cast<double>(s.start - origin) / 1e3
          << ",\"dur\":" << static_cast<double>(s.dur) / 1e3
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Kept {
    Layer layer;
    int64_t start;
    int64_t dur;
    int64_t parent;
  };
  std::array<int64_t, kNumLayers> total_ns_ = {};
  std::array<uint64_t, kNumLayers> count_ = {};
  std::vector<Kept> kept_;
};

// Runs `fn` inside a span of `layer` (no span when `spans` is null).
template <typename Fn>
auto Timed(Spans* spans, Layer layer, int64_t parent, Fn&& fn) {
  if (spans == nullptr) {
    return fn();
  }
  const Spans::Open open = spans->Begin(layer, parent);
  auto result = fn();
  spans->End(open);
  return result;
}

// --- Replay -----------------------------------------------------------------

// What every repetition must reproduce exactly.
struct Summary {
  uint64_t ops = 0;
  uint64_t failures = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t latency_ns = 0;  // Sum of simulated op latencies.

  void Add(const Summary& s) {
    ops += s.ops;
    failures += s.failures;
    bytes_read += s.bytes_read;
    bytes_written += s.bytes_written;
    latency_ns += s.latency_ns;
  }
  void Add(const ReplayReport& r) {
    Add(Summary{r.ops, r.failures, r.bytes_read, r.bytes_written,
                r.all_ops.total_ns()});
  }
  bool operator==(const Summary&) const = default;
};

// The namespace the trace should produce, and the first disagreement.
struct NamespaceModel {
  std::unordered_map<std::string, std::vector<uint8_t>> files;
  std::unordered_set<std::string> dirs;
  std::string error;

  void Check(bool ok, const TraceRecord& r, const char* what) {
    if (!ok && error.empty()) {
      error = std::string(what) + " at " + std::string(TraceOpName(r.op)) +
              " " + r.path + " @" + std::to_string(r.offset) + "+" +
              std::to_string(r.length);
    }
  }
  bool Exists(const std::string& path) const {
    return files.count(path) != 0 || dirs.count(path) != 0;
  }
};

// Deterministic write content, different per path and offset.
void FillPattern(const std::string& path, uint64_t offset,
                 std::span<uint8_t> out) {
  const uint64_t h = std::hash<std::string>()(path);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<uint8_t>(((h + offset + i) * 131) >> 3);
  }
}

struct ReplayResult {
  Summary summary;
  std::vector<Duration> latencies;  // Simulated, one per record.
};

// Replays `trace` the way TraceReplayer does: each record starts at
// max(its time, the previous completion), after the events due by then. With
// `model`, every result is checked against it; with `spans`, every call into
// a layer is timed.
ReplayResult Replay(MobileComputer& machine, const Trace& trace,
                    NamespaceModel* model, Spans* spans) {
  ReplayResult result;
  result.latencies.reserve(trace.size());
  MemoryFileSystem& fs = machine.fs();
  SimClock& clock = machine.clock();
  const SimTime started = clock.now();
  std::vector<uint8_t> buffer;
  for (const TraceRecord& r : trace.records()) {
    std::optional<Spans::Open> op_span;
    if (spans != nullptr) {
      op_span = spans->Begin(kOp);
    }
    const int64_t op_id = op_span ? op_span->id : -1;
    const SimTime due_at = std::max(clock.now(), started + r.at);
    Timed(spans, kEvents, op_id, [&] {
      machine.events().RunUntil(due_at);
      return 0;
    });
    const SimTime before = clock.now();
    bool ok = false;
    switch (r.op) {
      case TraceOp::kWrite: {
        buffer.resize(r.length);
        FillPattern(r.path, r.offset, buffer);
        const Result<uint64_t> n = Timed(spans, kFsWrite, op_id, [&] {
          return fs.Write(r.path, r.offset, buffer);
        });
        ok = n.ok();
        result.summary.bytes_written += ok ? n.value() : 0;
        if (model != nullptr) {
          auto it = model->files.find(r.path);
          model->Check(ok == (it != model->files.end()), r, "write status");
          if (ok && it != model->files.end()) {
            model->Check(n.value() == r.length, r, "write length");
            std::vector<uint8_t>& bytes = it->second;
            bytes.resize(std::max<uint64_t>(bytes.size(), r.offset + r.length));
            std::copy(buffer.begin(), buffer.end(),
                      bytes.begin() + static_cast<ptrdiff_t>(r.offset));
          }
        }
        break;
      }
      case TraceOp::kRead: {
        buffer.resize(r.length);
        const Result<uint64_t> n = Timed(spans, kFsRead, op_id, [&] {
          return fs.Read(r.path, r.offset, buffer);
        });
        ok = n.ok();
        result.summary.bytes_read += ok ? n.value() : 0;
        if (model != nullptr) {
          auto it = model->files.find(r.path);
          model->Check(ok == (it != model->files.end()), r, "read status");
          if (ok && it != model->files.end()) {
            const std::vector<uint8_t>& bytes = it->second;
            const uint64_t avail =
                r.offset >= bytes.size() ? 0 : bytes.size() - r.offset;
            const uint64_t want = std::min(r.length, avail);
            model->Check(n.value() == want &&
                             std::equal(buffer.begin(),
                                        buffer.begin() +
                                            static_cast<ptrdiff_t>(want),
                                        bytes.begin() +
                                            static_cast<ptrdiff_t>(r.offset)),
                         r, "read content");
          }
        }
        break;
      }
      case TraceOp::kCreate:
      case TraceOp::kUnlink:
      case TraceOp::kMkdir:
      case TraceOp::kStat: {
        uint64_t size = 0;
        ok = Timed(spans, kFsMeta, op_id, [&] {
          switch (r.op) {
            case TraceOp::kCreate:
              return fs.Create(r.path).ok();
            case TraceOp::kUnlink:
              return fs.Unlink(r.path).ok();
            case TraceOp::kMkdir:
              return fs.Mkdir(r.path).ok();
            default: {
              const Result<FileInfo> info = fs.Stat(r.path);
              size = info.ok() ? info.value().size : 0;
              return info.ok();
            }
          }
        });
        if (model != nullptr) {
          const bool creates =
              r.op == TraceOp::kCreate || r.op == TraceOp::kMkdir;
          model->Check(ok == (creates != model->Exists(r.path)), r,
                       "metadata status");
          if (ok && r.op == TraceOp::kCreate) {
            model->files[r.path];
          } else if (ok && r.op == TraceOp::kMkdir) {
            model->dirs.insert(r.path);
          } else if (ok && r.op == TraceOp::kUnlink) {
            model->files.erase(r.path);
          } else if (ok && r.op == TraceOp::kStat) {
            auto it = model->files.find(r.path);
            model->Check(it != model->files.end() && size == it->second.size(),
                         r, "stat size");
          }
        }
        break;
      }
      default:
        if (model != nullptr) {
          model->Check(false, r, "unexpected op");
        }
        break;
    }
    const Duration latency = clock.now() - before;
    result.latencies.push_back(latency);
    result.summary.ops += 1;
    result.summary.failures += ok ? 0 : 1;
    result.summary.latency_ns += static_cast<uint64_t>(latency);
    if (op_span) {
      spans->End(*op_span);
    }
  }
  return result;
}

// Runs jobs [first, first + count) of a repetition. Untraced, it goes through
// the program's own entry points: a fleet runs whole through RunScaleout,
// other jobs through MobileComputer::RunTrace. Traced, the benchmark replays
// each job itself with a span around every call into a layer; fleet users
// then generate their traces inside the repetition, as the harness does.
Summary RunSlice(const Workload& workload, const std::vector<Job>& jobs,
                 uint64_t seed, int first, int count, Spans* spans,
                 uint64_t& generated_records) {
  Summary summary;
  if (spans == nullptr && workload.fleet) {
    summary.Add(RunScaleout(FleetOptions(seed)).aggregate);
    return summary;
  }
  for (int i = first; i < first + count; ++i) {
    const Job& stored = jobs[static_cast<size_t>(i)];
    if (spans == nullptr) {
      MobileComputer machine(stored.config);
      summary.Add(machine.RunTrace(stored.trace));
      continue;
    }
    std::optional<Job> generated;
    if (workload.fleet) {
      generated = Timed(spans, kGenerate, -1,
                        [&] { return workload.make_job(seed, i); });
      generated_records += generated->trace.size();
    }
    const Job& job = generated ? *generated : stored;
    std::unique_ptr<MobileComputer> machine =
        Timed(spans, kConstruct, -1,
              [&] { return std::make_unique<MobileComputer>(job.config); });
    summary.Add(Replay(*machine, job.trace, nullptr, spans).summary);
    Timed(spans, kTeardown, -1, [&] {
      machine.reset();
      return 0;
    });
  }
  return summary;
}

// --- Verification -----------------------------------------------------------

// Counters read from each layer after a checked replay, summed over jobs.
struct LayerCounts {
  uint64_t read_dram_bytes = 0;  // Write buffer + clean DRAM cache.
  uint64_t read_nvm_bytes = 0;
  uint64_t read_flash_bytes = 0;
  uint64_t wb_puts = 0;
  uint64_t wb_absorbed = 0;
  uint64_t ftl_user_writes = 0;
  uint64_t ftl_relocations = 0;
  uint64_t flash_erases = 0;
  uint64_t flash_queue_wait_ns = 0;
  uint64_t flash_service_ns = 0;
  uint64_t promotions = 0;  // Into the DRAM clean cache or the NVM tier.

  void Add(MobileComputer& m) {
    const MemoryFileSystem::Stats& fs = m.fs().stats();
    read_dram_bytes += fs.buffered_read_bytes.value() +
                       fs.clean_cached_read_bytes.value();
    read_nvm_bytes += fs.nvm_cached_read_bytes.value();
    read_flash_bytes += fs.flash_direct_read_bytes.value();
    const WriteBuffer::Stats& wb = m.fs().write_buffer().stats();
    wb_puts += wb.puts.value();
    wb_absorbed += wb.absorbed_overwrites.value();
    ftl_user_writes += m.flash_store().stats().user_writes.value();
    ftl_relocations += m.flash_store().stats().gc_relocations.value();
    flash_erases += m.flash().stats().erases.value();
    for (const IoLaneStats& lane : m.flash().stats().by_class) {
      flash_queue_wait_ns += lane.queue_wait_ns.value();
      flash_service_ns += lane.service_ns.value();
    }
    const ResidencyManager::Stats& res = m.storage().residency().stats();
    promotions += res.promotions.value() + res.nvm_promotions.value();
  }
};

struct Verification {
  std::string error;  // Empty when every check passed.
  Summary summary;
  std::vector<double> machine_p99_us;  // Each machine's p99 op latency.
  double energy_nj = 0;
  LayerCounts counts;
};

// Replays every job once more on a fresh machine, checking each result and
// the surviving namespace against the model. Its counters are the workload's
// simulated results, untouched by host timing.
Verification Verify(const std::vector<Job>& jobs) {
  Verification v;
  for (const Job& job : jobs) {
    MobileComputer machine(job.config);
    NamespaceModel model;
    ReplayResult replay = Replay(machine, job.trace, &model, nullptr);
    machine.SettleEnergy();
    v.energy_nj += machine.TotalEnergyNj();
    v.counts.Add(machine);
    v.summary.Add(replay.summary);
    v.machine_p99_us.push_back(Quantile(replay.latencies, 0.99) / 1e3);
    // Every surviving file reads back whole.
    for (const auto& [path, bytes] : model.files) {
      std::vector<uint8_t> out(bytes.size() + 1);
      const Result<uint64_t> n = machine.fs().Read(path, 0, out);
      out.pop_back();
      if (!n.ok() || n.value() != bytes.size() || out != bytes) {
        model.error = model.error.empty() ? "final read-back of " + path
                                          : model.error;
      }
    }
    if (!model.error.empty() && v.error.empty()) {
      v.error = job.config.name + ": " + model.error;
    }
  }
  return v;
}

// --- Output -----------------------------------------------------------------

double Pct(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

std::string Number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += std::string(i == 0 ? "" : ", ") + "\"" + metrics[i].name +
           "\": {\"value\": " + Number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<office|writehot|nvm|fleet> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <path>]\n",
               why);
  return 2;
}

// Set-up (generate every trace, build the first machine) is repeated this
// many times; setup_s is the median.
constexpr int kSetupRuns = 9;
// Fewest measured repetitions, however long they take.
constexpr int kMinRepetitions = 3;
// Machines per timed slice (fleets are timed a whole repetition at a time).
constexpr int kJobsPerSlice = 8;
// Every slice of a workload does the same work, so slices differ only by
// how much other tenants slowed the host. The reported host cost is this
// low quantile of the slices: the cost with little interference, without
// resting on the single luckiest slice.
constexpr double kHostQuantile = 0.1;

int Main(int argc, char** argv) {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        workload = std::strcmp(w.name, value) == 0 ? &w : workload;
      }
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || workload == nullptr || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return Usage("missing or invalid arguments");
  }
  const bool traced = trace == 1;

  // Pin glibc's allocator. Under its default dynamic thresholds, whether a
  // destroyed machine's large arrays go back to the kernel (to page-fault in
  // again for the next machine) flips with unrelated allocations; that moved
  // fleet host time 2x between otherwise identical runs.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  HostSpeed speed;
  Spans spans;
  uint64_t generated_records = 0;
  std::vector<Job> jobs;
  std::vector<double> setup_s;
  for (int run = 0; run < kSetupRuns; ++run) {
    setup_s.push_back(speed.Time([&] {
      jobs.clear();
      for (int i = 0; i < workload->jobs; ++i) {
        jobs.push_back(Timed(&spans, kGenerate, -1,
                             [&] { return workload->make_job(seed, i); }));
        generated_records += jobs.back().trace.size();
      }
      MobileComputer first(jobs.front().config);
    }) / 1e9);
  }

  // A repetition runs every job, timed in slices of kJobsPerSlice machines
  // (a fleet runs whole) with a calibration between slices, so the
  // reference speed tracks the host closely. The first repetition warms
  // caches and is the reference every later one must reproduce; it is not
  // timed.
  const int step = workload->fleet ? workload->jobs : kJobsPerSlice;
  std::vector<double> us_per_op;
  auto repetition = [&](bool timed) {
    Summary rep;
    for (int first = 0; first < workload->jobs; first += step) {
      Summary s;
      const double ns = speed.Time([&] {
        s = RunSlice(*workload, jobs, seed, first,
                     std::min(step, workload->jobs - first),
                     traced ? &spans : nullptr, generated_records);
      });
      if (timed) {
        us_per_op.push_back(ns / 1e3 /
                            static_cast<double>(std::max<uint64_t>(s.ops, 1)));
      }
      rep.Add(s);
    }
    return rep;
  };
  const Summary reference = repetition(false);
  uint64_t attempted = reference.ops;
  uint64_t failed = reference.failures;
  std::string error;
  int repetitions = 0;
  const int64_t deadline = HostNs() + static_cast<int64_t>(seconds * 1e9);
  while (repetitions < kMinRepetitions || HostNs() < deadline) {
    const Summary s = repetition(true);
    ++repetitions;
    attempted += s.ops;
    failed += s.failures;
    if (!(s == reference) && error.empty()) {
      error = "repetition " + std::to_string(repetitions) +
              " diverged from the first";
    }
  }
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %d repetitions of %llu ops "
               "in %zu timed slices; host us/op at reference speed min %.4f "
               "median %.4f max %.4f; host at %.3fx reference speed\n",
               workload->name, static_cast<unsigned long long>(seed),
               repetitions, static_cast<unsigned long long>(reference.ops),
               us_per_op.size(),
               *std::min_element(us_per_op.begin(), us_per_op.end()),
               Quantile(us_per_op, 0.5),
               *std::max_element(us_per_op.begin(), us_per_op.end()),
               speed.Factor());

  const Verification v = Verify(jobs);
  attempted += v.summary.ops;
  failed += v.summary.failures;
  if (error.empty() && !v.error.empty()) {
    error = v.error;
  }
  if (error.empty() && !(v.summary == reference)) {
    error = "checked replay diverged from the program's replay";
  }
  if (error.empty() && reference.ops == 0) {
    error = "workload replayed no operations";
  }
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: incorrect: %s\n", error.c_str());
  }

  std::vector<Metric> metrics;
  if (!traced) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics = {
        {"host_us_per_op", Quantile(us_per_op, kHostQuantile), "us"},
        {"setup_s", Quantile(setup_s, 0.5), "s"},
        {"peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0,
         "MiB"},
        {"sim_op_mean_us",
         static_cast<double>(v.summary.latency_ns) / 1e3 /
             static_cast<double>(v.summary.ops),
         "us"},
        {"sim_machine_p99_us", GeometricMean(v.machine_p99_us), "us"},
        {"sim_energy_uj_per_op",
         v.energy_nj / 1e3 / static_cast<double>(v.summary.ops), "uJ"},
    };
  } else {
    if (!spans_path.empty() && !spans.WriteChromeTrace(spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   spans_path.c_str());
    }
    // Spans cover the reference repetition plus every measured one, in
    // wall time; they are scaled to the reference speed like the rest.
    const double ops = static_cast<double>(attempted - v.summary.ops);
    const double f = speed.Factor();
    auto total = [&](Layer layer) {
      return static_cast<double>(spans.total_ns(layer)) * f;
    };
    const double op_self = total(kOp) - total(kEvents) - total(kFsRead) -
                           total(kFsWrite) - total(kFsMeta);
    const LayerCounts& c = v.counts;
    const uint64_t read_bytes =
        c.read_dram_bytes + c.read_nvm_bytes + c.read_flash_bytes;
    metrics = {
        {"traced_host_us_per_op", Quantile(us_per_op, kHostQuantile), "us"},
        {"generate_ns_per_record",
         total(kGenerate) / static_cast<double>(generated_records), "ns"},
        {"construct_us", spans.MeanNs(kConstruct) * f / 1e3, "us"},
        {"teardown_us", spans.MeanNs(kTeardown) * f / 1e3, "us"},
        {"events_ns_per_op", total(kEvents) / ops, "ns"},
        {"fs_read_ns", spans.MeanNs(kFsRead) * f, "ns"},
        {"fs_write_ns", spans.MeanNs(kFsWrite) * f, "ns"},
        {"fs_meta_ns", spans.MeanNs(kFsMeta) * f, "ns"},
        {"replay_self_ns_per_op", op_self / ops, "ns"},
        {"read_dram_pct", Pct(c.read_dram_bytes, read_bytes), "%"},
        {"read_nvm_pct", Pct(c.read_nvm_bytes, read_bytes), "%"},
        {"read_flash_pct", Pct(c.read_flash_bytes, read_bytes), "%"},
        {"wb_absorbed_pct", Pct(c.wb_absorbed, c.wb_puts), "%"},
        {"ftl_write_amp",
         c.ftl_user_writes == 0
             ? 1.0
             : static_cast<double>(c.ftl_user_writes + c.ftl_relocations) /
                   static_cast<double>(c.ftl_user_writes),
         "ratio"},
        {"ftl_gc_relocations", static_cast<double>(c.ftl_relocations),
         "count"},
        {"flash_erases", static_cast<double>(c.flash_erases), "count"},
        {"flash_queue_wait_ms",
         static_cast<double>(c.flash_queue_wait_ns) / 1e6, "ms"},
        {"flash_busy_ms", static_cast<double>(c.flash_service_ns) / 1e6,
         "ms"},
        {"residency_promotions", static_cast<double>(c.promotions), "count"},
    };
  }
  PrintResult(error.empty(), attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace ssmc

int main(int argc, char** argv) { return ssmc::Main(argc, argv); }
