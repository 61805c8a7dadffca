// E11 — Multi-user scale-out on the parallel harness (experiments M2/M3).
//
// The ROADMAP's north star is serving heavy traffic from many users as fast
// as the hardware allows. The simulator's unit of work — one machine, one
// trace — is a closed world, so a fleet of M simulated users shards
// perfectly over K concurrent cells. Two sweeps:
//  * K sweep (M2): a fixed fleet resharded over K = 1 .. available CPUs.
//    Reports host wall time, the speedup curve vs K=1, and asserts the
//    merged report is bit-identical to the K=1 run at every K.
//  * M sweep (M3): the fleet itself grows 8 -> 1,000,000 users in
//    aggregate-only mode (ScaleoutOptions::keep_per_user = false), charting
//    host throughput and resident bytes per user as the population scales
//    out. The fleet runs a two-class tenant mix (office = tenant 1,
//    write-hot = tenant 2) — trace-for-trace the legacy even/odd
//    alternation, just tagged — so the aggregate report also demonstrates
//    fleet-wide per-tenant latency lanes streamed through the O(1)-per-user
//    merge. The largest points shorten the per-user simulated duration to
//    keep host time bounded; marginal bytes/user is the flat quantity.
// Throughput is reported against both denominators — sim ops per *simulated*
// second (fleet finishes with its slowest user) and sim ops per *host*
// second (harness replay rate); the old single "sim ops/s" number conflated
// the two. Results also land in BENCH_scaleout.json (or --json=<path>) for
// machine consumption.

#include <chrono>
#include <fstream>
#include <vector>

#include <unistd.h>

#include "bench/bench_common.h"
#include "src/harness/scaleout.h"
#include "src/obs/metrics_export.h"

namespace ssmc {
namespace {

struct SweepPoint {
  int cells = 0;
  ScaleoutReport report;
  double host_ms = 0;
};

double HostMillis(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Process resident set *right now*, in bytes (/proc/self/statm field 2 is
// resident pages). The old ru_maxrss reading was the process-lifetime peak —
// monotonic, so every M-sweep point after the first reported whatever
// high-water mark earlier fleets had set, not its own footprint. Current RSS
// measured after each fleet finishes is the per-point quantity the
// bytes/user curve actually claims.
uint64_t CurrentRssBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) {
    return 0;
  }
  return resident_pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

double OpsPerHostSecond(const ScaleoutReport& report, double host_ms) {
  return host_ms > 0 ? static_cast<double>(report.aggregate.ops) /
                           (host_ms / 1000.0)
                     : 0;
}

// Bit-level equality of two reports (counts, windows, and every histogram).
bool ReportsIdentical(const ReplayReport& a, const ReplayReport& b) {
  if (a.ops != b.ops || a.failures != b.failures ||
      a.bytes_read != b.bytes_read || a.bytes_written != b.bytes_written ||
      a.failed_read_bytes != b.failed_read_bytes ||
      a.failed_write_bytes != b.failed_write_bytes ||
      a.started != b.started || a.finished != b.finished) {
    return false;
  }
  auto same_hist = [](const LatencyRecorder& x, const LatencyRecorder& y) {
    if (x.count() != y.count() || x.total_ns() != y.total_ns() ||
        x.min_ns() != y.min_ns() || x.max_ns() != y.max_ns()) {
      return false;
    }
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      if (x.histogram().bucket_count(b) != y.histogram().bucket_count(b)) {
        return false;
      }
    }
    return true;
  };
  if (!same_hist(a.all_ops, b.all_ops)) {
    return false;
  }
  for (size_t i = 0; i < a.per_op.size(); ++i) {
    if (!same_hist(a.per_op[i], b.per_op[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace ssmc

int main(int argc, char** argv) {
  using namespace ssmc;
  PrintHeader("E11: multi-user scale-out on the parallel harness (M2)",
              "Claim: independent simulation cells shard perfectly: K cells "
              "on K CPUs cut host time\n~K-fold while the aggregate report "
              "stays bit-identical to the serial run.");

  const int hw = DefaultJobs();
  const int jobs_cap = JobsFromArgs(argc, argv);
  ScaleoutOptions options;
  options.users = 2 * std::max(hw, 2);  // Fixed fleet; K only reshards it.
  options.user_duration = 30 * kSecond;
  std::cout << options.users << " simulated users (office / write-hot "
            << "alternating, 30 s each), " << hw
            << " host CPUs available.\n\n";

  // K sweep: powers of two up to the CPU count, the CPU count itself, plus
  // a K=2 point even on one CPU so resharding correctness is always shown.
  std::vector<int> sweep = {1, 2};
  for (int k = 4; k < hw; k *= 2) {
    sweep.push_back(k);
  }
  if (hw > 2) {
    sweep.push_back(hw);
  }

  // --trace/--metrics capture one Obs per user (cell id = user index), on
  // the K=1 point only: the sweep re-runs the same fleet at every K, so one
  // capture already covers every user once, and the determinism guarantee
  // makes the other K points redundant in the trace.
  ObsCapture capture(argc, argv);
  std::vector<SweepPoint> points;
  for (const int k : sweep) {
    SweepPoint point;
    point.cells = k;
    options.cells = k;
    options.jobs = std::min(k, jobs_cap);
    if (capture.enabled() && k == sweep.front()) {
      options.user_obs = [&capture](int user) { return capture.ForCell(user); };
    } else {
      options.user_obs = nullptr;
    }
    const auto start = std::chrono::steady_clock::now();
    point.report = RunScaleout(options);
    point.host_ms = HostMillis(start);
    points.push_back(std::move(point));
  }

  const SweepPoint& serial = points.front();
  bool all_identical = true;
  Table table({"K cells", "jobs", "host time (ms)", "speedup vs K=1",
               "ops/sim-s", "ops/host-s", "total ops", "failures",
               "identical to K=1"});
  for (const SweepPoint& p : points) {
    const bool identical =
        ReportsIdentical(p.report.aggregate, serial.report.aggregate);
    all_identical = all_identical && identical;
    table.AddRow();
    table.AddCell(static_cast<int64_t>(p.cells));
    table.AddCell(static_cast<int64_t>(p.report.jobs));
    table.AddCell(p.host_ms, 1);
    table.AddCell(serial.host_ms / p.host_ms, 2);
    table.AddCell(p.report.SimOpsPerSimSecond(), 0);
    table.AddCell(OpsPerHostSecond(p.report, p.host_ms), 0);
    table.AddCell(p.report.aggregate.ops);
    table.AddCell(p.report.aggregate.failures);
    table.AddCell(identical ? std::string("yes") : std::string("NO"));
  }
  table.Print(std::cout);

  const SweepPoint& widest = points.back();
  const double speedup = serial.host_ms / widest.host_ms;
  std::cout << "\nAt K=" << widest.cells << " on " << hw
            << " CPUs: " << FormatDouble(speedup, 2) << "x host-time speedup ("
            << FormatDouble(speedup / static_cast<double>(hw), 2)
            << "x per CPU); aggregate reports "
            << (all_identical ? "bit-identical across all K."
                              : "DIVERGED — sharding bug!")
            << "\n";

  // M sweep (M3): grow the fleet itself in aggregate-only mode. Per-user
  // reports are folded away inside each shard, so the resident footprint
  // stays flat while the population scales; current RSS after each fleet,
  // divided by its users, is the bytes-per-user curve EXPERIMENTS.md quotes.
  // The fleet is a two-class tenant mix — trace-identical to the legacy
  // even/odd office/write-hot alternation under FIFO, but every record is
  // tagged, so the streamed aggregate carries per-tenant read latencies all
  // the way to the million-user point. The two largest fleets shorten each
  // user's simulated duration (ops/sim-s is not comparable across duration
  // changes; ops/host-s and bytes/user are).
  std::cout << "\nFleet growth, aggregate-only merge (keep_per_user=false),\n"
            << "tenant mix office=t1 / write-hot=t2:\n";
  ScaleoutOptions grow = options;
  grow.keep_per_user = false;
  grow.user_obs = nullptr;
  grow.tenant_mix = {{1, /*write_hot=*/false, 1, 0, 0},
                     {2, /*write_hot=*/true, 1, 0, 0}};
  struct GrowthPoint {
    int users;
    Duration user_duration;
  };
  const std::vector<GrowthPoint> fleet_sizes = {
      {8, 30 * kSecond},     {64, 30 * kSecond},   {512, 30 * kSecond},
      {4096, 30 * kSecond},  {32768, 30 * kSecond}, {65536, 30 * kSecond},
      {262144, 8 * kSecond}, {1000000, 2 * kSecond}};
  std::vector<MetricsSnapshot> rows;
  Table growth({"users", "K cells", "sim s/user", "host time (s)", "ops/sim-s",
                "ops/host-s", "total ops", "t1 read p99 (us)",
                "t2 read p99 (us)", "RSS (MiB)", "bytes/user"});
  for (const GrowthPoint& fleet : fleet_sizes) {
    grow.users = fleet.users;
    grow.user_duration = fleet.user_duration;
    grow.cells = std::min(fleet.users, std::max(hw, 2));
    grow.jobs = jobs_cap;
    const auto start = std::chrono::steady_clock::now();
    const ScaleoutReport report = RunScaleout(grow);
    const double host_ms = HostMillis(start);
    const uint64_t rss = CurrentRssBytes();
    const double bytes_per_user =
        static_cast<double>(rss) / static_cast<double>(fleet.users);
    const TenantLatency* t1 = report.aggregate.by_tenant.Find(1);
    const TenantLatency* t2 = report.aggregate.by_tenant.Find(2);
    growth.AddRow();
    growth.AddCell(static_cast<int64_t>(fleet.users));
    growth.AddCell(static_cast<int64_t>(report.cells));
    growth.AddCell(static_cast<double>(fleet.user_duration) / kSecond, 0);
    growth.AddCell(host_ms / 1000.0, 1);
    growth.AddCell(report.SimOpsPerSimSecond(), 0);
    growth.AddCell(OpsPerHostSecond(report, host_ms), 0);
    growth.AddCell(report.aggregate.ops);
    growth.AddCell(t1 ? static_cast<double>(t1->reads.p99_ns()) / kMicrosecond
                      : 0.0,
                   1);
    growth.AddCell(t2 ? static_cast<double>(t2->reads.p99_ns()) / kMicrosecond
                      : 0.0,
                   1);
    growth.AddCell(static_cast<double>(rss) / (1024.0 * 1024.0), 1);
    growth.AddCell(bytes_per_user, 1);

    MetricsSnapshot row;
    row.Set("op", MetricValue::MakeString("scaleout/users/" +
                                          std::to_string(fleet.users)));
    row.Set("sweep", MetricValue::MakeString("users"));
    row.Set("cells", MetricValue::MakeInt(report.cells));
    row.Set("jobs", MetricValue::MakeInt(report.jobs));
    row.Set("users", MetricValue::MakeInt(fleet.users));
    row.Set("sim_s_per_user",
            MetricValue::MakeDouble(
                static_cast<double>(fleet.user_duration) / kSecond));
    row.Set("host_ms", MetricValue::MakeDouble(host_ms));
    row.Set("sim_ops_per_sim_s",
            MetricValue::MakeDouble(report.SimOpsPerSimSecond()));
    row.Set("sim_ops_per_host_s",
            MetricValue::MakeDouble(OpsPerHostSecond(report, host_ms)));
    row.Set("ops", MetricValue::MakeInt(
                       static_cast<int64_t>(report.aggregate.ops)));
    row.Set("tenant1_read_p99_ns",
            MetricValue::MakeInt(
                t1 ? static_cast<int64_t>(t1->reads.p99_ns()) : 0));
    row.Set("tenant2_read_p99_ns",
            MetricValue::MakeInt(
                t2 ? static_cast<int64_t>(t2->reads.p99_ns()) : 0));
    row.Set("rss_bytes", MetricValue::MakeInt(static_cast<int64_t>(rss)));
    row.Set("bytes_per_user", MetricValue::MakeDouble(bytes_per_user));
    rows.push_back(std::move(row));
  }
  growth.Print(std::cout);

  // Machine-readable sweeps through the shared metrics-snapshot emitter
  // (same code path as BENCH_micro.json and --metrics). The K-sweep rows
  // report throughput against both denominators; the retired
  // "sim_ops_per_s" key conflated them.
  for (const SweepPoint& p : points) {
    MetricsSnapshot row;
    row.Set("op", MetricValue::MakeString("scaleout/cells/" +
                                          std::to_string(p.cells)));
    row.Set("sweep", MetricValue::MakeString("cells"));
    row.Set("cells", MetricValue::MakeInt(p.cells));
    row.Set("jobs", MetricValue::MakeInt(p.report.jobs));
    row.Set("users", MetricValue::MakeInt(p.report.users));
    row.Set("host_ms", MetricValue::MakeDouble(p.host_ms));
    row.Set("speedup_vs_serial",
            MetricValue::MakeDouble(serial.host_ms / p.host_ms));
    row.Set("sim_ops_per_sim_s",
            MetricValue::MakeDouble(p.report.SimOpsPerSimSecond()));
    row.Set("sim_ops_per_host_s",
            MetricValue::MakeDouble(OpsPerHostSecond(p.report, p.host_ms)));
    row.Set("ops", MetricValue::MakeInt(
                       static_cast<int64_t>(p.report.aggregate.ops)));
    row.Set("identical_to_serial",
            MetricValue::MakeBool(ReportsIdentical(p.report.aggregate,
                                                   serial.report.aggregate)));
    rows.push_back(std::move(row));
  }
  (void)WriteMetricsJsonArrayFile(JsonPath(argc, argv, "BENCH_scaleout.json"),
                                  rows);
  capture.Finish();
  return all_identical ? 0 : 1;
}
