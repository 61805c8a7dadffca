// E14 — Noisy-neighbor tenant QoS ablation.
//
// Claim under test: threading tenant identity through the whole I/O stack
// lets the flash scheduler protect an interactive tenant's read tail from a
// co-located write-burst aggressor — without giving up aggregate
// throughput. One machine hosts two tenants:
//   victim    (tenant 1): read-mostly interactive traffic;
//   aggressor (tenant 2): write-hot bursts that keep the flush daemon
//                         pushing batches of programs at the flash banks.
// The merged two-tenant trace replays under the four scheduling policies
// (src/sim/io_scheduler.h):
//   fifo     — arrival order; victim reads queue behind whole flush batches;
//   priority — foreground jumps flush/cleaner work, tenant-blind (E8);
//   wfq      — start-time-fair queueing on per-tenant virtual time, victim
//              weighted 8:1 (flush work is billed to the tenant that wrote
//              the data, so the aggressor's background traffic competes at
//              the aggressor's weight);
//   token    — the aggressor capped by a token bucket (rate + burst). The
//              queue stays FIFO with gated start times: this shapes the
//              aggressor's long-run share (and flash wear), it is not a
//              latency shield — expect throughput to move, not the tail.
// Victim read p50/p99 come from the replay's per-tenant latency lanes
// (ReplayReport::by_tenant); per-tenant queue-wait from the device's
// io_by_tenant attribution. Results also land in BENCH_qos.json (or
// --json=<path>).

#include <algorithm>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/obs/metrics_export.h"

namespace ssmc {
namespace {

constexpr TenantId kVictim = 1;
constexpr TenantId kAggressor = 2;

constexpr IoSchedPolicy kPolicies[] = {
    IoSchedPolicy::kFifo, IoSchedPolicy::kPriority,
    IoSchedPolicy::kWeightedFair, IoSchedPolicy::kTokenBucket};

struct QosResult {
  double victim_read_p50_us = 0;
  double victim_read_p99_us = 0;
  double aggressor_write_p99_us = 0;
  // Mean flash queue wait per request, per tenant (device attribution).
  double victim_wait_us = 0;
  double aggressor_wait_us = 0;
  uint64_t ops = 0;
  double ops_per_sim_s = 0;
  uint64_t failures = 0;
};

// Interleaves two per-tenant traces by issue time (ties: victim first).
// Both inputs are time-sorted, so the merge is too.
Trace MergeByTime(const Trace& a, const Trace& b) {
  Trace merged;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    const bool take_a =
        j >= b.size() ||
        (i < a.size() && a.records()[i].at <= b.records()[j].at);
    merged.Add(take_a ? a.records()[i++] : b.records()[j++]);
  }
  return merged;
}

// The shared two-tenant trace: every policy cell replays exactly this.
// Victim reads are small partial reads (~127 us on SunDisk-style flash) so
// queue wait — not transfer time — dominates their latency; aggressor
// writes are mostly whole files, so its flush batches queue runs of ~1.3 ms
// page programs at the banks.
Trace NoisyNeighborTrace() {
  WorkloadOptions victim = ReadMostlyWorkload();
  victim.duration = kMinute;
  victim.mean_interarrival = 10 * kMillisecond;
  victim.p_whole_file = 0.05;
  victim.partial_io_bytes = 512;
  victim.max_file_bytes = 16 * 1024;

  WorkloadOptions aggressor = WriteHotWorkload();
  aggressor.duration = kMinute;
  aggressor.mean_interarrival = 5 * kMillisecond;
  aggressor.p_whole_file = 0.9;
  aggressor.max_file_bytes = 64 * 1024;

  // Separate namespaces: contention is for the device, not for files.
  return MergeByTime(WorkloadGenerator(victim)
                         .Generate()
                         .WithPathPrefix("/victim")
                         .WithTenant(kVictim),
                     WorkloadGenerator(aggressor)
                         .Generate()
                         .WithPathPrefix("/aggr")
                         .WithTenant(kAggressor));
}

QosResult RunPolicy(IoSchedPolicy policy, const Trace& trace, Obs* obs) {
  MachineConfig config = NotebookConfig();
  config.name = std::string("qos-") + std::string(IoSchedPolicyName(policy));
  config.obs = obs;
  // A small write buffer keeps the flush daemon emitting frequent batches —
  // the contention regime where scheduling policy matters (cf. E8) — and
  // enough flash that the cleaner's 20 ms erases stay rare: an in-service
  // erase is never preempted, so heavy cleaning would floor every policy's
  // tail at erase time and hide the scheduling difference.
  config.fs_options.write_buffer_pages = 128;
  config.flash_bytes = 64 * kMiB;
  config.flash_banks = 1;
  config.io_sched = policy;
  if (policy == IoSchedPolicy::kWeightedFair) {
    config.tenant_qos = {{kVictim, 8, 0, 0}, {kAggressor, 1, 0, 0}};
  } else if (policy == IoSchedPolicy::kTokenBucket) {
    config.tenant_qos = {{kAggressor, 1, /*rate_bytes_per_s=*/256 * 1024,
                          /*burst_bytes=*/64 * 1024}};
  }
  MobileComputer machine(config);
  (void)machine.fs().Mkdir("/victim");
  (void)machine.fs().Mkdir("/aggr");
  const ReplayReport report = machine.RunTrace(trace);

  QosResult result;
  const TenantLatency* victim = report.by_tenant.Find(kVictim);
  const TenantLatency* aggressor = report.by_tenant.Find(kAggressor);
  if (victim != nullptr) {
    result.victim_read_p50_us = victim->reads.p50_ns() / 1e3;
    result.victim_read_p99_us = victim->reads.p99_ns() / 1e3;
  }
  if (aggressor != nullptr) {
    result.aggressor_write_p99_us = aggressor->writes.p99_ns() / 1e3;
  }
  auto mean_wait_us = [&](TenantId tenant) {
    const IoLaneStats* lane = report.io_by_tenant.Find(tenant);
    if (lane == nullptr || lane->requests.value() == 0) {
      return 0.0;
    }
    return static_cast<double>(lane->queue_wait_ns.value()) /
           static_cast<double>(lane->requests.value()) / 1e3;
  };
  result.victim_wait_us = mean_wait_us(kVictim);
  result.aggressor_wait_us = mean_wait_us(kAggressor);
  result.ops = report.ops;
  const double sim_s = static_cast<double>(report.elapsed()) / kSecond;
  result.ops_per_sim_s =
      sim_s > 0 ? static_cast<double>(report.ops) / sim_s : 0;
  result.failures = report.failures;
  return result;
}

}  // namespace
}  // namespace ssmc

int main(int argc, char** argv) {
  using namespace ssmc;
  PrintHeader("E14: noisy-neighbor tenant QoS on the flash scheduler",
              "Claim: weighted-fair queueing over per-tenant virtual time "
              "protects an interactive\ntenant's read tail from a co-located "
              "write-burst aggressor at unchanged aggregate\nthroughput; "
              "token buckets shape the aggressor's rate instead.");

  const Trace trace = NoisyNeighborTrace();
  std::cout << "One machine, two tenants: victim t" << int{kVictim}
            << " read-mostly (10 ms mean interarrival), aggressor t"
            << int{kAggressor}
            << " write-hot\n(5 ms mean interarrival), 60 s, one flash bank, "
               "128-page write buffer; wfq weights\nvictim 8:1, token caps "
               "the aggressor at 256 KiB/s (burst 64 KiB).\n\n";

  ObsCapture capture(argc, argv);
  std::vector<std::function<QosResult()>> cells;
  for (const IoSchedPolicy policy : kPolicies) {
    const int cell = static_cast<int>(cells.size());
    cells.push_back([&capture, cell, policy, &trace] {
      return RunPolicy(policy, trace, capture.ForCell(cell));
    });
  }
  const std::vector<QosResult> results =
      RunCellsOrdered(argc, argv, std::move(cells));

  std::vector<MetricsSnapshot> rows;
  Table table({"scheduler", "victim read p50 (us)", "victim read p99 (us)",
               "victim wait (us)", "aggr wait (us)", "aggr write p99 (us)",
               "ops/sim-s", "total ops", "failures"});
  for (size_t i = 0; i < std::size(kPolicies); ++i) {
    const QosResult& r = results[i];
    const std::string name(IoSchedPolicyName(kPolicies[i]));
    table.AddRow();
    table.AddCell(name);
    table.AddCell(r.victim_read_p50_us, 1);
    table.AddCell(r.victim_read_p99_us, 1);
    table.AddCell(r.victim_wait_us, 1);
    table.AddCell(r.aggressor_wait_us, 1);
    table.AddCell(r.aggressor_write_p99_us, 1);
    table.AddCell(r.ops_per_sim_s, 0);
    table.AddCell(r.ops);
    table.AddCell(r.failures);

    MetricsSnapshot row;
    row.Set("op", MetricValue::MakeString("qos/" + name));
    row.Set("scheduler", MetricValue::MakeString(name));
    row.Set("victim_read_p50_us",
            MetricValue::MakeDouble(r.victim_read_p50_us));
    row.Set("victim_read_p99_us",
            MetricValue::MakeDouble(r.victim_read_p99_us));
    row.Set("victim_mean_wait_us", MetricValue::MakeDouble(r.victim_wait_us));
    row.Set("aggressor_mean_wait_us",
            MetricValue::MakeDouble(r.aggressor_wait_us));
    row.Set("aggressor_write_p99_us",
            MetricValue::MakeDouble(r.aggressor_write_p99_us));
    row.Set("ops_per_sim_s", MetricValue::MakeDouble(r.ops_per_sim_s));
    row.Set("ops", MetricValue::MakeInt(static_cast<int64_t>(r.ops)));
    row.Set("failures",
            MetricValue::MakeInt(static_cast<int64_t>(r.failures)));
    rows.push_back(std::move(row));
  }
  table.Print(std::cout);

  const QosResult& fifo = results[0];
  const QosResult& wfq = results[2];
  const double p99_gain = wfq.victim_read_p99_us > 0
                              ? fifo.victim_read_p99_us / wfq.victim_read_p99_us
                              : 0;
  const double throughput_delta =
      fifo.ops_per_sim_s > 0
          ? (wfq.ops_per_sim_s - fifo.ops_per_sim_s) / fifo.ops_per_sim_s
          : 0;
  std::cout << "\nfifo -> wfq: victim read p99 improves "
            << FormatDouble(p99_gain, 2) << "x; aggregate throughput moves "
            << FormatDouble(throughput_delta * 100.0, 2)
            << "% (work-conserving).\n";
  std::cout << "\nReading: under fifo every victim read waits out whatever "
               "flush batch is queued\nahead of it. priority helps all "
               "foreground work but cannot tell tenants apart.\nwfq bills "
               "flush programs to the tenant whose writes they carry, so "
               "the victim's\nreads overtake the aggressor's backlog at 8:1 "
               "— the tail collapses while every\nqueued byte still gets "
               "served (virtual time is work-conserving). token shapes\nthe "
               "aggressor's admission rate: its queue-wait balloons and "
               "aggregate throughput\ndips, the price of a hard rate cap "
               "that wfq does not charge.\n";
  (void)WriteMetricsJsonArrayFile(JsonPath(argc, argv, "BENCH_qos.json"),
                                  rows);
  capture.Finish();
  return 0;
}
