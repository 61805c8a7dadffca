#include "src/harness/scaleout.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

#include "src/trace/generator.h"

namespace ssmc {

namespace {

// One user's full life: generate the trace from the user's derived seed,
// build a fresh machine, replay. Everything (workload seed, machine seed,
// file sizes, rng streams) is a pure function of (base_seed, user_index).
ReplayReport RunUser(const ScaleoutOptions& options, int user) {
  // With a tenant mix, the user's class decides its profile and tenant tag;
  // without one, the legacy even/odd office/write-hot alternation applies
  // (which a two-class {office, write-hot} mix reproduces seed-for-seed).
  const TenantClassSpec* cls =
      options.tenant_mix.empty()
          ? nullptr
          : &options.tenant_mix[static_cast<size_t>(user) %
                                options.tenant_mix.size()];
  const bool write_hot = cls != nullptr ? cls->write_hot : (user % 2 != 0);
  WorkloadOptions workload = write_hot ? WriteHotWorkload() : OfficeWorkload();
  workload.seed = DeriveCellSeed(options.base_seed, 2 * static_cast<uint64_t>(user));
  workload.duration = options.user_duration;
  workload.max_file_bytes = options.max_file_bytes;
  Trace trace = WorkloadGenerator(workload).Generate();
  if (cls != nullptr && cls->tenant != kDefaultTenant) {
    trace = std::move(trace).WithTenant(cls->tenant);
  }

  MachineConfig config = NotebookConfig();
  config.name = "scaleout-user-" + std::to_string(user);
  config.seed =
      DeriveCellSeed(options.base_seed, 2 * static_cast<uint64_t>(user) + 1);
  if (!options.tenant_mix.empty()) {
    config.io_sched = options.io_sched;
    config.tenant_qos.reserve(options.tenant_mix.size());
    for (const TenantClassSpec& spec : options.tenant_mix) {
      config.tenant_qos.push_back({spec.tenant, spec.weight,
                                   spec.rate_bytes_per_s, spec.burst_bytes});
    }
  }
  if (options.user_obs) {
    config.obs = options.user_obs(user);
  }
  MobileComputer machine(config);
  return machine.RunTrace(trace);
}

// What a shard hands back to the merge: its users' partial aggregate (always
// maintained — merging is associative, so folding per shard and then across
// shards in shard order equals the flat user-order fold) plus, in keep mode,
// the individual reports.
struct ShardResult {
  std::vector<ReplayReport> per_user;  // Empty when !keep_per_user.
  ReplayReport merged;
  Duration longest_elapsed = 0;
};

}  // namespace

double ScaleoutReport::SimOpsPerSimSecond() const {
  const double s = static_cast<double>(longest_elapsed) / kSecond;
  return s > 0 ? static_cast<double>(aggregate.ops) / s : 0;
}

ScaleoutReport RunScaleout(const ScaleoutOptions& options) {
  assert(options.users >= 1);
  const int cells = std::clamp(options.cells, 1, options.users);

  // Shard s serially runs the contiguous balanced user range [lo, hi).
  std::vector<std::function<ShardResult()>> shards;
  shards.reserve(static_cast<size_t>(cells));
  for (int s = 0; s < cells; ++s) {
    const int lo = static_cast<int>(
        static_cast<int64_t>(s) * options.users / cells);
    const int hi = static_cast<int>(
        static_cast<int64_t>(s + 1) * options.users / cells);
    shards.push_back([&options, lo, hi] {
      ShardResult result;
      if (options.keep_per_user) {
        result.per_user.reserve(static_cast<size_t>(hi - lo));
      }
      for (int user = lo; user < hi; ++user) {
        ReplayReport report = RunUser(options, user);
        result.longest_elapsed =
            std::max(result.longest_elapsed, report.elapsed());
        result.merged.Merge(report);
        if (options.keep_per_user) {
          result.per_user.push_back(std::move(report));
        }
      }
      return result;
    });
  }

  ParallelRunner runner(options.jobs);
  std::vector<ShardResult> shard_results = runner.RunOrdered(std::move(shards));

  ScaleoutReport report;
  report.users = options.users;
  report.cells = cells;
  report.jobs = runner.jobs();
  if (options.keep_per_user) {
    report.per_user.reserve(static_cast<size_t>(options.users));
  }
  // Shards are contiguous ranges in shard order, so concatenation restores
  // user order; merging in that order makes the aggregate K-independent.
  for (ShardResult& shard : shard_results) {
    report.longest_elapsed =
        std::max(report.longest_elapsed, shard.longest_elapsed);
    report.aggregate.Merge(shard.merged);
    for (ReplayReport& user_report : shard.per_user) {
      report.per_user.push_back(std::move(user_report));
    }
  }
  return report;
}

}  // namespace ssmc
