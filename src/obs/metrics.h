// Metrics registry — the named-metric half of the observability subsystem
// (ssmc_obs). Components register typed handles (counters, gauges,
// log-bucketed histograms) or snapshot-time collectors; benches call
// Snapshot() and merge per-cell snapshots into one deterministic report.
//
// Design constraints (see DESIGN.md, "obs"):
//  * hot-path updates are plain pointer writes — a Counter/Gauge/Histogram
//    handle is stable for the registry's lifetime, so instrumented code
//    holds the raw pointer and never does a name lookup per event;
//  * Snapshot() is keyed by name in sorted (std::map) order, so emitted
//    JSON has a stable key order regardless of registration order;
//  * MetricsSnapshot::Merge is associative and commutative with the empty
//    snapshot as identity (counters and gauges sum; histograms bucket-merge,
//    which is exact because the bucketing is fixed log2) — per-cell
//    registries combine into the same aggregate at any --jobs or cell
//    sharding, enforced by obs_test's property suite.

#ifndef SSMC_SRC_OBS_METRICS_H_
#define SSMC_SRC_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/sim/stats.h"

namespace ssmc {

// A point-in-time level (free pages, dirty blocks, write amplification
// scaled, ...). Distinct from Counter, which is monotonic. Merge semantics
// are summation — per-cell gauges describe disjoint machines, so the fleet
// level is the sum of the cell levels.
class Gauge {
 public:
  void Set(int64_t v) { value_ = v; }
  void Add(int64_t d) { value_ += d; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

// Histogram contents copied out of a live Histogram at snapshot time.
struct HistogramData {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  std::array<uint64_t, Histogram::kBuckets> buckets = {};

  void CopyFrom(const Histogram& h);
  // Exact bucket-wise merge (fixed log2 bucketing).
  void Merge(const HistogramData& other);
  bool operator==(const HistogramData& other) const = default;
};

// One snapshot value. The registry produces kCounter/kGauge/kHistogram;
// kInt/kDouble/kBool/kString exist so the shared JSON emitter
// (metrics_export.h) can also carry bench-level fields (benchmark names,
// ns/op, sweep parameters) through the same code path.
struct MetricValue {
  enum class Kind { kCounter, kGauge, kHistogram, kInt, kDouble, kBool, kString };
  Kind kind = Kind::kCounter;
  uint64_t counter = 0;
  int64_t gauge = 0;
  double number = 0;
  bool flag = false;
  std::string text;
  HistogramData histogram;

  static MetricValue MakeCounter(uint64_t v);
  static MetricValue MakeGauge(int64_t v);
  static MetricValue MakeInt(int64_t v);
  static MetricValue MakeDouble(double v);
  static MetricValue MakeBool(bool v);
  static MetricValue MakeString(std::string v);

  bool operator==(const MetricValue& other) const = default;
};

// Sorted name -> value map. The sorted order is what makes every emitted
// JSON object's key order stable.
class MetricsSnapshot {
 public:
  using Map = std::map<std::string, MetricValue>;

  void Set(const std::string& name, MetricValue value) {
    values_[name] = std::move(value);
  }
  const Map& values() const { return values_; }
  bool empty() const { return values_.empty(); }
  size_t size() const { return values_.size(); }

  // Folds `other` in. Matching keys combine per kind: counters and gauges
  // sum, histograms bucket-merge. Scalar kinds (kInt/kDouble/kBool/kString)
  // are labels, not accumulators: an existing value is kept. Associative and
  // commutative over the mergeable kinds, with the empty snapshot as
  // identity (obs_test's property suite).
  void Merge(const MetricsSnapshot& other);

  bool operator==(const MetricsSnapshot& other) const = default;

 private:
  Map values_;
};

// Per-cell registry of live metric handles. Not thread-safe — each
// simulation cell is single-threaded and owns its registry; cross-cell
// aggregation happens on immutable snapshots.
class MetricsRegistry {
 public:
  // Registration returns a handle that stays valid for the registry's
  // lifetime (std::deque storage: no reallocation moves). Registering a name
  // twice returns the same handle. Registering a name under a second type
  // is a bug: it asserts, and where asserts are compiled out it returns a
  // fresh unnamed handle rather than aliasing.
  Counter* AddCounter(const std::string& name);
  Gauge* AddGauge(const std::string& name);
  Histogram* AddHistogram(const std::string& name);

  // Snapshot-time pull: the collector runs at the start of every Snapshot()
  // call, copying a component's existing Stats struct into counters and
  // gauges registered here; layers install theirs through StatsMirror
  // (stats_mirror.h). Zero hot-path cost — nothing runs per event. Keyed:
  // re-registering under the same key REPLACES the previous collector, so a
  // component rebuilt after crash recovery re-attaches without leaving a
  // dangling `this` behind. Collectors run in key order.
  void AddCollector(const std::string& key, std::function<void()> collector);

  // Runs the collector under `key` one last time (so its final values persist
  // in the registered handles), then removes it. StatsMirror calls this
  // when its owner is destroyed, detaches or re-attaches: the Obs routinely
  // outlives the machine it instrumented (benches snapshot after the run),
  // and a removed collector is the only thing standing between Snapshot()
  // and a dangling `this`. No-op for an unknown key.
  void FlushAndRemoveCollector(const std::string& key);

  // Zeroes every counter and gauge whose name starts with `prefix`
  // (histograms keep their samples). StatsMirror calls this when a new
  // layer instance takes over a key, so keys the previous instance
  // registered lazily report the new instance too.
  void ResetCountersAndGaugesUnder(const std::string& prefix);

  // Runs the collectors, then copies every metric out under its name, each
  // key prefixed with `prefix` (cell tagging: "cell3/flash/reads").
  MetricsSnapshot Snapshot(const std::string& prefix = "");

  size_t num_metrics() const { return names_.size(); }

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    size_t index;  // Into the deque for its kind.
  };

  // The handle named `name` in `store`, registered on first use.
  template <typename T>
  T* Register(const std::string& name, Kind kind, std::deque<T>& store);

  std::map<std::string, Entry> names_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::map<std::string, std::function<void()>> collectors_;
};

}  // namespace ssmc

#endif  // SSMC_SRC_OBS_METRICS_H_
