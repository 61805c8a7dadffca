// Unit and property tests for the observability subsystem (src/obs/):
// metric handle registration, the stats mirror's collector lifetime
// (re-attach, detach, owner destruction), snapshot Merge algebra (associativity,
// commutativity, empty identity — the contract that makes per-cell
// registries combine deterministically under any --jobs sharding), the
// span tracer's ring-buffer drop accounting, and the JSON exporters'
// well-formedness.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/device/flash_device.h"
#include "src/device/nvm_device.h"
#include "src/obs/metrics.h"
#include "src/obs/metrics_export.h"
#include "src/obs/obs.h"
#include "src/obs/span_tracer.h"
#include "src/obs/stats_mirror.h"
#include "src/obs/trace_export.h"
#include "src/support/rng.h"

namespace ssmc {
namespace {

// --- MetricsRegistry handles --------------------------------------------

// "<dev>/tenant<T>/service_ns" is the tenant's retire-time histogram. A
// snapshot taken while the tenant's first request is still queued must not
// claim the name for a counter, or the histogram is lost for the rest of
// the run.
void ExpectTenantServiceHistogram(Obs& obs, const std::string& name,
                                  Duration service) {
  const MetricsSnapshot snap = obs.metrics().Snapshot();
  auto it = snap.values().find(name);
  ASSERT_NE(it, snap.values().end()) << name;
  EXPECT_EQ(it->second.kind, MetricValue::Kind::kHistogram) << name;
  EXPECT_EQ(it->second.histogram.count, 1u) << name;
  EXPECT_EQ(it->second.histogram.sum, static_cast<uint64_t>(service)) << name;
}

TEST(BankObsTest, TenantServiceHistogramSurvivesSnapshotBeforeFirstRetire) {
  FlashSpec flash_spec;
  flash_spec.name = "obs flash";
  flash_spec.read = {100, 10};
  flash_spec.program = {1000, 1000};
  flash_spec.erase_sector_bytes = 1024;
  flash_spec.erase_ns = 1 * kMillisecond;
  NvmSpec nvm_spec;
  nvm_spec.name = "obs nvm";
  nvm_spec.read = {100, 1};
  nvm_spec.write = {500, 2};

  SimClock clock;
  Obs obs;
  FlashDevice flash(flash_spec, 16 * 1024, 1, clock);
  NvmDevice nvm(nvm_spec, 16 * 1024, 1, clock);
  flash.AttachObs(&obs);
  nvm.AttachObs(&obs);
  ASSERT_TRUE(flash.EraseSector(0, kCleanerIo).ok());  // Queued, not retired.
  ASSERT_TRUE(nvm.Write(0, 64, kFlushIo).ok());
  obs.metrics().Snapshot();
  clock.Advance(flash_spec.erase_ns);
  flash.scheduler().Poll();  // Retires both requests.
  nvm.scheduler().Poll();
  ExpectTenantServiceHistogram(obs, "flash/tenant0/service_ns",
                               flash_spec.erase_ns);
  ExpectTenantServiceHistogram(obs, "nvm/tenant0/service_ns",
                               nvm_spec.write.LatencyFor(64));
}

TEST(MetricsRegistryTest, HandlesAreStableAndDeduplicated) {
  MetricsRegistry registry;
  Counter* a = registry.AddCounter("flash/reads");
  Counter* b = registry.AddCounter("flash/reads");
  EXPECT_EQ(a, b);
  a->Add(3);
  EXPECT_EQ(b->value(), 3u);

  // Registering many more metrics must not invalidate earlier handles.
  for (int i = 0; i < 1000; ++i) {
    registry.AddCounter("c" + std::to_string(i));
  }
  EXPECT_EQ(a->value(), 3u);
  EXPECT_EQ(registry.num_metrics(), 1001u);
}

TEST(MetricsRegistryTest, SnapshotPrefixesEveryKey) {
  MetricsRegistry registry;
  registry.AddCounter("reads")->Add(7);
  registry.AddGauge("dirty")->Set(-2);
  const MetricsSnapshot snap = registry.Snapshot("cell3/");
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.values().at("cell3/reads").counter, 7u);
  EXPECT_EQ(snap.values().at("cell3/dirty").gauge, -2);
}

TEST(MetricsRegistryTest, KeyedCollectorReplacesOnReRegistration) {
  // The crash-recovery contract: a component rebuilt after a failure
  // re-registers its collector under the same key, REPLACING the old
  // closure (which holds a dangling `this`). Only the new one may run.
  MetricsRegistry registry;
  Gauge* g = registry.AddGauge("fs/files");
  registry.AddCollector("fs", [g] { g->Set(1); });
  registry.AddCollector("fs", [g] { g->Set(2); });
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.values().at("fs/files").gauge, 2);
}

TEST(MetricsRegistryTest, SnapshotRunsCollectorsInKeyOrder) {
  MetricsRegistry registry;
  Gauge* g = registry.AddGauge("order");
  // "a" runs after "z" registered first: key order, not insertion order.
  registry.AddCollector("z", [g] { g->Set(1); });
  registry.AddCollector("a", [g] { g->Set(26); });
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.values().at("order").gauge, 1);  // "z" ran last.
}

// --- StatsMirror ----------------------------------------------------------

// A minimal layer: a counter, a gauge and a lazily named tenant counter,
// with the mirror declared last as every layer declares it. `runs` counts
// collector runs and outlives the layer, so a test can see whether a
// collector is still installed after its owner is gone.
struct MirroredLayer {
  explicit MirroredLayer(int* runs) : runs(runs) {}

  int* runs;
  Counter hits;
  int64_t level = 0;
  StatsMirror mirror{"layer"};

  void Attach(Obs* obs) {
    mirror.Attach(obs, {{"hits", &hits}}, {{"level", [this] { return level; }}},
                  [this](MetricsRegistry& m) {
                    ++*runs;
                    MirrorCounter(m, "layer/tenant1/hits", hits);
                  });
  }
};

void ExpectMirrored(Obs& obs, uint64_t hits, int64_t level) {
  const MetricsSnapshot snap = obs.metrics().Snapshot();
  EXPECT_EQ(snap.values().at("layer/hits"), MetricValue::MakeCounter(hits));
  EXPECT_EQ(snap.values().at("layer/level"), MetricValue::MakeGauge(level));
  EXPECT_EQ(snap.values().at("layer/tenant1/hits"),
            MetricValue::MakeCounter(hits));
}

TEST(StatsMirrorTest, ReattachFlushesTheOldObsAndMirrorsIntoTheNew) {
  Obs a;
  Obs b;
  int runs = 0;
  MirroredLayer layer(&runs);
  layer.Attach(&a);
  layer.hits.Add(3);
  layer.level = 7;
  layer.Attach(&b);
  EXPECT_EQ(runs, 1);  // The flush into `a`.
  layer.hits.Add(2);
  layer.level = 9;
  ExpectMirrored(a, 3, 7);  // Final values at the re-attach...
  layer.hits.Add(1);
  ExpectMirrored(a, 3, 7);  // ...which no longer move.
  ExpectMirrored(b, 6, 9);  // The new Obs is live.
}

TEST(StatsMirrorTest, DetachFlushes) {
  Obs obs;
  int runs = 0;
  MirroredLayer layer(&runs);
  layer.Attach(&obs);
  layer.hits.Add(4);
  layer.level = -1;
  layer.Attach(nullptr);
  EXPECT_EQ(runs, 1);
  layer.hits.Add(1);
  ExpectMirrored(obs, 4, -1);
  EXPECT_EQ(runs, 1);
}

TEST(StatsMirrorTest, DestroyingTheOwnerFlushes) {
  Obs obs;
  int runs = 0;
  {
    MirroredLayer layer(&runs);
    layer.Attach(&obs);
    layer.hits.Add(6);
    layer.level = -2;
  }
  EXPECT_EQ(runs, 1);  // Flushed once, then removed:
  ExpectMirrored(obs, 6, -2);
  EXPECT_EQ(runs, 1);  // the snapshot ran no collector.
}

TEST(StatsMirrorTest, ReattachToTheSameObsKeepsOneCollector) {
  Obs obs;
  int runs = 0;
  MirroredLayer layer(&runs);
  layer.Attach(&obs);
  layer.Attach(&obs);
  EXPECT_EQ(runs, 0);  // Same Obs: nothing to flush.
  layer.hits.Add(5);
  ExpectMirrored(obs, 5, 0);
  EXPECT_EQ(runs, 1);
}

// --- Merge algebra -------------------------------------------------------

// A pseudo-random snapshot exercising every mergeable kind.
MetricsSnapshot RandomSnapshot(uint64_t seed) {
  Rng rng(seed);
  MetricsSnapshot s;
  // Overlapping key space across seeds so merges actually combine.
  for (const char* key : {"k0", "k1", "k2", "k3"}) {
    if (rng.NextBelow(3) != 0) {
      s.Set(key, MetricValue::MakeCounter(rng.NextBelow(1000)));
    }
  }
  for (const char* key : {"g0", "g1"}) {
    if (rng.NextBelow(2) != 0) {
      s.Set(key, MetricValue::MakeGauge(static_cast<int64_t>(
                     rng.NextBelow(2000)) - 1000));
    }
  }
  if (rng.NextBelow(2) != 0) {
    Histogram h;
    const int n = static_cast<int>(rng.NextBelow(200));
    for (int i = 0; i < n; ++i) {
      h.Record(static_cast<int64_t>(rng.NextBelow(1u << 20)));
    }
    MetricValue v;
    v.kind = MetricValue::Kind::kHistogram;
    v.histogram.CopyFrom(h);
    s.Set("h0", v);
  }
  return s;
}

MetricsSnapshot Merged(const MetricsSnapshot& a, const MetricsSnapshot& b) {
  MetricsSnapshot out = a;
  out.Merge(b);
  return out;
}

TEST(MetricsSnapshotTest, MergeEmptyIsIdentity) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const MetricsSnapshot s = RandomSnapshot(seed);
    const MetricsSnapshot empty;
    EXPECT_EQ(Merged(s, empty), s) << "right identity, seed " << seed;
    EXPECT_EQ(Merged(empty, s), s) << "left identity, seed " << seed;
  }
}

TEST(MetricsSnapshotTest, MergeIsCommutative) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const MetricsSnapshot a = RandomSnapshot(seed);
    const MetricsSnapshot b = RandomSnapshot(seed + 100);
    EXPECT_EQ(Merged(a, b), Merged(b, a)) << "seed " << seed;
  }
}

TEST(MetricsSnapshotTest, MergeIsAssociative) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const MetricsSnapshot a = RandomSnapshot(seed);
    const MetricsSnapshot b = RandomSnapshot(seed + 100);
    const MetricsSnapshot c = RandomSnapshot(seed + 200);
    EXPECT_EQ(Merged(Merged(a, b), c), Merged(a, Merged(b, c)))
        << "seed " << seed;
  }
}

TEST(MetricsSnapshotTest, ShardingIsMergeOrderInvariant) {
  // The --jobs contract in miniature: any contiguous sharding of the same
  // per-cell snapshots merges to the same aggregate.
  std::vector<MetricsSnapshot> cells;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    cells.push_back(RandomSnapshot(seed));
  }
  MetricsSnapshot serial;
  for (const MetricsSnapshot& c : cells) {
    serial.Merge(c);
  }
  for (size_t split = 1; split < cells.size(); ++split) {
    MetricsSnapshot left, right;
    for (size_t i = 0; i < split; ++i) {
      left.Merge(cells[i]);
    }
    for (size_t i = split; i < cells.size(); ++i) {
      right.Merge(cells[i]);
    }
    EXPECT_EQ(Merged(left, right), serial) << "split at " << split;
  }
}

TEST(MetricsSnapshotTest, HistogramMergeIsExact) {
  // Recording the union of two streams equals merging their snapshots:
  // log2 bucketing is fixed, so bucket-merge loses nothing.
  Histogram ha, hb, hu;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const int64_t v = static_cast<int64_t>(rng.NextBelow(1u << 24));
    ((i % 2 == 0) ? ha : hb).Record(v);
    hu.Record(v);
  }
  HistogramData a, b, u;
  a.CopyFrom(ha);
  b.CopyFrom(hb);
  u.CopyFrom(hu);
  a.Merge(b);
  EXPECT_EQ(a, u);
}

TEST(MetricsSnapshotTest, ScalarKindsAreFirstWriterWinsLabels) {
  MetricsSnapshot a, b;
  a.Set("op", MetricValue::MakeString("read"));
  b.Set("op", MetricValue::MakeString("write"));
  EXPECT_EQ(Merged(a, b).values().at("op").text, "read");
}

// --- SpanTracer ring buffer ---------------------------------------------

TEST(SpanTracerTest, RetainsEverythingUnderCapacity) {
  SpanTracer tracer(/*capacity=*/8);
  const int track = tracer.RegisterTrack("t");
  for (int i = 0; i < 5; ++i) {
    tracer.Span(track, "s", i * 10, 5);
  }
  EXPECT_EQ(tracer.size(), 5u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.total_recorded(), 5u);
}

TEST(SpanTracerTest, OverflowKeepsNewestAndCountsExactDrops) {
  SpanTracer tracer(/*capacity=*/4);
  const int track = tracer.RegisterTrack("t");
  for (int i = 0; i < 11; ++i) {
    tracer.Instant(track, "i", i);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 7u);  // Exactly 11 - 4.
  EXPECT_EQ(tracer.total_recorded(), 11u);
  // Oldest-first iteration yields the newest 4 events in order.
  const std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].start, static_cast<SimTime>(7 + i));
  }
}

TEST(SpanTracerTest, TrackRegistrationDeduplicatesByName) {
  SpanTracer tracer;
  const int a = tracer.RegisterTrack("flash bank 0");
  const int b = tracer.RegisterTrack("flash bank 1");
  const int a2 = tracer.RegisterTrack("flash bank 0");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, a2);
  EXPECT_EQ(tracer.tracks().size(), 2u);
}

TEST(SpanTracerTest, DefaultCellTagsEveryEvent) {
  SpanTracer tracer;
  tracer.set_default_cell(5);
  tracer.Instant(tracer.RegisterTrack("t"), "i", 1);
  ASSERT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.Events()[0].cell, 5);
}

TEST(SpanTracerTest, NegativeSpanDurationClampsToInstantFloor) {
  SpanTracer tracer;
  tracer.Span(tracer.RegisterTrack("t"), "s", 10, -3);
  ASSERT_EQ(tracer.size(), 1u);
  EXPECT_TRUE(tracer.Events()[0].is_span());
  EXPECT_EQ(tracer.Events()[0].dur, 0);
}

// --- Obs bundle + exporters ---------------------------------------------

TEST(ObsTest, SnapshotMetricsPrefixesByCellAndReportsTracerHealth) {
  ObsOptions options;
  options.cell = 2;
  options.trace_capacity = 2;
  Obs obs(options);
  obs.metrics().AddCounter("x")->Add(1);
  obs.tracer().Instant(obs.tracer().RegisterTrack("t"), "i", 0);
  obs.tracer().Instant(0, "i", 1);
  obs.tracer().Instant(0, "i", 2);  // Overflows capacity 2.
  const MetricsSnapshot snap = obs.SnapshotMetrics();
  EXPECT_EQ(snap.values().at("cell2/x").counter, 1u);
  EXPECT_EQ(snap.values().at("cell2/obs/trace_events_retained").counter, 2u);
  EXPECT_EQ(snap.values().at("cell2/obs/trace_events_dropped").counter, 1u);
}

TEST(TraceExportTest, EmitsValidShapeWithDropCounts) {
  ObsOptions options;
  options.cell = 0;
  Obs obs(options);
  const int track = obs.tracer().RegisterTrack("flash bank 0");
  obs.tracer().Span(track, "read", 1000, 500, {"bytes", 512});
  obs.tracer().Instant(track, "sector-retired", 2000);
  std::ostringstream out;
  ASSERT_TRUE(WriteChromeTrace(out, {&obs}));
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"flash bank 0\""), std::string::npos);
  EXPECT_NE(json.find("\"ssmcDropCounts\""), std::string::npos);
  // ts is exact fractional microseconds: 1000 ns = 1.000 us.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
}

TEST(TraceExportTest, EmptyCaptureIsStillWellFormed) {
  std::ostringstream out;
  ASSERT_TRUE(WriteChromeTrace(out, {}));
  EXPECT_NE(out.str().find("\"traceEvents\""), std::string::npos);
}

TEST(MetricsExportTest, WritesSortedKeysAndHistogramRollups) {
  MetricsSnapshot snap;
  snap.Set("b", MetricValue::MakeCounter(2));
  snap.Set("a", MetricValue::MakeInt(-1));
  Histogram h;
  h.Record(100);
  h.Record(200);
  MetricValue hv;
  hv.kind = MetricValue::Kind::kHistogram;
  hv.histogram.CopyFrom(h);
  snap.Set("lat", hv);
  std::ostringstream out;
  WriteMetricsJson(out, snap);
  const std::string json = out.str();
  EXPECT_LT(json.find("\"a\""), json.find("\"b\""));
  EXPECT_NE(json.find("\"count\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(MetricsExportTest, QuantileMatchesLiveHistogram) {
  Histogram h;
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    h.Record(static_cast<int64_t>(rng.NextBelow(1u << 22)));
  }
  HistogramData d;
  d.CopyFrom(h);
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(HistogramDataQuantile(d, q), h.Quantile(q)) << "q=" << q;
  }
}

}  // namespace
}  // namespace ssmc
