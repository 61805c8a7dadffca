#include "src/obs/metrics.h"

#include <algorithm>
#include <cassert>

namespace ssmc {

void HistogramData::CopyFrom(const Histogram& h) {
  count = h.count();
  sum = h.sum();
  min = h.min();
  max = h.max();
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    buckets[static_cast<size_t>(b)] = h.bucket_count(b);
  }
}

void HistogramData::Merge(const HistogramData& other) {
  if (other.count == 0) {
    return;
  }
  min = count == 0 ? other.min : std::min(min, other.min);
  max = std::max(max, other.max);
  count += other.count;
  sum += other.sum;
  for (size_t b = 0; b < buckets.size(); ++b) {
    buckets[b] += other.buckets[b];
  }
}

MetricValue MetricValue::MakeCounter(uint64_t v) {
  MetricValue m;
  m.kind = Kind::kCounter;
  m.counter = v;
  return m;
}

MetricValue MetricValue::MakeGauge(int64_t v) {
  MetricValue m;
  m.kind = Kind::kGauge;
  m.gauge = v;
  return m;
}

MetricValue MetricValue::MakeInt(int64_t v) {
  MetricValue m;
  m.kind = Kind::kInt;
  m.gauge = v;
  return m;
}

MetricValue MetricValue::MakeDouble(double v) {
  MetricValue m;
  m.kind = Kind::kDouble;
  m.number = v;
  return m;
}

MetricValue MetricValue::MakeBool(bool v) {
  MetricValue m;
  m.kind = Kind::kBool;
  m.flag = v;
  return m;
}

MetricValue MetricValue::MakeString(std::string v) {
  MetricValue m;
  m.kind = Kind::kString;
  m.text = std::move(v);
  return m;
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.values_) {
    auto [it, inserted] = values_.emplace(name, value);
    if (inserted) {
      continue;
    }
    MetricValue& mine = it->second;
    if (mine.kind != value.kind) {
      continue;  // Kind clash: keep the existing value.
    }
    switch (mine.kind) {
      case MetricValue::Kind::kCounter:
        mine.counter += value.counter;
        break;
      case MetricValue::Kind::kGauge:
        mine.gauge += value.gauge;
        break;
      case MetricValue::Kind::kHistogram:
        mine.histogram.Merge(value.histogram);
        break;
      case MetricValue::Kind::kInt:
      case MetricValue::Kind::kDouble:
      case MetricValue::Kind::kBool:
      case MetricValue::Kind::kString:
        break;  // Labels, not accumulators: first writer wins.
    }
  }
}

template <typename T>
T* MetricsRegistry::Register(const std::string& name, Kind kind,
                             std::deque<T>& store) {
  auto it = names_.find(name);
  assert((it == names_.end() || it->second.kind == kind) &&
         "metric name already registered under another type");
  if (it != names_.end() && it->second.kind == kind) {
    return &store[it->second.index];
  }
  store.emplace_back();
  if (it == names_.end()) {
    names_.emplace(name, Entry{kind, store.size() - 1});
  }
  return &store.back();
}

Counter* MetricsRegistry::AddCounter(const std::string& name) {
  return Register(name, Kind::kCounter, counters_);
}

Gauge* MetricsRegistry::AddGauge(const std::string& name) {
  return Register(name, Kind::kGauge, gauges_);
}

Histogram* MetricsRegistry::AddHistogram(const std::string& name) {
  return Register(name, Kind::kHistogram, histograms_);
}

void MetricsRegistry::AddCollector(const std::string& key,
                                   std::function<void()> collector) {
  collectors_[key] = std::move(collector);
}

void MetricsRegistry::FlushAndRemoveCollector(const std::string& key) {
  auto it = collectors_.find(key);
  if (it == collectors_.end()) {
    return;
  }
  it->second();
  collectors_.erase(it);
}

void MetricsRegistry::ResetCountersAndGaugesUnder(const std::string& prefix) {
  for (auto it = names_.lower_bound(prefix);
       it != names_.end() && it->first.starts_with(prefix); ++it) {
    if (it->second.kind == Kind::kCounter) {
      counters_[it->second.index].Reset();
    } else if (it->second.kind == Kind::kGauge) {
      gauges_[it->second.index].Set(0);
    }
  }
}

MetricsSnapshot MetricsRegistry::Snapshot(const std::string& prefix) {
  for (const auto& [key, collector] : collectors_) {
    collector();
  }
  MetricsSnapshot snapshot;
  for (const auto& [name, entry] : names_) {
    MetricValue value;
    switch (entry.kind) {
      case Kind::kCounter:
        value = MetricValue::MakeCounter(counters_[entry.index].value());
        break;
      case Kind::kGauge:
        value = MetricValue::MakeGauge(gauges_[entry.index].value());
        break;
      case Kind::kHistogram:
        value.kind = MetricValue::Kind::kHistogram;
        value.histogram.CopyFrom(histograms_[entry.index]);
        break;
    }
    snapshot.Set(prefix + name, std::move(value));
  }
  return snapshot;
}

}  // namespace ssmc
