#include "src/obs/stats_mirror.h"

#include <utility>

#include "src/obs/obs.h"

namespace ssmc {

void StatsMirror::Attach(Obs* obs, std::vector<CounterField> counters,
                         std::vector<GaugeField> gauges, Lazy lazy) {
  MetricsRegistry* registry = obs != nullptr ? &obs->metrics() : nullptr;
  if (registry != registry_) {
    Detach();
    registry_ = registry;
    if (registry_ != nullptr) {
      // This instance takes over the key: every counter and gauge under it,
      // the lazily named per-tenant ones included, reports this instance
      // from now on (0 for a tenant it has not seen), not a predecessor's
      // final values.
      registry_->ResetCountersAndGaugesUnder(key_ + "/");
    }
  }
  if (registry_ == nullptr) {
    return;
  }
  // Handles are resolved once, here: the collector does no name lookups.
  std::vector<std::pair<Counter*, const Counter*>> copies;
  for (const CounterField& c : counters) {
    copies.emplace_back(registry_->AddCounter(key_ + "/" + c.name), c.src);
  }
  std::vector<std::pair<Gauge*, std::function<int64_t()>>> reads;
  for (GaugeField& g : gauges) {
    reads.emplace_back(registry_->AddGauge(key_ + "/" + g.name),
                       std::move(g.read));
  }
  registry_->AddCollector(key_, [registry = registry_,
                                 copies = std::move(copies),
                                 reads = std::move(reads),
                                 lazy = std::move(lazy)] {
    for (const auto& [dst, src] : copies) {
      dst->Reset();
      dst->Add(src->value());
    }
    for (const auto& [dst, read] : reads) {
      dst->Set(read());
    }
    if (lazy) {
      lazy(*registry);
    }
  });
}

void StatsMirror::Detach() {
  if (registry_ != nullptr) {
    registry_->FlushAndRemoveCollector(key_);
    registry_ = nullptr;
  }
}

void MirrorCounter(MetricsRegistry& registry, const std::string& name,
                   const Counter& src) {
  Counter* dst = registry.AddCounter(name);
  dst->Reset();
  dst->Add(src.value());
}

std::string TenantPrefix(const std::string& key, TenantId tenant) {
  return key + "/tenant" + std::to_string(tenant) + "/";
}

}  // namespace ssmc
