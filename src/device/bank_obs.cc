#include "src/device/bank_obs.h"

#include <algorithm>
#include <utility>

#include "src/obs/obs.h"

namespace ssmc {

BankObs::BankObs(std::string prefix, IoScheduler& sched, const IoLanes& lanes)
    : prefix_(std::move(prefix)), sched_(sched), lanes_(lanes),
      mirror_(prefix_) {}

void BankObs::Attach(Obs* obs, std::vector<StatsMirror::CounterField> counters,
                     std::vector<StatsMirror::GaugeField> gauges) {
  // A tenant's service time is its retire-time histogram, so only its
  // request count and queue wait are mirrored.
  mirror_.Attach(obs, std::move(counters), std::move(gauges),
                 [this](MetricsRegistry& m) {
                   for (const auto& e : lanes_.by_tenant.entries()) {
                     const std::string base = TenantPrefix(prefix_, e.tenant);
                     MirrorCounter(m, base + "requests", e.value.requests);
                     MirrorCounter(m, base + "queue_wait_ns",
                                   e.value.queue_wait_ns);
                   }
                 });
  obs_ = obs;
  if (obs_ == nullptr) {
    sched_.set_retire_hook(nullptr);
    return;
  }
  SpanTracer& tracer = obs_->tracer();
  bank_tracks_.clear();
  for (int b = 0; b < sched_.num_channels(); ++b) {
    bank_tracks_.push_back(
        tracer.RegisterTrack(prefix_ + " bank " + std::to_string(b)));
  }
  MetricsRegistry& m = obs_->metrics();
  for (int c = 0; c < kNumIoPriorities; ++c) {
    const std::string cls = IoPriorityName(static_cast<IoPriority>(c));
    class_tracks_[c] = tracer.RegisterTrack(prefix_ + " class " + cls);
    wait_hist_[c] = m.AddHistogram(prefix_ + "/" + cls + "/wait_ns");
    service_hist_[c] = m.AddHistogram(prefix_ + "/" + cls + "/service_ns");
  }
  tenant_hist_.clear();
  sched_.set_retire_hook(
      [this](int bank, const IoRequest& req) { Retire(bank, req); });
}

BankObs::TenantHistograms& BankObs::ForTenant(TenantId tenant) {
  // Linear scan: a machine serves a handful of tenant ids.
  for (TenantHistograms& lane : tenant_hist_) {
    if (lane.tenant == tenant) {
      return lane;
    }
  }
  const std::string base = TenantPrefix(prefix_, tenant);
  MetricsRegistry& m = obs_->metrics();
  return tenant_hist_.emplace_back(TenantHistograms{
      tenant, m.AddHistogram(base + "wait_ns"),
      m.AddHistogram(base + "service_ns")});
}

void BankObs::Retire(int bank, const IoRequest& req) {
  const int cls = static_cast<int>(req.priority);
  const uint64_t wait = static_cast<uint64_t>(
      std::max<Duration>(0, req.start_time - req.issue_time));
  const uint64_t service = static_cast<uint64_t>(
      std::max<Duration>(0, req.complete_time - req.start_time));
  wait_hist_[cls]->Record(wait);
  service_hist_[cls]->Record(service);
  TenantHistograms& tenant = ForTenant(req.tenant);
  tenant.wait->Record(wait);
  tenant.service->Record(service);
  SpanTracer& tracer = obs_->tracer();
  tracer.Span(bank_tracks_[static_cast<size_t>(bank)], IoOpName(req.op),
              req.start_time, static_cast<Duration>(service),
              {"bytes", req.bytes}, {"wait_ns", wait},
              {"prio", static_cast<uint64_t>(cls)});
  tracer.Span(class_tracks_[cls], IoOpName(req.op), req.issue_time,
              static_cast<Duration>(wait + service), {"bytes", req.bytes},
              {"bank", static_cast<uint64_t>(bank)},
              {"tenant", static_cast<uint64_t>(req.tenant)});
}

}  // namespace ssmc
