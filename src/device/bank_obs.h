// Observability for a banked device — the flash card and the NVM tier —
// written once and parameterised by the device's name prefix ("flash",
// "nvm"). Attaching registers one trace track per bank ("<prefix> bank N")
// and then one per priority class ("<prefix> class C"), in that order since
// track ids appear in the trace, plus per-class wait/service histograms, and
// installs the scheduler's retire hook. Each retired request, with its FINAL
// timestamps, feeds those histograms and its tenant's
// ("<prefix>/tenant<T>/wait_ns", ".../service_ns"), and becomes a bank-track
// span (its service) and a class-track span (its full latency, so a long
// span over a short bank twin reads as queueing). The device's counters and
// gauges, and each tenant's request and queue-wait lanes, go through a
// StatsMirror keyed by the prefix (src/obs/stats_mirror.h): copied at
// snapshot time, flushed into the Obs when the device detaches or is
// destroyed. Detached, the retire hook stays empty, so FIFO requests keep
// the scheduler's light path (no reservation object).

#ifndef SSMC_SRC_DEVICE_BANK_OBS_H_
#define SSMC_SRC_DEVICE_BANK_OBS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/stats_mirror.h"
#include "src/sim/io_request.h"
#include "src/sim/io_scheduler.h"
#include "src/sim/io_stats.h"
#include "src/sim/stats.h"

namespace ssmc {

class Obs;

class BankObs {
 public:
  BankObs(std::string prefix, IoScheduler& sched, const IoLanes& lanes);

  BankObs(const BankObs&) = delete;
  BankObs& operator=(const BankObs&) = delete;

  // Attaches to `obs` (null detaches), mirroring the device's `counters`
  // and `gauges` as "<prefix>/<name>".
  void Attach(Obs* obs, std::vector<StatsMirror::CounterField> counters,
              std::vector<StatsMirror::GaugeField> gauges);

 private:
  struct TenantHistograms {
    TenantId tenant = kDefaultTenant;
    Histogram* wait = nullptr;
    Histogram* service = nullptr;
  };

  void Retire(int bank, const IoRequest& req);
  // The tenant's histograms, registered on its first retire.
  TenantHistograms& ForTenant(TenantId tenant);

  const std::string prefix_;
  IoScheduler& sched_;
  const IoLanes& lanes_;
  Obs* obs_ = nullptr;
  std::vector<int> bank_tracks_;
  int class_tracks_[kNumIoPriorities] = {};
  Histogram* wait_hist_[kNumIoPriorities] = {};
  Histogram* service_hist_[kNumIoPriorities] = {};
  std::vector<TenantHistograms> tenant_hist_;
  // Last: its destructor runs the collector, which reads `lanes_`, so a
  // device declares its BankObs after its stats.
  StatsMirror mirror_;
};

}  // namespace ssmc

#endif  // SSMC_SRC_DEVICE_BANK_OBS_H_
