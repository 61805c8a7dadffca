// StatsMirror — the one path by which a layer exports its Stats to an Obs.
// A layer's AttachObs declares its exported fields as a table: counters as
// {name, const Counter*}, gauges as {name, int64_t()} readers, plus an
// optional per-snapshot callback for lazily named keys (per-tenant lanes).
// The mirror registers a "<key>/<name>" handle per field and installs one
// collector under `key` that copies every field at each Snapshot(); nothing
// runs per event.
//
// The Obs routinely outlives the layer (benches snapshot after the run), so
// the collector is flushed (run once more, leaving the final values in the
// handles) and removed on re-attach to another Obs, on detach (null), and
// when the owner is destroyed. Re-attaching to the same Obs replaces it. A
// mirror attaching to an Obs takes over every counter and gauge under
// "<key>/": a layer rebuilt by crash recovery reports only its own values
// there, also under the per-tenant keys its predecessor registered (0 for
// a tenant it has not seen), so one snapshot never mixes two lifetimes.
// Declare the mirror as its owner's LAST member: it is destroyed first,
// after the owner's destructor body, while every field it reads is alive.

#ifndef SSMC_SRC_OBS_STATS_MIRROR_H_
#define SSMC_SRC_OBS_STATS_MIRROR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/io_request.h"
#include "src/sim/stats.h"

namespace ssmc {

class Obs;

class StatsMirror {
 public:
  struct CounterField {
    const char* name;
    const Counter* src;
  };
  struct GaugeField {
    const char* name;
    std::function<int64_t()> read;  // An unsigned reading converts.
  };
  // Runs after the table at every snapshot. Registering from it is safe:
  // AddCounter/AddGauge are idempotent per name and handles never move.
  using Lazy = std::function<void(MetricsRegistry&)>;

  explicit StatsMirror(std::string key) : key_(std::move(key)) {}
  ~StatsMirror() { Detach(); }

  StatsMirror(const StatsMirror&) = delete;
  StatsMirror& operator=(const StatsMirror&) = delete;

  // Attaches to `obs` (null detaches).
  void Attach(Obs* obs, std::vector<CounterField> counters,
              std::vector<GaugeField> gauges = {}, Lazy lazy = nullptr);

 private:
  // Flushes and removes the collector, if one is installed.
  void Detach();

  const std::string key_;
  MetricsRegistry* registry_ = nullptr;
};

// Sets the counter `name` of `registry` to `src`'s value, registering it on
// first use.
void MirrorCounter(MetricsRegistry& registry, const std::string& name,
                   const Counter& src);

// "<key>/tenant<T>/", the prefix of a tenant's keys under `key`.
std::string TenantPrefix(const std::string& key, TenantId tenant);

}  // namespace ssmc

#endif  // SSMC_SRC_OBS_STATS_MIRROR_H_
