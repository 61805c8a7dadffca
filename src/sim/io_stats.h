// Keyed I/O attribution — the one struct counting "who waited how long for
// how much service" at every layer that attributes I/O time.
//
// IoLaneStats is the (requests, queue_wait_ns, service_ns) triple; a lane is
// any attribution key — a priority class (dense array of kNumIoPriorities)
// or a tenant (sparse TenantTable, since a machine typically sees a handful
// of tenant ids out of a 16-bit space). IoLanes is one of each, the layout a
// banked device's IoScheduler fills in: the scheduler is the only module
// that sees every dispatch and every later push of a queued reservation, so
// it alone writes the lanes (FlashDevice::Stats and NvmDevice::Stats derive
// from IoLanes and hand it to their scheduler). The same table shape
// carries the replayer's windowed copy (ReplayReport), the storage layers'
// per-tenant op/byte counters (TenantIoStats) and the replayer's per-tenant
// latency recorders (TenantLatency).

#ifndef SSMC_SRC_SIM_IO_STATS_H_
#define SSMC_SRC_SIM_IO_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/io_request.h"
#include "src/sim/stats.h"

namespace ssmc {

// Sparse per-tenant table: a sorted vector of (tenant, T) pairs. Lookup is
// linear — the table holds as many entries as distinct tenants actually
// seen, which is small by construction. T needs Merge(const T&).
template <typename T>
class TenantTable {
 public:
  struct Entry {
    TenantId tenant = kDefaultTenant;
    T value{};
  };

  // The value for `tenant`, inserted (sorted by tenant id) on first use.
  T& For(TenantId tenant) {
    size_t i = 0;
    while (i < entries_.size() && entries_[i].tenant < tenant) {
      ++i;
    }
    if (i == entries_.size() || entries_[i].tenant != tenant) {
      entries_.insert(entries_.begin() + static_cast<ptrdiff_t>(i),
                      Entry{tenant, {}});
    }
    return entries_[i].value;
  }

  // The value for `tenant`, or null if the tenant was never seen.
  const T* Find(TenantId tenant) const {
    for (const Entry& e : entries_) {
      if (e.tenant == tenant) {
        return &e.value;
      }
    }
    return nullptr;
  }

  const std::vector<Entry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }

  void Merge(const TenantTable& other) {
    for (const Entry& e : other.entries_) {
      For(e.tenant).Merge(e.value);
    }
  }

 private:
  std::vector<Entry> entries_;  // Sorted by tenant id.
};

// Time attribution for one lane (priority class or tenant).
struct IoLaneStats {
  Counter requests;
  Counter queue_wait_ns;
  Counter service_ns;

  void Merge(const IoLaneStats& other) {
    requests.Merge(other.requests);
    queue_wait_ns.Merge(other.queue_wait_ns);
    service_ns.Merge(other.service_ns);
  }

  // Adds (after - before): one lane's activity over a window.
  void AddDelta(const IoLaneStats& after, const IoLaneStats& before) {
    requests.Add(after.requests.value() - before.requests.value());
    queue_wait_ns.Add(after.queue_wait_ns.value() -
                      before.queue_wait_ns.value());
    service_ns.Add(after.service_ns.value() - before.service_ns.value());
  }
};

// Per-tenant time attribution, plus the delta extraction a machine uses to
// window a device's cumulative table to one trace replay.
class TenantLaneTable : public TenantTable<IoLaneStats> {
 public:
  // Adds (after - before) for every lane, keyed by tenant.
  void AddDelta(const TenantLaneTable& after, const TenantLaneTable& before) {
    for (const Entry& e : after.entries()) {
      const IoLaneStats* base = before.Find(e.tenant);
      For(e.tenant).AddDelta(e.value, base != nullptr ? *base : IoLaneStats{});
    }
  }
};

// Wait/service attribution for one banked device, by priority class and by
// issuing tenant. Every request lands in exactly one class lane and one
// tenant lane, so the two views sum to the same totals.
struct IoLanes {
  IoLaneStats by_class[kNumIoPriorities];  // Indexed by IoPriority.
  TenantLaneTable by_tenant;               // Keyed by issuing tenant.
};

// Op/byte attribution for one tenant at a storage layer (file system, write
// buffer, flash store). Layers fill the fields that apply to them and leave
// the rest zero; `relocations` is the FTL's cleaner-move count, billed to
// the tenant owning the relocated data (the per-tenant write-amplification
// numerator).
struct TenantIoStats {
  Counter reads;
  Counter read_bytes;
  Counter writes;
  Counter written_bytes;
  Counter relocations;

  void Merge(const TenantIoStats& other) {
    reads.Merge(other.reads);
    read_bytes.Merge(other.read_bytes);
    writes.Merge(other.writes);
    written_bytes.Merge(other.written_bytes);
    relocations.Merge(other.relocations);
  }
};
using TenantIoTable = TenantTable<TenantIoStats>;

// Per-tenant latency recorders (reads and writes separately): the
// replay-level view behind per-tenant SLO metrics (read p50/p99).
struct TenantLatency {
  LatencyRecorder reads;
  LatencyRecorder writes;

  void Merge(const TenantLatency& other) {
    reads.Merge(other.reads);
    writes.Merge(other.writes);
  }
};
using TenantLatencyTable = TenantTable<TenantLatency>;

}  // namespace ssmc

#endif  // SSMC_SRC_SIM_IO_STATS_H_
