// Simulated byte-addressable non-volatile memory (PCM class).
//
// The third tier of the paper's Section 5 hierarchy: random byte-level reads
// a small multiple of DRAM latency, asymmetrically slower writes (the
// phase-change programming pulse), no erase constraint, and contents that
// survive power loss at zero retention power. Capacity is split into equal
// contiguous banks, each an independent channel of the device's IoScheduler,
// exactly like the flash card: a write being served in a bank queues later
// requests to that bank while other banks proceed. The flash card's
// accounting path is shared too: the scheduler writes the wait/service
// lanes (Stats derives from IoLanes), BankObs (bank_obs.h) reports the
// banks under the "nvm" prefix, and idle energy settles in the EnergyMeter.
// The machine runs NVM under the default FIFO policy with no QoS.
//
// Unlike the flash device this one carries no payload plane of its own — the
// StorageManager's refcounted page-payload tables hold the bytes for every
// byte-addressable tier (DRAM and NVM alike), so the device models timing,
// energy, per-bank wear, and attribution only.

#ifndef SSMC_SRC_DEVICE_NVM_DEVICE_H_
#define SSMC_SRC_DEVICE_NVM_DEVICE_H_

#include <cstdint>
#include <vector>

#include "src/device/bank_obs.h"
#include "src/device/specs.h"
#include "src/sim/clock.h"
#include "src/sim/energy.h"
#include "src/sim/io_request.h"
#include "src/sim/io_scheduler.h"
#include "src/sim/io_stats.h"
#include "src/sim/stats.h"
#include "src/support/status.h"
#include "src/support/units.h"

namespace ssmc {

class Obs;

class NvmDevice {
 public:
  // capacity_bytes must divide evenly into `banks`.
  NvmDevice(NvmSpec spec, uint64_t capacity_bytes, int banks, SimClock& clock);

  NvmDevice(const NvmDevice&) = delete;
  NvmDevice& operator=(const NvmDevice&) = delete;

  // --- Geometry ---------------------------------------------------------
  uint64_t capacity_bytes() const { return capacity_; }
  int num_banks() const { return sched_.num_channels(); }
  uint64_t bytes_per_bank() const { return bytes_per_bank_; }
  int BankOfAddress(uint64_t addr) const {
    return static_cast<int>(addr / bytes_per_bank_);
  }
  const NvmSpec& spec() const { return spec_; }
  SimClock& clock() { return clock_; }

  // --- Operations -------------------------------------------------------
  // Bounds-checked, then submitted as an IoRequest to the address's bank
  // channel. Blocking issues advance the shared clock to completion and the
  // returned latency includes queue wait; background issues reserve bank
  // time only. A transfer may not cross a bank boundary (callers split at
  // page granularity, pages never straddle banks).
  Result<Duration> Read(uint64_t addr, uint64_t bytes, IoIssue issue = {});
  Result<Duration> Write(uint64_t addr, uint64_t bytes, IoIssue issue = {});

  // The per-bank scheduler (tests, pipeline introspection).
  IoScheduler& scheduler() { return sched_; }

  // Observability (nullable; null detaches): BankObs's tracks, histograms
  // and retire spans under the "nvm" prefix, plus snapshot-time mirrors of
  // the counters below and the bank-wear gauge.
  void AttachObs(Obs* obs);

  // --- Accounting -------------------------------------------------------
  struct Stats : IoLanes {
    Counter reads;
    Counter read_bytes;
    Counter writes;
    Counter written_bytes;
    Counter read_stall_ns;  // Time blocking reads spent waiting on banks.
  };
  const Stats& stats() const { return stats_; }
  const EnergyMeter& energy() const { return energy_; }
  // Books standby energy for the time since the last settle not covered by
  // bank activity (EnergyMeter::SettleIdle).
  void AccountIdleEnergy() { energy_.SettleIdle(clock_.now(), standby_mw()); }

  // Per-bank write wear: PCM endurance is per-line, so the interesting
  // signal is how evenly write traffic spreads across banks.
  struct WearSummary {
    uint64_t min_writes = 0;
    uint64_t max_writes = 0;
    double mean_writes = 0;
    uint64_t total_write_bytes = 0;
  };
  WearSummary SummarizeWear() const;

  // An access activates one chip (~1 MiB of array); standby draw scales
  // with capacity (interface only — the array retains at zero power).
  double active_mw() const { return spec_.active_mw_per_mib; }
  double standby_mw() const {
    return spec_.standby_mw_per_mib * (static_cast<double>(capacity_) / kMiB);
  }

 private:
  IoScheduler::Dispatch SubmitOp(IoOp op, int bank, uint64_t addr,
                                 uint64_t bytes, Duration op_ns,
                                 IoIssue issue);

  NvmSpec spec_;
  uint64_t capacity_;
  uint64_t bytes_per_bank_;
  SimClock& clock_;
  IoScheduler sched_;  // One channel per bank; writes stats_'s lanes.
  Stats stats_;
  std::vector<uint64_t> bank_writes_;       // Write ops per bank.
  std::vector<uint64_t> bank_write_bytes_;  // Write bytes per bank.
  EnergyMeter energy_;
  BankObs bank_obs_;  // Last: its destructor runs the collector.
};

}  // namespace ssmc

#endif  // SSMC_SRC_DEVICE_NVM_DEVICE_H_
