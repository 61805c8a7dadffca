// Simulated battery-backed DRAM.
//
// Primary storage in the paper's organization: uniform random-access reads
// and writes, no erase constraint, effectively unlimited endurance. Contents
// survive as long as the battery holds them up; the Battery model decides
// when it stops (see battery.h and the E10 reliability experiment).
//
// Like the NVM device this one carries no payload plane: the
// StorageManager's refcounted page-payload table holds the bytes of every
// DRAM page, so the device models timing, energy and stats only.

#ifndef SSMC_SRC_DEVICE_DRAM_DEVICE_H_
#define SSMC_SRC_DEVICE_DRAM_DEVICE_H_

#include <cstdint>

#include "src/device/specs.h"
#include "src/sim/clock.h"
#include "src/sim/energy.h"
#include "src/sim/stats.h"
#include "src/support/units.h"

namespace ssmc {

class DramDevice {
 public:
  DramDevice(DramSpec spec, uint64_t capacity_bytes, SimClock& clock);

  uint64_t capacity_bytes() const { return capacity_; }
  const DramSpec& spec() const { return spec_; }
  SimClock& clock() { return clock_; }

  // Charges the timing and energy of a blocking access of `bytes`: advances
  // the clock and returns the latency. The bytes themselves live in the
  // storage manager's page-payload table (data pages) or in host containers
  // (directory lookups, page-table walks).
  Duration ChargeAccess(uint64_t bytes, bool is_write);

  // Battery totally failed / machine dropped: the contents are gone (the
  // storage manager drops its page payloads alongside).
  void ForceContentLoss();
  bool contents_lost() const { return contents_lost_; }

  struct Stats {
    Counter reads;
    Counter read_bytes;
    Counter writes;
    Counter written_bytes;
    Counter content_losses;
  };
  const Stats& stats() const { return stats_; }
  const EnergyMeter& energy() const { return energy_; }
  // Books retention power for the time since the last settle not spent
  // serving accesses (EnergyMeter::SettleIdle).
  void AccountIdleEnergy() { energy_.SettleIdle(clock_.now(), standby_mw()); }

  // An access activates one bank (~1 MiB of array): active draw is the
  // per-megabyte figure for one megabyte.
  double active_mw() const { return spec_.active_mw_per_mib; }
  // Retention (self-refresh) power covers the whole array; this is what
  // drains the battery while the machine is otherwise idle.
  double standby_mw() const {
    return spec_.standby_mw_per_mib * (static_cast<double>(capacity_) / kMiB);
  }

 private:
  DramSpec spec_;
  uint64_t capacity_;
  SimClock& clock_;
  Stats stats_;
  EnergyMeter energy_;
  bool contents_lost_ = false;
};

}  // namespace ssmc

#endif  // SSMC_SRC_DEVICE_DRAM_DEVICE_H_
