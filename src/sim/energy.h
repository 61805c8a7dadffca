// Energy accounting. Devices report (power level, duration) windows to an
// EnergyMeter; the meter integrates them into nanojoules. Power levels are in
// milliwatts; 1 mW * 1 ns = 1e-3 nJ, so we accumulate in double nanojoules.
//
// Each device keeps one meter; MobileComputer sums them for system energy,
// which feeds the battery drain model and the E9 sizing experiment.
//
// Idle energy is settled in one place: the meter remembers how much active
// time it has been given and where the last settle ended, and SettleIdle
// books standby power for the rest of the window. DRAM, flash and NVM all
// settle through it; the disk books its own spin-down model with AddIdle.

#ifndef SSMC_SRC_SIM_ENERGY_H_
#define SSMC_SRC_SIM_ENERGY_H_

#include <algorithm>
#include <string>

#include "src/support/units.h"

namespace ssmc {

class EnergyMeter {
 public:
  // Adds energy for `active` ns spent at `milliwatts`.
  void AddActive(double milliwatts, Duration active) {
    const double nj = milliwatts * 1e-3 * static_cast<double>(active);
    active_nj_ += nj;
    total_nj_ += nj;
    active_ns_ += active;
  }

  // Adds idle (standby) energy for `idle` ns at `milliwatts`.
  void AddIdle(double milliwatts, Duration idle) {
    const double nj = milliwatts * 1e-3 * static_cast<double>(idle);
    idle_nj_ += nj;
    total_nj_ += nj;
  }

  // Books standby energy at `standby_mw` for the window [last settle, now)
  // minus the active time added since the last settle, then makes `now` the
  // settle point. A device's active time may include background work
  // reserved past `now`; the window's idle time never goes negative.
  void SettleIdle(SimTime now, double standby_mw) {
    const Duration window = now - settled_to_;
    if (window <= 0) {
      return;
    }
    const Duration active = active_ns_ - settled_active_ns_;
    AddIdle(standby_mw, std::max<Duration>(0, window - active));
    settled_to_ = now;
    settled_active_ns_ = active_ns_;
  }

  double total_nanojoules() const { return total_nj_; }
  double active_nanojoules() const { return active_nj_; }
  double idle_nanojoules() const { return idle_nj_; }
  // Active nanoseconds added so far (all of them, not just since a settle).
  Duration active_ns() const { return active_ns_; }

  void Reset() { *this = EnergyMeter(); }

  std::string Summary() const {
    return FormatEnergy(total_nj_) + " (active " + FormatEnergy(active_nj_) +
           ", idle " + FormatEnergy(idle_nj_) + ")";
  }

 private:
  double total_nj_ = 0;
  double active_nj_ = 0;
  double idle_nj_ = 0;
  Duration active_ns_ = 0;
  SimTime settled_to_ = 0;          // End of the last settled window.
  Duration settled_active_ns_ = 0;  // active_ns_ at that settle.
};

}  // namespace ssmc

#endif  // SSMC_SRC_SIM_ENERGY_H_
