// Simulated small-form-factor magnetic disk — the technology the paper argues
// mobile computers will drop. Used as the baseline substrate for the
// conventional DiskFileSystem and the E1/E3/E5 comparisons.
//
// Timing model:
//  * seek: track-to-track minimum plus a square-root profile up to the full
//    stroke (the standard first-order model of arm acceleration);
//  * rotation: the platter position is derived deterministically from the
//    simulated clock, so rotational delay is the angular distance from the
//    head's current position to the target sector;
//  * transfer: media rate from the spec;
//  * spin state: the disk spins down after an idle timeout (a power-saving
//    necessity on mobile machines) and pays the spin-up latency on the next
//    access. Power accounting distinguishes active / idle-spinning / standby.
//
// Request pipeline: the single arm is one IoScheduler channel (FIFO — the
// arm position makes reordering nonsensical here). Each operation is an
// IoRequest whose service time (seek + rotation + transfer) is computed at
// dispatch, since rotation depends on when the arm starts. Blocking issues
// advance the clock to completion; a non-blocking issue (write-behind)
// reserves arm time and lets the next request queue behind it — the queue
// wait is surfaced in Stats with the same breakdown FlashDevice reports.
// Spin-up always advances the caller's clock: the issuing process waits for
// the medium to become ready before the request can be scheduled.

#ifndef SSMC_SRC_DEVICE_DISK_DEVICE_H_
#define SSMC_SRC_DEVICE_DISK_DEVICE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/device/specs.h"
#include "src/sim/clock.h"
#include "src/sim/energy.h"
#include "src/sim/io_request.h"
#include "src/sim/io_scheduler.h"
#include "src/sim/stats.h"
#include "src/support/status.h"
#include "src/support/units.h"

namespace ssmc {

class Obs;

class DiskDevice {
 public:
  DiskDevice(DiskSpec spec, SimClock& clock);
  // Flushes and removes this device's metrics collector from any attached
  // Obs (which routinely outlives the device).
  ~DiskDevice();

  uint64_t capacity_bytes() const { return spec_.capacity_bytes(); }
  uint64_t sector_bytes() const { return spec_.sector_bytes; }
  uint64_t num_sectors() const {
    return spec_.sectors_per_track * spec_.cylinders;
  }
  const DiskSpec& spec() const { return spec_; }

  // Disable automatic spin-down (0 = never spin down).
  void set_spin_down_after(Duration idle) { spin_down_after_ = idle; }

  // Sector-granularity I/O; `sector` is a logical block address. Buffers
  // must be a multiple of the sector size. Blocking (the default) advances
  // the clock to the request's completion; a non-blocking issue reserves the
  // arm without advancing the clock, and later requests queue behind it.
  Result<Duration> ReadSectors(uint64_t sector, std::span<uint8_t> out,
                               IoIssue issue = {});
  Result<Duration> WriteSectors(uint64_t sector, std::span<const uint8_t> data,
                                IoIssue issue = {});

  // Time at which the arm finishes its last reservation (monotone).
  SimTime ArmBusyUntil() const { return sched_.ChannelBusyUntil(0); }

  // Observability (nullable; null detaches): one "disk arm" trace track with
  // a span per retired request, spin-up instants, latency histograms, and a
  // Stats mirror collector.
  void AttachObs(Obs* obs);

  struct Stats {
    Counter reads;
    Counter read_bytes;
    Counter writes;
    Counter written_bytes;
    Counter seeks;
    Counter seek_ns;
    Counter rotation_ns;
    Counter transfer_ns;
    Counter spin_ups;
    // Pipeline attribution, parity with FlashDevice::Stats: time requests
    // spent queued behind the arm's earlier reservations (all requests), and
    // the slice of that wait observed by blocking reads specifically.
    Counter queue_wait_ns;
    Counter read_stall_ns;
  };
  const Stats& stats() const { return stats_; }
  const EnergyMeter& energy() const { return energy_; }
  // Accounts idle-spinning and standby energy up to now; call when
  // finalizing a run.
  void AccountIdleEnergy();

 private:
  uint64_t CylinderOf(uint64_t sector) const {
    return sector / spec_.sectors_per_track;
  }
  uint64_t SectorInTrack(uint64_t sector) const {
    return sector % spec_.sectors_per_track;
  }

  Duration SeekTime(uint64_t from_cyl, uint64_t to_cyl) const;
  // Rotational delay from the platter angle at `at` to the start of
  // `sector_in_track`.
  Duration RotationDelay(SimTime at, uint64_t sector_in_track) const;
  Duration TransferTime(uint64_t bytes) const;

  // Ensures the disk is spinning; advances the clock through spin-up if not.
  // Also applies auto-spin-down bookkeeping for the idle gap since the last
  // operation.
  void EnsureSpinning();

  Result<Duration> DoIo(uint64_t sector, uint64_t bytes, bool is_write,
                        IoIssue issue);

  DiskSpec spec_;
  SimClock& clock_;
  IoScheduler sched_;  // One channel: the arm. Always FIFO.
  std::vector<uint8_t> contents_;
  uint64_t head_cylinder_ = 0;
  bool spinning_ = true;
  Duration spin_down_after_ = 5 * kSecond;
  Stats stats_;
  EnergyMeter energy_;
  SimTime energy_accounted_until_ = 0;

  Obs* obs_ = nullptr;
  int obs_arm_track_ = 0;
  Histogram* obs_wait_hist_ = nullptr;
  Histogram* obs_service_hist_ = nullptr;
};

}  // namespace ssmc

#endif  // SSMC_SRC_DEVICE_DISK_DEVICE_H_
