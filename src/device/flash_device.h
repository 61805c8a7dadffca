// Simulated direct-mapped (NOR-style) flash memory.
//
// Semantics modeled on the paper's description of flash (Section 2):
//  * random byte-level reads at DRAM-like speed (fixed access latency plus a
//    per-byte streaming cost);
//  * programming is ~100x slower than reading and can only clear bits: a
//    program targets bytes that are in the erased state (0xFF), otherwise it
//    fails with FAILED_PRECONDITION (strict mode) — this is the
//    "erase-before-write" constraint the OS must hide;
//  * erasure happens in fixed-size sectors and is slow (ms to seconds);
//  * each sector endures a limited number of erase cycles; beyond the
//    guaranteed endurance, erases fail probabilistically and the sector goes
//    bad (reads return DATA_LOSS) — this drives the wear-leveling experiment.
//
// Bank model (Section 3.3): capacity is split into equal contiguous banks,
// each an independent channel of the device's IoScheduler. Every operation
// is an IoRequest dispatched onto its bank's channel: while a program or
// erase is being served in a bank, requests to that bank queue behind it;
// requests to other banks proceed. Under the default FIFO policy dispatch
// reproduces the historical per-bank busy-until charge-latency model
// bit-for-bit; the machine sets other policies and per-tenant QoS on
// scheduler() directly (see io_scheduler.h). The scheduler also writes the
// device's wait/service lanes (Stats derives from IoLanes), and BankObs
// (bank_obs.h) reports the banks to an attached Obs — both shared with the
// NVM device.
//
// Callers describe how they issue each operation with an IoIssue: the
// scheduling class, and whether the caller's clock advances to completion
// (the CPU is waiting) or the bank absorbs the time in the background (the
// storage manager's flush and cleaning paths).
//
// Threading: none. The simulator is single-threaded; "concurrency" between
// the CPU and the flash array is represented by the per-bank reservation
// timelines of the scheduler.

#ifndef SSMC_SRC_DEVICE_FLASH_DEVICE_H_
#define SSMC_SRC_DEVICE_FLASH_DEVICE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/device/bank_obs.h"
#include "src/device/specs.h"
#include "src/sim/clock.h"
#include "src/sim/energy.h"
#include "src/sim/io_request.h"
#include "src/sim/io_scheduler.h"
#include "src/sim/io_stats.h"
#include "src/sim/stats.h"
#include "src/support/extent.h"
#include "src/support/first_touch_table.h"
#include "src/support/rng.h"
#include "src/support/status.h"
#include "src/support/units.h"

namespace ssmc {

class Obs;

class FlashDevice {
 public:
  // capacity_bytes must be a multiple of spec.erase_sector_bytes * banks.
  FlashDevice(FlashSpec spec, uint64_t capacity_bytes, int banks,
              SimClock& clock, uint64_t seed = 1);

  // --- Geometry ---------------------------------------------------------
  uint64_t capacity_bytes() const { return capacity_; }
  uint64_t sector_bytes() const { return spec_.erase_sector_bytes; }
  uint64_t num_sectors() const { return capacity_ / sector_bytes(); }
  int num_banks() const { return sched_.num_channels(); }
  uint64_t sectors_per_bank() const { return sectors_per_bank_; }
  int BankOfAddress(uint64_t addr) const;
  int BankOfSector(uint64_t sector) const;

  // Advisory, for relocation pre-loops: pull `sector`'s extent directory and
  // each extent's refcount header toward the core. Zero-copy relocation
  // touches exactly these lines — never the payload bytes.
  void PrefetchExtentIndex(uint64_t sector) const;
  const FlashSpec& spec() const { return spec_; }
  SimClock& clock() { return clock_; }

  // --- Operations -------------------------------------------------------
  // All operations validate bounds, then submit an IoRequest to the bank's
  // scheduler channel. Blocking issues advance the shared clock to the
  // request's completion and return the total latency the caller observed
  // (queue wait + service). Non-blocking issues reserve bank time and return
  // the same figure without advancing the clock (under kPriority it is the
  // dispatch-time estimate; queued work may shift later).

  // Random-access read. Foreground-blocking by default (the CPU consumes the
  // data); the cleaner's relocation reads pass a background issue so they
  // reserve bank time without advancing the caller's clock. Fails with
  // DATA_LOSS if any touched sector has worn out.
  Result<Duration> Read(uint64_t addr, std::span<uint8_t> out,
                        IoIssue issue = {});

  // Program pre-erased bytes with a refcounted payload. The range must lie
  // within one sector. Fails with FAILED_PRECONDITION if any target byte is
  // not 0xFF. The device files the payload against the sector instead of
  // copying it: it becomes one more holder of the extent (a counter bump),
  // so a cleaner relocation that re-programs an unchanged page moves zero
  // payload bytes.
  Result<Duration> ProgramExtent(uint64_t addr, PayloadRef payload,
                                 IoIssue issue = {});

  // Zero-copy read for the FTL data plane: returns a shared ref to the
  // stored payload when the range is exactly one programmed extent (the
  // FTL's page reads — no bytes move); otherwise it assembles the range into
  // a fresh extent from `pool` (whose payload_bytes() must equal `bytes`).
  // Timing, energy, stats and errors are exactly Read's (bounds, bank
  // crossing, DATA_LOSS, injected faults).
  Result<PayloadRef> ReadExtent(uint64_t addr, uint64_t bytes,
                                ExtentPool& pool, IoIssue issue = {});

  // Erase one sector by index. Increments wear; may permanently fail the
  // sector once past the endurance limit.
  Result<Duration> EraseSector(uint64_t sector, IoIssue issue = {});

  // Per-sector queries. A sector never programmed or erased answers as a
  // fresh one: erased, not bad, no wear.
  // True if the sector is entirely 0xFF (cheap check used by allocators).
  bool IsSectorErased(uint64_t sector) const;
  bool IsSectorBad(uint64_t sector) const {
    const Sector* s = sectors_.Find(sector);
    return s != nullptr && s->bad;
  }
  uint64_t EraseCount(uint64_t sector) const {
    const Sector* s = sectors_.Find(sector);
    return s != nullptr ? s->erase_count : 0;
  }
  // The first sector at or after `sector` that was ever programmed or
  // erased, or num_sectors(): every sector before it answers as fresh.
  uint64_t NextTouchedSector(uint64_t sector) const {
    return sectors_.NextTouched(sector);
  }

  // Simulated time at which the given bank becomes free (completion of its
  // last reservation; monotone, like the busy-until timestamp it replaces).
  SimTime BankBusyUntil(int bank) const {
    return sched_.ChannelBusyUntil(bank);
  }

  // The per-bank scheduler: its policy (default FIFO) and per-tenant QoS
  // knobs.
  IoScheduler& scheduler() { return sched_; }

  // Erase-count change notification. Called after every EraseSector attempt
  // that bumps a sector's wear (i.e. on success AND on a wear-out failure —
  // the cycle is consumed either way), with the new count and whether the
  // sector just went bad. Lets the FTL's wear trackers stay incremental
  // instead of rescanning erase counts. At most one observer; pass nullptr
  // to unhook.
  using EraseObserver =
      std::function<void(uint64_t sector, uint64_t new_count, bool now_bad)>;
  void set_erase_observer(EraseObserver observer) {
    erase_observer_ = std::move(observer);
  }

  // Observability (nullable; null detaches): BankObs's tracks, histograms
  // and retire spans under the "flash" prefix, plus snapshot-time mirrors of
  // the counters below and the wear gauges.
  void AttachObs(Obs* obs);

  // Test hook: the next `count` reads touching `sector` fail with INTERNAL
  // (transient fault, distinct from wear-out DATA_LOSS). The failure is
  // injected before the request is scheduled, so it has no timing or energy
  // side effects.
  void InjectReadFaults(uint64_t sector, int count) {
    fault_sector_ = sector;
    fault_reads_remaining_ = count;
  }

  // Test hook (crash injection): after `after_programs` further successful
  // programs, the next program is torn by a simulated power failure — only
  // its first `bytes` bytes reach the medium (filed as a copy of the payload
  // whose remaining bytes read erased), the op fails with INTERNAL,
  // and stats().torn_programs is bumped. Like InjectReadFaults the failure
  // fires before the request is scheduled (no timing or energy side
  // effects), and the hook is one-shot: it disarms after firing, so every
  // later program is genuine.
  void FailNextProgramAfterBytes(uint64_t bytes, uint64_t after_programs = 0) {
    torn_program_armed_ = true;
    torn_program_bytes_ = bytes;
    torn_program_skip_ = after_programs;
  }

  // Test hook (crash injection): the next EraseSector is interrupted by a
  // simulated power failure — the wear cycle is consumed (observer notified)
  // but the sector's contents stay untouched and the op fails with INTERNAL.
  // One-shot, like FailNextProgramAfterBytes.
  void InterruptNextErase() { erase_interrupt_armed_ = true; }

  // --- Accounting -------------------------------------------------------
  // The IoLanes base (by_class, by_tenant) is the scheduler's attribution
  // of each stream's latency to queueing vs time on the medium; it stays
  // exact under reordering policies because the scheduler adds each push of
  // a queued reservation as it happens.
  struct Stats : IoLanes {
    Counter reads;            // Read operations.
    Counter read_bytes;
    Counter programs;         // Program operations.
    Counter programmed_bytes;
    Counter erases;           // Sector erases (includes failed attempts).
    Counter read_stall_ns;    // Time blocking reads spent waiting on banks.
    Counter bad_sectors;      // Sectors permanently failed.
    Counter torn_programs;    // Injected power-fail torn writes (tests).
    Counter interrupted_erases;  // Injected power-fail erases (tests).
  };
  const Stats& stats() const { return stats_; }
  const EnergyMeter& energy() const { return energy_; }
  // Books standby energy for the time since the last settle not covered by
  // bank activity (EnergyMeter::SettleIdle).
  void AccountIdleEnergy() { energy_.SettleIdle(clock_.now(), standby_mw()); }

  struct WearSummary {
    uint64_t min_erases = 0;
    uint64_t max_erases = 0;
    double mean_erases = 0;
    double stddev_erases = 0;
    uint64_t bad_sectors = 0;
  };
  WearSummary SummarizeWear() const;

  // Power model: an operation activates one chip (~1 MiB of array), so
  // active draw is the paper's per-megabyte figure for one megabyte; standby
  // (retention/interface) draw scales with the whole card.
  double active_mw() const { return spec_.active_mw_per_mib; }
  double standby_mw() const {
    return spec_.standby_mw_per_mib * (static_cast<double>(capacity_) / kMiB);
  }

 private:
  // One programmed extent within a sector: `ref`'s payload covers
  // [offset, offset + ref.size()). A sector's entries are kept sorted by
  // offset. They are disjoint unless the sector is marked `overlapping`: the
  // erased checks only guarantee that an earlier extent's bytes under a new
  // one are 0xFF, so the medium is the AND of every extent (NOR programs
  // only clear bits), whatever their order.
  struct ExtentEntry {
    uint32_t offset;
    PayloadRef ref;
  };
  using ExtentIter = std::vector<ExtentEntry>::const_iterator;

  // Everything the device keeps per erase sector, built the first time the
  // sector is programmed or erased.
  struct Sector {
    uint64_t erase_count = 0;
    // End offset (exclusive) of the highest byte programmed since the last
    // erase. Bytes at or beyond it are guaranteed still erased, so
    // append-order programs (the FTL's only pattern) skip the erased-check
    // memcmp; programs below it fall back to the full check. A torn
    // program's erased tail lies beyond it.
    uint32_t programmed_end = 0;
    bool bad = false;
    // Some extents intersect (one was programmed over erased bytes of
    // another), so reads AND every intersecting extent instead of taking
    // the sole one that covers the range.
    bool overlapping = false;
    // Programmed extents: the device's only payload plane. Bytes no extent
    // covers read as erased (0xFF), so an erase drops refs instead of
    // memsetting.
    std::vector<ExtentEntry> extents;
  };

  // Sector geometry is almost always a power of two; cache the shift so the
  // per-operation address decomposition is a shift/mask instead of 64-bit
  // division. -1 falls back to division for odd geometries.
  uint64_t SectorOfAddr(uint64_t addr) const {
    return sector_shift_ >= 0 ? addr >> sector_shift_ : addr / sector_bytes();
  }
  uint64_t OffsetInSector(uint64_t addr) const {
    return sector_shift_ >= 0 ? addr & (sector_bytes() - 1)
                              : addr % sector_bytes();
  }

  // Builds and submits the request for an operation of duration `op_ns` on
  // `bank` and books its active energy. Returns the dispatch (wait +
  // service = the latency the caller observed).
  IoScheduler::Dispatch SubmitOp(IoOp op, int bank, uint64_t addr,
                                 uint64_t bytes, Duration op_ns,
                                 IoIssue issue);

  // Files `payload` at `off` of sector `s`, marking it overlapping if the
  // new extent intersects an existing one.
  static void FileExtent(Sector& s, uint64_t off, PayloadRef payload);

  // The first extent of `s` that may intersect a range starting at `off`:
  // the last one starting at or before it when extents are disjoint, the
  // first one otherwise.
  static ExtentIter FirstCandidate(const Sector& s, uint64_t off);

  // The one extent that alone determines [off, off + n) of `s` (it covers
  // the range and nothing else intersects it), or null.
  static const ExtentEntry* SoleCover(const Sector& s, uint64_t off,
                                      uint64_t n);

  // Assembles [off, off + n) of sector `s` (null: never touched, all
  // erased) into `dst`: one memcpy from the sole covering extent, else 0xFF
  // ANDed with every intersecting extent.
  static void CopyOut(const Sector* s, uint64_t off, uint64_t n,
                      uint8_t* dst);

  // Erased check for [off, off + n) of `s`, sector number `sector`. On
  // failure stores the absolute address of the first non-erased byte (for
  // the error message).
  bool RangeErased(uint64_t sector, const Sector& s, uint64_t off,
                   uint64_t n, uint64_t* first_programmed_addr) const;

  // Rejects a read of sectors [first, last] if one is worn out or has an
  // injected fault pending.
  Status CheckReadable(uint64_t first, uint64_t last);

  FlashSpec spec_;
  uint64_t capacity_;
  SimClock& clock_;
  Rng rng_;
  int sector_shift_ = -1;
  int bank_shift_ = -1;
  uint64_t sectors_per_bank_ = 0;
  // One sector's worth of 0xFF, compared wholesale (memcmp) by the erased
  // checks in ProgramExtent() and IsSectorErased().
  std::vector<uint8_t> erased_template_;
  // Built on first touch: construction costs no capacity-sized fill, and
  // teardown visits only the sectors a run programmed or erased.
  FirstTouchTable<Sector> sectors_;
  IoScheduler sched_;  // One channel per bank; writes stats_'s lanes.
  Stats stats_;
  EnergyMeter energy_;
  EraseObserver erase_observer_;
  uint64_t fault_sector_ = 0;
  int fault_reads_remaining_ = 0;
  bool torn_program_armed_ = false;
  uint64_t torn_program_bytes_ = 0;
  uint64_t torn_program_skip_ = 0;
  bool erase_interrupt_armed_ = false;
  BankObs bank_obs_;  // Last: its destructor runs the collector.
};

}  // namespace ssmc

#endif  // SSMC_SRC_DEVICE_FLASH_DEVICE_H_
