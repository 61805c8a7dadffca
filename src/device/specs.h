// Device parameter sheets ("specs") and the 1993 product catalog.
//
// The paper compares five concrete products (Section 2): an NEC 3.3 V DRAM,
// Intel and SunDisk flash memories, and HP KittyHawk 1.3" / Fujitsu M2633
// 2.5" disks. It quotes characteristic numbers for the flash class: ~100 ns
// per byte reads, ~10 us per byte writes, >= 512-byte erase sectors, 100,000
// guaranteed erase cycles, ~$50/MB, tens of mW per MB active power. The specs
// below encode those quoted numbers, filled in with era-typical datasheet
// values where the paper gives none. Every experiment that reports absolute
// times derives them from these constants, so the provenance is explicit.
//
// Trend model (Section 2): megabytes per dollar and per cubic inch improve
// 40%/year for DRAM and flash, 25%/year for disk, from the 1993 baseline.

#ifndef SSMC_SRC_DEVICE_SPECS_H_
#define SSMC_SRC_DEVICE_SPECS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/support/units.h"

namespace ssmc {

// Byte-addressable memory timing: fixed access latency plus streaming rate.
struct MemoryTiming {
  Duration access_ns = 0;       // Fixed per-operation latency.
  Duration per_byte_ns = 0;     // Additional time per byte transferred.

  Duration LatencyFor(uint64_t bytes) const {
    return access_ns + per_byte_ns * static_cast<Duration>(bytes);
  }
};

struct DramSpec {
  std::string name;
  MemoryTiming read;
  MemoryTiming write;
  double active_mw_per_mib = 0;   // Power while reading/writing.
  double standby_mw_per_mib = 0;  // Self-refresh / data-retention power.
  double dollars_per_mib = 0;     // 1993 street price.
  double mib_per_cubic_inch = 0;  // Packaged density.
};

// Byte-addressable non-volatile memory (PCM class). Sits between DRAM and
// flash in the hierarchy the paper sketches in Section 5: random byte reads
// a small multiple of DRAM latency, writes asymmetrically slower (the
// phase-change SET/RESET pulse), no erase constraint, data retained at zero
// power. Per-cell write endurance is finite but orders of magnitude above
// flash sector endurance.
struct NvmSpec {
  std::string name;
  MemoryTiming read;
  MemoryTiming write;              // Asymmetric: slower than read.
  uint64_t endurance_writes = 0;   // Guaranteed writes per line.
  double active_mw_per_mib = 0;
  double standby_mw_per_mib = 0;   // Non-volatile: interface standby only.
  double dollars_per_mib = 0;
  double mib_per_cubic_inch = 0;
};

struct FlashSpec {
  std::string name;
  MemoryTiming read;
  MemoryTiming program;            // Write to pre-erased bytes.
  uint64_t erase_sector_bytes = 0;  // Minimum erase granule.
  Duration erase_ns = 0;            // Time to erase one sector.
  uint64_t endurance_cycles = 0;    // Guaranteed erases per sector.
  double active_mw_per_mib = 0;
  double standby_mw_per_mib = 0;    // Flash retains data at zero power; this
                                    // models interface/controller standby.
  double dollars_per_mib = 0;
  double mib_per_cubic_inch = 0;
};

struct DiskSpec {
  std::string name;
  uint64_t sector_bytes = 512;
  uint64_t sectors_per_track = 32;
  uint64_t cylinders = 1024;
  Duration min_seek_ns = 0;        // Track-to-track.
  Duration avg_seek_ns = 0;        // Catalog average seek.
  Duration max_seek_ns = 0;        // Full stroke.
  Duration rotation_ns = 0;        // One full revolution.
  double transfer_mib_per_s = 0;   // Media transfer rate.
  Duration spin_up_ns = 0;         // Time from standby to ready.
  double active_mw = 0;            // Seeking/transferring.
  double idle_mw = 0;              // Spinning, not transferring.
  double standby_mw = 0;           // Spun down.
  double dollars_per_mib = 0;
  double mib_per_cubic_inch = 0;

  uint64_t capacity_bytes() const {
    return sector_bytes * sectors_per_track * cylinders;
  }
};

// The five 1993 products the paper compares, plus a generic flash spec that
// matches the paper's round numbers (used by default in experiments).

// NEC 3.3 V self-refresh DRAM (uPD42 series) [paper ref 7]. The paper quotes
// 15 MiB/in^3 packaged density and a 10:1 price ratio vs disk.
DramSpec NecDram1993();

// Intel Series 2 flash card [paper ref 6]: memory-mapped, fast reads, slow
// writes, large erase blocks. The paper: "much faster read times but slower
// write times" than SunDisk.
FlashSpec IntelFlash1993();

// SunDisk SDI (solid-state disk) [paper ref 13]: disk-like sector interface,
// balanced read/write, small (512 B) erase sectors.
FlashSpec SunDiskFlash1993();

// Generic direct-mapped flash with exactly the paper's round numbers:
// 100 ns/B read, 10 us/B write, 512 B sectors, 100k cycles, $50/MB.
FlashSpec GenericPaperFlash();

// Phase-change memory, the byte-addressable NVM tier the paper's Section 5
// hierarchy anticipates. Constants follow the PCM literature in PAPERS.md:
// MigrantStore (arXiv 1504.04297) models PCM at a small multiple of DRAM
// read latency with ~2-4x slower array writes; the hybrid DRAM-PCM surveys
// (arXiv 2004.05518, 1805.09127) quote the same read/write asymmetry and
// ~1e8 write endurance. Scaled onto this catalog's 1993 timing baseline so
// the ordering DRAM < PCM < flash (reads) and PCM read < PCM write holds at
// block granularity.
NvmSpec PcmNvm();

// HP KittyHawk C3013A 1.3" 20 MB microdisk [paper ref 5]. Paper quotes
// 19 MiB/in^3.
DiskSpec KittyHawkDisk1993();

// Fujitsu M2633 2.5" 45 MB disk [paper ref 4].
DiskSpec FujitsuDisk1993();

// --- Technology trend model (Section 2) ---------------------------------

// Annual improvement in MB/$ and MB/in^3.
inline constexpr double kDramCostImprovementPerYear = 0.40;
inline constexpr double kFlashCostImprovementPerYear = 0.40;  // "follows DRAM"
inline constexpr double kDiskCostImprovementPerYear = 0.25;
inline constexpr int kCatalogBaseYear = 1993;

// Projects a 1993 $/MiB figure to `year` under `rate` annual MB/$ growth.
double ProjectDollarsPerMib(double base_dollars_per_mib, double rate, int year);

// Projects a 1993 MiB/in^3 figure to `year`.
double ProjectDensity(double base_mib_per_cubic_inch, double rate, int year);

// First year (>= 1993) in which `a` becomes no more expensive per MiB than
// `b` given their respective improvement rates. Returns -1 if never (a
// already cheaper counts as 1993).
int CostCrossoverYear(double a_dollars, double a_rate, double b_dollars,
                      double b_rate);

}  // namespace ssmc

#endif  // SSMC_SRC_DEVICE_SPECS_H_
