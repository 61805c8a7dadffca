#include "src/device/specs.h"

#include <cmath>

namespace ssmc {

DramSpec NecDram1993() {
  DramSpec spec;
  spec.name = "NEC 3.3V DRAM";
  // 80 ns random access, ~25 ns/byte streaming on a 32-bit bus.
  spec.read = {80, 25};
  spec.write = {80, 25};
  spec.active_mw_per_mib = 150;   // Active read/write power.
  spec.standby_mw_per_mib = 1.5;  // Low-power self-refresh mode.
  spec.dollars_per_mib = 30;      // ~10x the KittyHawk's $/MB (paper).
  spec.mib_per_cubic_inch = 15;   // Quoted in the paper.
  return spec;
}

FlashSpec IntelFlash1993() {
  FlashSpec spec;
  spec.name = "Intel Series 2 flash";
  // Memory-mapped: reads close to DRAM speed.
  spec.read = {150, 100};       // ~100 ns/byte (paper's round number).
  spec.program = {2000, 10000};  // ~10 us/byte programming.
  spec.erase_sector_bytes = 64 * kKiB;  // Large erase blocks.
  spec.erase_ns = 1600 * kMillisecond;  // Block erase ~1.6 s.
  spec.endurance_cycles = 100000;
  spec.active_mw_per_mib = 30;  // "tens of milliwatts per megabyte".
  spec.standby_mw_per_mib = 0.05;
  spec.dollars_per_mib = 50;  // Paper: "50-dollar per megabyte range".
  spec.mib_per_cubic_inch = 15.2;  // "within 20% of the KittyHawk".
  return spec;
}

FlashSpec SunDiskFlash1993() {
  FlashSpec spec;
  spec.name = "SunDisk SDI flash";
  // Disk-like sector interface: slower reads than Intel, faster writes.
  spec.read = {25000, 200};      // Sector setup dominated.
  spec.program = {25000, 2500};  // Optimized write path (~2.5 us/byte).
  spec.erase_sector_bytes = 512;  // Paper: "minimum erase sector in the
                                  // 512-byte range".
  spec.erase_ns = 3 * kMillisecond;  // Per-sector erase folded into writes.
  spec.endurance_cycles = 100000;
  spec.active_mw_per_mib = 35;
  spec.standby_mw_per_mib = 0.05;
  spec.dollars_per_mib = 50;
  spec.mib_per_cubic_inch = 15.5;
  return spec;
}

FlashSpec GenericPaperFlash() {
  FlashSpec spec;
  spec.name = "generic flash (paper)";
  spec.read = {100, 100};        // 100 ns/byte reads.
  spec.program = {1000, 10000};  // 10 us/byte writes.
  spec.erase_sector_bytes = 4 * kKiB;  // Direct-mapped card, small sectors.
  spec.erase_ns = 100 * kMillisecond;
  spec.endurance_cycles = 100000;  // Guaranteed 100,000 erase cycles.
  spec.active_mw_per_mib = 30;
  spec.standby_mw_per_mib = 0.05;
  spec.dollars_per_mib = 50;
  spec.mib_per_cubic_inch = 15;
  return spec;
}

NvmSpec PcmNvm() {
  NvmSpec spec;
  spec.name = "PCM NVM";
  // Reads: ~3x the DRAM access latency, ~2x its streaming cost
  // (MigrantStore, arXiv 1504.04297, Table 1 ratios applied to the NEC
  // DRAM baseline). Still well under flash at block granularity: a 512 B
  // read costs 25.9 us here vs 51.4 us on the Intel card.
  spec.read = {250, 50};
  // Writes: the phase-change programming pulse makes array writes ~4x
  // slower than reads (arXiv 2004.05518 quotes 3-8x).
  spec.write = {500, 200};
  spec.endurance_writes = 100000000;  // ~1e8 (arXiv 1805.09127).
  spec.active_mw_per_mib = 60;    // Write pulses draw more than DRAM reads.
  spec.standby_mw_per_mib = 0.05;  // Non-volatile: no refresh, interface only.
  spec.dollars_per_mib = 40;       // Between DRAM ($30) and flash ($50).
  spec.mib_per_cubic_inch = 15;
  return spec;
}

DiskSpec KittyHawkDisk1993() {
  DiskSpec spec;
  spec.name = "HP KittyHawk 1.3\"";
  spec.sector_bytes = 512;
  spec.sectors_per_track = 31;
  spec.cylinders = 1260;  // ~20 MB.
  spec.min_seek_ns = 5 * kMillisecond;
  spec.avg_seek_ns = 18 * kMillisecond;
  spec.max_seek_ns = 35 * kMillisecond;
  spec.rotation_ns = 11 * kMillisecond;  // 5400 RPM.
  spec.transfer_mib_per_s = 0.9;
  spec.spin_up_ns = 1 * kSecond;  // Fast spin-up was a KittyHawk feature.
  spec.active_mw = 1500;
  spec.idle_mw = 700;
  spec.standby_mw = 15;
  spec.dollars_per_mib = 3;  // DRAM package "costs ten times more" (paper).
  spec.mib_per_cubic_inch = 19;  // Quoted in the paper.
  return spec;
}

DiskSpec FujitsuDisk1993() {
  DiskSpec spec;
  spec.name = "Fujitsu M2633 2.5\"";
  spec.sector_bytes = 512;
  spec.sectors_per_track = 38;
  spec.cylinders = 2332;  // ~45 MB.
  spec.min_seek_ns = 4 * kMillisecond;
  spec.avg_seek_ns = 25 * kMillisecond;
  spec.max_seek_ns = 45 * kMillisecond;
  spec.rotation_ns = 17 * kMillisecond;  // 3500 RPM class.
  spec.transfer_mib_per_s = 1.2;
  spec.spin_up_ns = 2 * kSecond;
  spec.active_mw = 2300;
  spec.idle_mw = 1000;
  spec.standby_mw = 20;
  spec.dollars_per_mib = 2;  // Double the density, cheaper per MB.
  spec.mib_per_cubic_inch = 31;  // Paper: flash "only half" this density.
  return spec;
}

double ProjectDollarsPerMib(double base_dollars_per_mib, double rate,
                            int year) {
  // MB/$ grows by (1+rate) per year, so $/MB shrinks by the same factor.
  return base_dollars_per_mib /
         std::pow(1.0 + rate, year - kCatalogBaseYear);
}

double ProjectDensity(double base_mib_per_cubic_inch, double rate, int year) {
  return base_mib_per_cubic_inch * std::pow(1.0 + rate, year - kCatalogBaseYear);
}

int CostCrossoverYear(double a_dollars, double a_rate, double b_dollars,
                      double b_rate) {
  if (a_dollars <= b_dollars) {
    return kCatalogBaseYear;
  }
  if (a_rate <= b_rate) {
    return -1;  // a never catches up.
  }
  for (int year = kCatalogBaseYear; year <= kCatalogBaseYear + 100; ++year) {
    if (ProjectDollarsPerMib(a_dollars, a_rate, year) <=
        ProjectDollarsPerMib(b_dollars, b_rate, year)) {
      return year;
    }
  }
  return -1;
}

}  // namespace ssmc
