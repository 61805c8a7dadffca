// E1 — Device characteristics (paper Section 2).
//
// Claim under test: "DRAM is faster than flash memory but somewhat costlier,
// while disk is slower than flash memory but considerably cheaper.
// Furthermore, flash memory has lower power consumption than either."
// Plus the quoted constants: flash reads ~100 ns/B, writes ~10 us/B,
// >=512 B erase sectors, 100k cycles, ~$50/MB.
//
// Regenerates the comparison table the paper describes in prose: measured
// 512 B random access latency, 64 KiB sequential bandwidth, and the catalog
// cost/density/power figures, for all five 1993 products.

#include <cstring>
#include <vector>

#include "bench/bench_common.h"
#include "src/device/dram_device.h"
#include "src/device/flash_device.h"

namespace ssmc {
namespace {

struct Row {
  std::string name;
  Duration read_512 = 0;
  Duration write_512 = 0;
  double seq_read_mib_s = 0;
  double seq_write_mib_s = 0;
  double dollars_per_mib = 0;
  double mib_per_in3 = 0;
  double active_mw_per_mib = 0;
  std::string erase;
};

Row MeasureDram(const DramSpec& spec) {
  SimClock clock;
  DramDevice dram(spec, 4 * kMiB, clock);
  Row row;
  row.name = spec.name;
  row.read_512 = dram.ChargeAccess(512, /*is_write=*/false);
  row.write_512 = dram.ChargeAccess(512, /*is_write=*/true);
  const Duration seq_r = dram.ChargeAccess(64 * kKiB, /*is_write=*/false);
  const Duration seq_w = dram.ChargeAccess(64 * kKiB, /*is_write=*/true);
  row.seq_read_mib_s = 64.0 / 1024 / (static_cast<double>(seq_r) / kSecond);
  row.seq_write_mib_s = 64.0 / 1024 / (static_cast<double>(seq_w) / kSecond);
  row.dollars_per_mib = spec.dollars_per_mib;
  row.mib_per_in3 = spec.mib_per_cubic_inch;
  row.active_mw_per_mib = spec.active_mw_per_mib;
  row.erase = "n/a";
  return row;
}

Row MeasureFlash(const FlashSpec& spec, Obs* obs = nullptr) {
  SimClock clock;
  FlashDevice flash(spec, 4 * kMiB, 1, clock);
  flash.AttachObs(obs);
  Row row;
  row.name = spec.name;
  std::vector<uint8_t> buf(512);
  row.read_512 = flash.Read(0, buf).value();
  // Program 512 B into an erased area (one sector's worth or sub-sector).
  ExtentPool pool(512);
  PayloadRef data = pool.Allocate();
  std::memset(data.MutableData(), 0x5A, data.size());
  const uint64_t target = spec.erase_sector_bytes;  // Sector 1, erased.
  row.write_512 = flash.ProgramExtent(target, data).value();
  // Sequential read bandwidth over 64 KiB in sector-sized chunks.
  Duration seq_r = 0;
  std::vector<uint8_t> chunk(4096);
  for (uint64_t off = 0; off < 64 * kKiB; off += chunk.size()) {
    seq_r += flash.Read(off, chunk).value();
  }
  row.seq_read_mib_s = 64.0 / 1024 / (static_cast<double>(seq_r) / kSecond);
  // Sequential program bandwidth (pre-erased region).
  Duration seq_w = 0;
  uint64_t programmed = 0;
  PayloadRef wchunk = pool.Allocate();
  std::memset(wchunk.MutableData(), 0x11, wchunk.size());
  for (uint64_t off = 2 * spec.erase_sector_bytes; programmed < 64 * kKiB;
       off += 512, programmed += 512) {
    seq_w += flash.ProgramExtent(off, wchunk).value();
  }
  row.seq_write_mib_s = 64.0 / 1024 / (static_cast<double>(seq_w) / kSecond);
  row.dollars_per_mib = spec.dollars_per_mib;
  row.mib_per_in3 = spec.mib_per_cubic_inch;
  row.active_mw_per_mib = spec.active_mw_per_mib;
  row.erase = FormatSize(spec.erase_sector_bytes) + " / " +
              FormatDuration(spec.erase_ns) + " / " +
              std::to_string(spec.endurance_cycles) + " cycles";
  return row;
}

Row MeasureDisk(const DiskSpec& spec, Obs* obs = nullptr) {
  SimClock clock;
  DiskDevice disk(spec, clock);
  disk.AttachObs(obs);
  disk.set_spin_down_after(0);
  Row row;
  row.name = spec.name;
  // Random 512 B reads across the surface: average of a deterministic sweep.
  Rng rng(7);
  Duration total = 0;
  const int kSamples = 200;
  std::vector<uint8_t> buf(512);
  for (int i = 0; i < kSamples; ++i) {
    const uint64_t sector = rng.NextBelow(disk.num_sectors());
    total += disk.ReadSectors(sector, buf).value();
  }
  row.read_512 = total / kSamples;
  total = 0;
  for (int i = 0; i < kSamples; ++i) {
    const uint64_t sector = rng.NextBelow(disk.num_sectors());
    total += disk.WriteSectors(sector, buf).value();
  }
  row.write_512 = total / kSamples;
  // Sequential: stream 64 KiB from sector 0.
  std::vector<uint8_t> big(64 * kKiB);
  const Duration seq_r = disk.ReadSectors(0, big).value();
  row.seq_read_mib_s = 64.0 / 1024 / (static_cast<double>(seq_r) / kSecond);
  const Duration seq_w = disk.WriteSectors(0, big).value();
  row.seq_write_mib_s = 64.0 / 1024 / (static_cast<double>(seq_w) / kSecond);
  row.dollars_per_mib = spec.dollars_per_mib;
  row.mib_per_in3 = spec.mib_per_cubic_inch;
  // Power per MiB for a ~20 MB drive.
  row.active_mw_per_mib =
      spec.active_mw / (static_cast<double>(spec.capacity_bytes()) / kMiB);
  row.erase = "n/a";
  return row;
}

}  // namespace
}  // namespace ssmc

int main(int argc, char** argv) {
  using namespace ssmc;
  PrintHeader("E1: device characteristics (Section 2)",
              "Claim: DRAM > flash > disk in speed; disk < flash < DRAM in "
              "$/MB; flash lowest power.\nFlash: ~100 ns/B reads, ~10 us/B "
              "writes, sector erase, 100k cycles.");

  ObsCapture capture(argc, argv);
  std::vector<Row> rows;
  rows.push_back(MeasureDram(NecDram1993()));
  rows.push_back(MeasureFlash(IntelFlash1993(), capture.ForCell(1)));
  rows.push_back(MeasureFlash(SunDiskFlash1993(), capture.ForCell(2)));
  rows.push_back(MeasureDisk(KittyHawkDisk1993(), capture.ForCell(3)));
  rows.push_back(MeasureDisk(FujitsuDisk1993(), capture.ForCell(4)));

  Table table({"device", "512B read", "512B write", "seq read MiB/s",
               "seq write MiB/s", "$/MiB", "MiB/in^3", "mW/MiB",
               "erase (size/time/endurance)"});
  for (const Row& row : rows) {
    table.AddRow();
    table.AddCell(row.name);
    table.AddCell(FormatDuration(row.read_512));
    table.AddCell(FormatDuration(row.write_512));
    table.AddCell(row.seq_read_mib_s, 2);
    table.AddCell(row.seq_write_mib_s, 2);
    table.AddCell(row.dollars_per_mib, 0);
    table.AddCell(row.mib_per_in3, 1);
    table.AddCell(row.active_mw_per_mib, 1);
    table.AddCell(row.erase);
  }
  table.Print(std::cout);

  std::cout << "\nDerived checks:\n";
  const double flash_rw_ratio =
      static_cast<double>(rows[1].write_512) /
      static_cast<double>(rows[1].read_512);
  std::cout << "  flash write/read latency ratio (Intel): "
            << FormatDouble(flash_rw_ratio, 0)
            << "x  (paper: two orders of magnitude)\n";
  std::cout << "  disk/flash random read ratio (KittyHawk vs Intel): "
            << FormatDouble(static_cast<double>(rows[3].read_512) /
                                static_cast<double>(rows[1].read_512),
                            0)
            << "x\n";
  capture.Finish();
  return 0;
}
