// E16 — N-tier hierarchy: a byte-addressable NVM tier between DRAM and
// flash (paper Section 5).
//
// Claim under test: the paper anticipates "other solid-state memory
// technologies" slotting between battery-backed DRAM and flash. This
// experiment asks what a PCM-class NVM cache tier buys at a *fixed* DRAM
// budget, and who should manage it:
//   no-nvm   — the two-tier baseline: DRAM clean cache over flash;
//   os-nvm   — OS-managed: the ResidencyManager's tiered ladder (flash ->
//              NVM on first touch, NVM -> DRAM on the next hit, DRAM tail
//              demotes into NVM, NVM tail drops);
//   hw-nvm   — hardware-managed: the OS sees nothing; a per-space access
//              counter migrates hot flash-mapped pages into NVM frames at
//              epoch boundaries (AddressSpace::HwMigrationOptions).
//
// Method: one 2 MiB file (4096 x 512 B blocks), synced to flash, read with
// an independent-reference Zipf(1.0) stream (fixed seed, inverse-CDF over
// tier_model's ZipfPopularity). Warm up 3N draws, then measure 8192: flash
// read traffic, per-tier hit rates, mean simulated read latency, energy.
//
// The OS cells run promote_threshold = 1.0 (admit on first touch), which
// makes the exclusive DRAM-over-NVM ladder behave as one big LRU — exactly
// what the Ju et al. analytical oracle (arXiv:1607.00714, Che
// approximation; src/storage/tier_model.h) models. Each OS cell's measured
// combined hit rate is checked against the closed form; the bench fails
// loudly if any lands more than 5 points off.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/obs/metrics_export.h"
#include "src/storage/residency.h"
#include "src/storage/tier_model.h"
#include "src/support/rng.h"

namespace ssmc {
namespace {

constexpr uint64_t kBlocks = 4096;       // 2 MiB file of 512 B blocks.
constexpr uint64_t kBlockBytes = 512;
constexpr double kZipfSkew = 1.0;
constexpr uint64_t kDramBytes = 1 * kMiB;
constexpr double kCleanFraction = 0.25;  // C1 = 512 DRAM clean slots.
constexpr int kWarmupReads = 3 * kBlocks;
constexpr int kMeasuredReads = 8192;
constexpr uint64_t kNvmSweepKib[] = {256, 512, 1024};

struct NvmResult {
  double hit_rate = 0;          // Measured: reads served above flash.
  double dram_rate = 0;
  double nvm_rate = 0;
  double oracle_hit_rate = -1;  // Closed form; < 0 when no oracle applies.
  uint64_t flash_read_bytes = 0;  // Device-level, incl. promotion traffic.
  uint64_t nvm_read_bytes = 0;
  uint64_t nvm_write_bytes = 0;
  double read_avg_us = 0;
  double energy_mj = 0;
};

MachineConfig BaseConfig(uint64_t nvm_kib) {
  MachineConfig config;
  config.name = "e16";
  config.dram_bytes = kDramBytes;
  config.flash_spec = GenericPaperFlash();
  config.flash_spec.erase_sector_bytes = 8 * kKiB;
  config.flash_spec.erase_ns = 50 * kMillisecond;
  config.flash_bytes = 8 * kMiB;
  config.flash_banks = 2;
  config.fs_options.write_buffer_pages = 256;
  config.nvm_bytes = nvm_kib * kKiB;
  config.nvm_banks = nvm_kib > 0 ? 2 : 1;
  return config;
}

// Writes and syncs the shared 2 MiB test file.
void PopulateFile(MobileComputer& machine) {
  std::vector<uint8_t> block(kBlockBytes);
  if (!machine.fs().Create("/data").ok()) {
    return;
  }
  for (uint64_t b = 0; b < kBlocks; ++b) {
    for (uint64_t i = 0; i < kBlockBytes; ++i) {
      block[i] = static_cast<uint8_t>(b * 31 + i);
    }
    (void)machine.fs().Write("/data", b * kBlockBytes, block);
    if (b % 256 == 255) {
      (void)machine.fs().Sync();
    }
  }
  (void)machine.fs().Sync();
}

// Inverse-CDF sampler over the shared Zipf popularity (IRM traffic).
class ZipfSampler {
 public:
  explicit ZipfSampler(const std::vector<double>& popularity, uint64_t seed)
      : cdf_(popularity.size()), rng_(seed) {
    double sum = 0;
    for (size_t i = 0; i < popularity.size(); ++i) {
      sum += popularity[i];
      cdf_[i] = sum;
    }
  }

  uint64_t Draw() {
    const double u =
        static_cast<double>(rng_.Next() >> 11) * 0x1.0p-53;
    return static_cast<uint64_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
  Rng rng_;
};

// OS-managed cell (nvm_kib = 0 is the two-tier baseline): the residency
// ladder with first-touch admission, driven through the file system.
NvmResult RunOsCell(uint64_t nvm_kib, const std::vector<double>& popularity,
                    Obs* obs) {
  MachineConfig config = BaseConfig(nvm_kib);
  config.obs = obs;
  config.residency.policy = ResidencyPolicy::kReadPromote;
  config.residency.promote_threshold = 1.0;  // First touch: pure LRU ladder.
  config.residency.max_clean_fraction = kCleanFraction;
  MobileComputer machine(config);
  PopulateFile(machine);

  ZipfSampler sampler(popularity, 20260808);
  std::vector<uint8_t> out(kBlockBytes);
  for (int i = 0; i < kWarmupReads; ++i) {
    (void)machine.fs().Read("/data", sampler.Draw() * kBlockBytes, out);
  }
  (void)machine.fs().Sync();

  const MemoryFileSystem::Stats& fs = machine.fs().stats();
  const uint64_t dram0 = fs.clean_cached_read_bytes.value() +
                         fs.buffered_read_bytes.value();
  const uint64_t nvm0 = fs.nvm_cached_read_bytes.value();
  const uint64_t flash0 = machine.flash().stats().read_bytes.value();
  const uint64_t nvm_dev_r0 =
      machine.nvm() ? machine.nvm()->stats().read_bytes.value() : 0;
  const uint64_t nvm_dev_w0 =
      machine.nvm() ? machine.nvm()->stats().written_bytes.value() : 0;
  const SimTime t0 = machine.clock().now();

  for (int i = 0; i < kMeasuredReads; ++i) {
    (void)machine.fs().Read("/data", sampler.Draw() * kBlockBytes, out);
  }
  machine.SettleEnergy();

  const uint64_t total = kMeasuredReads * kBlockBytes;
  NvmResult result;
  result.dram_rate =
      static_cast<double>(fs.clean_cached_read_bytes.value() +
                          fs.buffered_read_bytes.value() - dram0) /
      static_cast<double>(total);
  result.nvm_rate =
      static_cast<double>(fs.nvm_cached_read_bytes.value() - nvm0) /
      static_cast<double>(total);
  result.hit_rate = result.dram_rate + result.nvm_rate;
  result.flash_read_bytes =
      machine.flash().stats().read_bytes.value() - flash0;
  if (machine.nvm() != nullptr) {
    result.nvm_read_bytes =
        machine.nvm()->stats().read_bytes.value() - nvm_dev_r0;
    result.nvm_write_bytes =
        machine.nvm()->stats().written_bytes.value() - nvm_dev_w0;
  }
  result.read_avg_us = static_cast<double>(machine.clock().now() - t0) /
                       kMeasuredReads / 1e3;
  result.energy_mj = machine.TotalEnergyNj() / 1e6;
  const double c1 = kCleanFraction * (kDramBytes / kBlockBytes);
  const double c2 = static_cast<double>(nvm_kib * kKiB / kBlockBytes);
  result.oracle_hit_rate = TieredLruHitRates(popularity, c1, c2).combined;
  return result;
}

// Hardware-managed cell: no OS cache at all (write-buffer-only); a
// per-space access counter migrates hot flash-mapped pages into NVM at
// epoch boundaries, transparently to the file system.
NvmResult RunHwCell(uint64_t nvm_kib, const std::vector<double>& popularity,
                    Obs* obs) {
  MachineConfig config = BaseConfig(nvm_kib);
  config.obs = obs;
  config.hw_migration.enabled = true;
  config.hw_migration.epoch_accesses = 1024;
  config.hw_migration.promote_threshold = 2;
  MobileComputer machine(config);
  PopulateFile(machine);

  AddressSpace& space = machine.CreateAddressSpace();
  const uint64_t base = 16 * kMiB;
  if (!space.MapFileCow(base, machine.fs(), "/data", false).ok()) {
    return {};
  }

  ZipfSampler sampler(popularity, 20260808);
  std::vector<uint8_t> out(kBlockBytes);
  for (int i = 0; i < kWarmupReads; ++i) {
    (void)space.Read(base + sampler.Draw() * kBlockBytes, out);
  }

  const uint64_t flash0 = machine.flash().stats().read_bytes.value();
  const uint64_t nvm_r0 = machine.nvm()->stats().read_bytes.value();
  const uint64_t nvm_w0 = machine.nvm()->stats().written_bytes.value();
  const SimTime t0 = machine.clock().now();

  for (int i = 0; i < kMeasuredReads; ++i) {
    (void)space.Read(base + sampler.Draw() * kBlockBytes, out);
  }
  machine.SettleEnergy();

  const uint64_t total = kMeasuredReads * kBlockBytes;
  NvmResult result;
  result.nvm_read_bytes = machine.nvm()->stats().read_bytes.value() - nvm_r0;
  result.nvm_write_bytes =
      machine.nvm()->stats().written_bytes.value() - nvm_w0;
  result.nvm_rate = static_cast<double>(result.nvm_read_bytes) /
                    static_cast<double>(total);
  result.hit_rate = result.nvm_rate;  // No DRAM cache in this cell.
  result.flash_read_bytes =
      machine.flash().stats().read_bytes.value() - flash0;
  result.read_avg_us = static_cast<double>(machine.clock().now() - t0) /
                       kMeasuredReads / 1e3;
  result.energy_mj = machine.TotalEnergyNj() / 1e6;
  return result;
}

}  // namespace
}  // namespace ssmc

int main(int argc, char** argv) {
  using namespace ssmc;
  PrintHeader(
      "E16: N-tier hierarchy — byte-addressable NVM between DRAM and flash "
      "(Section 5)",
      "Claim: a PCM-class NVM tier at a fixed DRAM budget absorbs most of "
      "the flash read traffic;\nthe OS-managed tier ladder tracks the Ju et "
      "al. closed-form LRU model, and beats\nhardware epoch-counter "
      "migration at equal NVM capacity.");
  std::cout << "Zipf(" << FormatDouble(kZipfSkew, 1) << ") IRM reads over a "
            << FormatSize(kBlocks * kBlockBytes) << " file; DRAM "
            << FormatSize(kDramBytes) << " (clean cache "
            << FormatSize(static_cast<uint64_t>(kCleanFraction * kDramBytes))
            << "); " << kMeasuredReads << " measured reads after "
            << kWarmupReads << " warm-up.\n";

  const std::vector<double> popularity = ZipfPopularity(kBlocks, kZipfSkew);

  // --nvm=<kib> restricts the sweep to one NVM size and --nvm-policy=<os|hw>
  // to one managed family (quick A/B runs; the no-NVM baseline always runs —
  // it is the denominator of the "cut" column). A restricted run does not
  // refresh BENCH_nvm.json: CI diffs it byte for byte against the committed
  // copy, so a partial file must never overwrite it.
  std::vector<uint64_t> sweep_kib(std::begin(kNvmSweepKib),
                                  std::end(kNvmSweepKib));
  uint64_t hw_kib = 1024;
  bool run_os = true;
  bool run_hw = true;
  const std::string nvm_flag = FlagValue(argc, argv, "--nvm=");
  if (!nvm_flag.empty()) {
    const uint64_t one = std::strtoull(nvm_flag.c_str(), nullptr, 10);
    if (one == 0) {
      std::cerr << "bad --nvm size: " << nvm_flag << " (want KiB > 0)\n";
      return 2;
    }
    sweep_kib.assign(1, one);
    hw_kib = one;
  }
  const std::string policy_flag = FlagValue(argc, argv, "--nvm-policy=");
  if (policy_flag == "os") {
    run_hw = false;
  } else if (policy_flag == "hw") {
    run_os = false;
  } else if (!policy_flag.empty()) {
    std::cerr << "unknown --nvm-policy: " << policy_flag << " (want os | hw)\n";
    return 2;
  }
  const bool full_sweep = nvm_flag.empty() && policy_flag.empty();

  // Cell 0: no NVM. Then the OS-managed sweep, then HW-managed.
  ObsCapture capture(argc, argv);
  std::vector<std::function<NvmResult()>> cells;
  cells.push_back([&capture, &popularity] {
    return RunOsCell(0, popularity, capture.ForCell(0));
  });
  if (run_os) {
    for (const uint64_t nvm_kib : sweep_kib) {
      const int cell = static_cast<int>(cells.size());
      cells.push_back([&capture, &popularity, nvm_kib, cell] {
        return RunOsCell(nvm_kib, popularity, capture.ForCell(cell));
      });
    }
  }
  if (run_hw) {
    cells.push_back([&capture, &popularity, hw_kib, cell = cells.size()] {
      return RunHwCell(hw_kib, popularity,
                       capture.ForCell(static_cast<int>(cell)));
    });
  }
  const std::vector<NvmResult> results =
      RunCellsOrdered(argc, argv, std::move(cells));
  const NvmResult& baseline = results[0];

  Table table({"cell", "nvm", "hit rate", "dram", "nvm hits", "oracle",
               "flash reads (MiB)", "cut (x)", "read avg (us)",
               "energy (mJ)"});
  std::vector<MetricsSnapshot> rows;
  bool oracle_ok = true;
  auto add = [&](const std::string& label, const std::string& op,
                 uint64_t nvm_kib, const NvmResult& r) {
    const double cut =
        r.flash_read_bytes > 0
            ? static_cast<double>(baseline.flash_read_bytes) /
                  static_cast<double>(r.flash_read_bytes)
            : 0;
    table.AddRow();
    table.AddCell(label);
    table.AddCell(FormatSize(nvm_kib * kKiB));
    table.AddCell(Pct(r.hit_rate));
    table.AddCell(Pct(r.dram_rate));
    table.AddCell(Pct(r.nvm_rate));
    table.AddCell(r.oracle_hit_rate >= 0 ? Pct(r.oracle_hit_rate)
                                         : std::string("-"));
    table.AddCell(static_cast<double>(r.flash_read_bytes) / kMiB, 2);
    table.AddCell(cut, 2);
    table.AddCell(r.read_avg_us, 1);
    table.AddCell(r.energy_mj, 1);
    if (r.oracle_hit_rate >= 0 &&
        std::abs(r.hit_rate - r.oracle_hit_rate) > 0.05) {
      oracle_ok = false;
      std::cerr << "ORACLE MISMATCH: " << label << " measured "
                << Pct(r.hit_rate) << " vs closed-form "
                << Pct(r.oracle_hit_rate) << " (> 5 points)\n";
    }

    MetricsSnapshot row;
    row.Set("op", MetricValue::MakeString(op));
    row.Set("nvm_kib", MetricValue::MakeInt(static_cast<int64_t>(nvm_kib)));
    row.Set("hit_rate", MetricValue::MakeDouble(r.hit_rate));
    row.Set("dram_hit_rate", MetricValue::MakeDouble(r.dram_rate));
    row.Set("nvm_hit_rate", MetricValue::MakeDouble(r.nvm_rate));
    row.Set("oracle_hit_rate", MetricValue::MakeDouble(r.oracle_hit_rate));
    row.Set("flash_read_bytes",
            MetricValue::MakeInt(static_cast<int64_t>(r.flash_read_bytes)));
    row.Set("flash_read_reduction_x", MetricValue::MakeDouble(cut));
    row.Set("nvm_read_bytes",
            MetricValue::MakeInt(static_cast<int64_t>(r.nvm_read_bytes)));
    row.Set("nvm_write_bytes",
            MetricValue::MakeInt(static_cast<int64_t>(r.nvm_write_bytes)));
    row.Set("read_avg_us", MetricValue::MakeDouble(r.read_avg_us));
    row.Set("energy_mj", MetricValue::MakeDouble(r.energy_mj));
    rows.push_back(std::move(row));
  };

  add("no-nvm (2-tier)", "e16/no-nvm", 0, results[0]);
  if (run_os) {
    for (size_t i = 0; i < sweep_kib.size(); ++i) {
      add("os-nvm", "e16/os-nvm/" + std::to_string(sweep_kib[i]) + "kib",
          sweep_kib[i], results[1 + i]);
    }
  }
  if (run_hw) {
    add("hw-nvm", "e16/hw-nvm/" + std::to_string(hw_kib) + "kib", hw_kib,
        results.back());
  }
  table.Print(std::cout);

  std::cout << "\nReading: the OS-managed ladder turns NVM capacity "
               "directly into flash-read reduction —\nthe combined "
               "DRAM+NVM hit rate tracks the Che/Ju closed form, so the "
               "tier behaves as one\nbig LRU whose fast head lives in "
               "DRAM. Hardware epoch-counter migration catches only\nthe "
               "hottest head (no eviction, coarse epochs): same NVM, far "
               "less of the Zipf tail covered.\n";
  if (full_sweep) (void)WriteMetricsJsonArrayFile("BENCH_nvm.json", rows);
  capture.Finish();
  return oracle_ok ? 0 : 1;
}
