// Seeded property test for the residency manager's block-state table.
//
// Random write, overwrite, read, truncate, unlink, TickFlush, Sync and VM
// fault sequences run through MemoryFileSystem under every residency policy,
// with and without an NVM tier. After every op ResidencyManager::
// CheckInvariants() audits the slot table (tier exclusivity, list lengths,
// budgets, page ownership, no leaked or stale slots), and every read —
// through the file system or a copy-on-write mapping — is checked against an
// independent per-file byte model.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/fs/memory_fs.h"
#include "src/storage/residency.h"
#include "src/support/rng.h"
#include "src/vm/address_space.h"

namespace ssmc {
namespace {

FlashSpec TestFlashSpec() {
  FlashSpec spec;
  spec.read = {100, 10};
  spec.program = {1000, 100};
  spec.erase_sector_bytes = 8192;
  spec.erase_ns = kMillisecond;
  spec.endurance_cycles = 1000000;
  return spec;
}

DramSpec TestDramSpec() {
  DramSpec spec;
  spec.read = {50, 10};
  spec.write = {60, 12};
  spec.active_mw_per_mib = 150;
  spec.standby_mw_per_mib = 1.5;
  return spec;
}

NvmSpec TestNvmSpec() {
  NvmSpec spec;
  spec.name = "test nvm";
  spec.read = {60, 20};
  spec.write = {120, 40};
  spec.endurance_writes = 1000000;
  return spec;
}

using Param = std::tuple<ResidencyPolicy, bool>;  // Policy, NVM tier.

class BlockStatePropertyTest : public ::testing::TestWithParam<Param> {
 protected:
  BlockStatePropertyTest()
      : dram_(TestDramSpec(), 128 * 1024, clock_),
        flash_(TestFlashSpec(), 2 * kMiB, 2, clock_),
        store_(flash_, FlashStoreOptions{}) {
    if (std::get<1>(GetParam())) {
      nvm_ = std::make_unique<NvmDevice>(TestNvmSpec(), 24 * 512, 2, clock_);
    }
    ResidencyOptions residency;
    residency.policy = std::get<0>(GetParam());
    // A short half-life exercises promotion and decay inside the test's
    // timeline; a small clean cache (25 of 256 DRAM pages) keeps both
    // tiers at their budgets and the demotion ladder busy.
    residency.heat_half_life = 2 * kSecond;
    residency.max_clean_fraction = 0.1;
    manager_ = std::make_unique<StorageManager>(dram_, store_, 512, residency,
                                                nvm_.get());
    MemoryFsOptions fs_options;
    fs_options.write_buffer_pages = 16;
    fs_ = std::make_unique<MemoryFileSystem>(*manager_, fs_options);
    space_ = std::make_unique<AddressSpace>(*manager_);
  }

  ResidencyManager& res() { return manager_->residency(); }

  SimClock clock_;
  DramDevice dram_;
  FlashDevice flash_;
  FlashStore store_;
  std::unique_ptr<NvmDevice> nvm_;
  std::unique_ptr<StorageManager> manager_;
  std::unique_ptr<MemoryFileSystem> fs_;
  std::unique_ptr<AddressSpace> space_;
};

TEST_P(BlockStatePropertyTest, RandomOpsKeepSlotTableConsistent) {
  constexpr int kOps = 8000;
  constexpr uint64_t kFiles = 16;
  constexpr uint64_t kMaxFileBytes = 24 * 512;
  constexpr uint64_t kVmBase = 1 * kMiB;
  auto path_of = [](uint64_t f) { return "/f" + std::to_string(f); };
  Rng rng(0xB10C + static_cast<uint64_t>(std::get<0>(GetParam())) * 2 +
          (std::get<1>(GetParam()) ? 1 : 0));
  std::vector<bool> exists(kFiles, false);
  std::vector<std::vector<uint8_t>> model(kFiles);
  bool mapped = false;  // File 0 is mapped copy-on-write (and frozen).
  auto model_read = [&](uint64_t f, uint64_t off, uint64_t len) {
    const std::vector<uint8_t>& bytes = model[f];
    if (off >= bytes.size()) {
      return std::vector<uint8_t>();
    }
    const uint64_t n = std::min<uint64_t>(len, bytes.size() - off);
    return std::vector<uint8_t>(
        bytes.begin() + static_cast<ptrdiff_t>(off),
        bytes.begin() + static_cast<ptrdiff_t>(off + n));
  };

  for (int op = 0; op < kOps; ++op) {
    const uint64_t file = rng.NextBelow(kFiles);
    const std::string path = path_of(file);
    const bool frozen = file == 0 && mapped;
    switch (rng.NextBelow(40)) {
      case 0:  // Create.
        if (!exists[file]) {
          ASSERT_TRUE(fs_->Create(path).ok());
          exists[file] = true;
          model[file].clear();
        }
        break;
      case 1:  // Unlink: buffered blocks, cached copies and heat all go.
        if (exists[file] && !frozen) {
          ASSERT_TRUE(fs_->Unlink(path).ok());
          exists[file] = false;
          model[file].clear();
        }
        break;
      case 2:  // Truncate, shrinking or extending.
        if (exists[file] && !frozen) {
          const uint64_t size = rng.NextBelow(kMaxFileBytes);
          ASSERT_TRUE(fs_->Truncate(path, size).ok());
          model[file].resize(size, 0);
        }
        break;
      case 3:
        ASSERT_TRUE(fs_->Sync().ok());
        break;
      case 4:
        ASSERT_TRUE(fs_->TickFlush(clock_.now()).ok());
        break;
      case 5:  // Idle: heat decays, dirty blocks age.
        clock_.Advance((1 + rng.NextBelow(4000)) * kMillisecond);
        break;
      case 6:
      case 7: {  // VM faults through a copy-on-write mapping of file 0.
        if (!exists[0] || model[0].empty()) {
          break;
        }
        if (mapped && rng.NextBelow(4) == 0) {
          // Unmapping drops the frames, so the next mapping faults again.
          ASSERT_TRUE(space_->Unmap(kVmBase).ok());
          mapped = false;
          break;
        }
        if (!mapped) {
          ASSERT_TRUE(fs_->Sync().ok());
          ASSERT_TRUE(
              space_->MapFileCow(kVmBase, *fs_, path_of(0), false).ok());
          mapped = true;
        }
        const uint64_t size = model[0].size();
        const uint64_t off = rng.NextBelow(size);
        const uint64_t len = 1 + rng.NextBelow(size - off);
        std::vector<uint8_t> got(len);
        ASSERT_TRUE(space_->Read(kVmBase + off, got).ok());
        ASSERT_EQ(got, model_read(0, off, len)) << "VM read at op " << op;
        break;
      }
      default: {  // Write (often an overwrite of a hot prefix) or read.
        if (!exists[file]) {
          break;
        }
        const bool hot = rng.NextBelow(2) == 0;
        const uint64_t off = rng.NextBelow(hot ? 4 * 512 : kMaxFileBytes);
        const uint64_t len = 1 + rng.NextBelow(3 * 512);
        if (rng.NextBelow(2) == 0 && !frozen) {
          std::vector<uint8_t> data(len);
          for (uint8_t& b : data) {
            b = static_cast<uint8_t>(rng.Next());
          }
          ASSERT_TRUE(fs_->Write(path, off, data).ok());
          if (off + len > model[file].size()) {
            model[file].resize(off + len, 0);
          }
          std::copy(data.begin(), data.end(),
                    model[file].begin() + static_cast<ptrdiff_t>(off));
        } else {
          std::vector<uint8_t> got(len, 0xEE);
          Result<uint64_t> n = fs_->Read(path, off, got);
          ASSERT_TRUE(n.ok());
          got.resize(n.value());
          ASSERT_EQ(got, model_read(file, off, len))
              << "read at op " << op << " on " << path;
        }
        break;
      }
    }
    const Status audit = res().CheckInvariants();
    ASSERT_TRUE(audit.ok()) << "op " << op << ": " << audit.ToString();
  }

  // The run reached the states the audit is about.
  EXPECT_GT(fs_->write_buffer().stats().capacity_evictions.value(), 0u);
  if (res().enabled()) {
    EXPECT_GT(res().stats().promotions.value() +
                  res().stats().nvm_promotions.value(),
              0u);
    EXPECT_GT(res().stats().demotions_pressure.value(), 0u);
    EXPECT_GT(res().heat_entries(), 0u);
  } else {
    EXPECT_EQ(res().heat_entries(), 0u);
  }

  // Releasing every file leaves no slot behind.
  if (mapped) {
    ASSERT_TRUE(space_->Unmap(kVmBase).ok());
  }
  for (uint64_t f = 0; f < kFiles; ++f) {
    if (exists[f]) {
      ASSERT_TRUE(fs_->Unlink(path_of(f)).ok());
    }
  }
  ASSERT_TRUE(res().CheckInvariants().ok());
  EXPECT_EQ(res().blocks().live_slots(), 0u);
  EXPECT_EQ(res().heat_entries(), 0u);
  EXPECT_EQ(fs_->write_buffer().dirty_pages(), 0u);
  EXPECT_EQ(res().clean_pages() + res().nvm_pages(), 0u);
}

std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
  std::string name = ResidencyPolicyName(std::get<0>(info.param));
  std::replace(name.begin(), name.end(), '-', '_');
  return name + (std::get<1>(info.param) ? "_nvm" : "_no_nvm");
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesByTier, BlockStatePropertyTest,
    ::testing::Combine(::testing::Values(ResidencyPolicy::kWriteBufferOnly,
                                         ResidencyPolicy::kReadPromote,
                                         ResidencyPolicy::kAggressive),
                       ::testing::Bool()),
    ParamName);

}  // namespace
}  // namespace ssmc
