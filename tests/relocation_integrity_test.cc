// Randomized relocation-integrity property test for the zero-copy data
// plane.
//
// The cleaner, cold-eviction, and static wear-leveling paths relocate live
// pages by re-filing the *same* refcounted extent under a new physical
// address — no payload bytes move. This test drives a small store through
// heavy overwrite churn (forcing thousands of relocations) while outside
// holders keep aliased PayloadRefs to live blocks, transient read faults hit
// random sectors, and blocks are trimmed and rewritten. Two models must
// agree with the store:
//
//  1. a model map of the logically-written bytes (what Read must return);
//  2. snapshots taken when each alias was acquired (relocation and
//     subsequent overwrites must never mutate a held ref — CoW).
//
// Both are checked in full every kAuditEvery iterations (and at the end), so
// a relocation that corrupts bytes is caught within the window where it
// happened rather than only after the whole run.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/device/flash_device.h"
#include "src/ftl/flash_store.h"
#include "src/support/extent.h"
#include "src/support/rng.h"

namespace ssmc {
namespace {

FlashSpec SmallFlashSpec() {
  FlashSpec spec;
  spec.name = "reloc test flash";
  spec.read = {100, 10};
  spec.program = {1000, 100};
  spec.erase_sector_bytes = 2048;  // 4 pages of 512 B.
  spec.erase_ns = 1 * kMillisecond;
  spec.endurance_cycles = 1000000;
  spec.active_mw_per_mib = 30;
  spec.standby_mw_per_mib = 0.05;
  return spec;
}

struct HeldAlias {
  uint64_t block;
  uint64_t version;  // Model version when the alias was taken.
  PayloadRef ref;
  std::vector<uint8_t> snapshot;
};

class RelocationIntegrityTest
    : public ::testing::TestWithParam<std::pair<CleanerPolicy, WearPolicy>> {};

TEST_P(RelocationIntegrityTest, AliasedPayloadsSurviveChurnAndFaults) {
  SimClock clock;
  FlashDevice flash(SmallFlashSpec(), /*capacity=*/64 * 1024, /*banks=*/2,
                    clock, /*seed=*/7);

  FlashStoreOptions opts;
  opts.cleaner = GetParam().first;
  opts.wear = GetParam().second;
  opts.hot_bank_count = 1;  // Exercise the cold-eviction relocation path too.
  opts.static_wear_check_interval = 16;
  opts.static_wear_delta = 8;
  FlashStore store(flash, opts);

  const uint64_t kBlockBytes = store.block_bytes();
  const uint64_t kBlocks = store.num_blocks();
  ASSERT_GT(kBlocks, 8u);

  Rng rng(0x5eed + static_cast<uint64_t>(opts.cleaner) * 131 +
          static_cast<uint64_t>(opts.wear));
  std::map<uint64_t, std::vector<uint8_t>> model;
  std::map<uint64_t, uint64_t> version;
  std::vector<HeldAlias> held;
  uint64_t next_version = 1;

  auto make_block = [&](uint64_t block, uint64_t ver) {
    std::vector<uint8_t> data(kBlockBytes);
    for (uint64_t i = 0; i < kBlockBytes; ++i) {
      data[i] = static_cast<uint8_t>(block * 7 + ver * 13 + i);
    }
    return data;
  };

  // Model 1: every mapped block reads back its model bytes. Model 2: held
  // aliases still show the bytes from acquisition time, no matter how many
  // times the cleaner relocated them or callers overwrote the same logical
  // block since.
  auto audit = [&](int iter) {
    flash.InjectReadFaults(0, 0);  // The audit reads must not eat a fault.
    std::vector<uint8_t> out(kBlockBytes);
    for (const auto& [block, data] : model) {
      ASSERT_TRUE(store.Read(block, out).ok())
          << "block " << block << " at iteration " << iter;
      ASSERT_EQ(std::memcmp(out.data(), data.data(), kBlockBytes), 0)
          << "block " << block << " at iteration " << iter;
    }
    for (const HeldAlias& h : held) {
      ASSERT_EQ(std::memcmp(h.ref.data(), h.snapshot.data(), kBlockBytes), 0)
          << "aliased ref of block " << h.block << " (version " << h.version
          << ") mutated by iteration " << iter;
    }
  };

  constexpr int kIterations = 6000;
  constexpr int kAuditEvery = 250;
  for (int iter = 0; iter < kIterations; ++iter) {
    if (iter > 0 && iter % kAuditEvery == 0) {
      audit(iter);
      if (HasFatalFailure()) return;
    }
    const uint64_t roll = rng.NextBelow(100);
    if (roll < 70) {
      // Overwrite-heavy traffic over a small hot set forces relocation.
      const uint64_t block =
          roll < 50 ? rng.NextBelow(kBlocks / 4) : rng.NextBelow(kBlocks);
      const uint64_t ver = next_version++;
      std::vector<uint8_t> data = make_block(block, ver);
      PayloadRef payload = store.extent_pool().AllocateCopy(data.data());
      Result<Duration> w = store.WriteRef(block, std::move(payload),
                                          WriteStream::kUser,
                                          IoPriority::kForeground);
      if (w.ok()) {
        model[block] = std::move(data);
        version[block] = ver;
      } else {
        // An armed fault can break the cleaning a write depends on. The
        // failure must be clean: the mapping still serves the old bytes.
        flash.InjectReadFaults(0, 0);
        auto old = model.find(block);
        if (old != model.end()) {
          std::vector<uint8_t> out(kBlockBytes);
          ASSERT_TRUE(store.Read(block, out).ok());
          ASSERT_EQ(std::memcmp(out.data(), old->second.data(), kBlockBytes),
                    0)
              << "failed write corrupted block " << block;
        }
      }
    } else if (roll < 80) {
      // Take (or refresh) an aliased ref to a live block and snapshot it.
      if (model.empty()) continue;
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.NextBelow(model.size())));
      Result<PayloadRef> ref = store.ReadRef(it->first);
      if (!ref.ok()) continue;  // An armed injected fault may eat this read.
      ASSERT_EQ(std::memcmp(ref.value().data(), it->second.data(),
                            kBlockBytes),
                0);
      held.push_back({it->first, version[it->first], std::move(ref.value()),
                      it->second});
      if (held.size() > 32) held.erase(held.begin());
    } else if (roll < 85) {
      // Transient read faults against a random sector: relocation reads may
      // fail mid-clean; the store must fail the move without corrupting
      // anything.
      flash.InjectReadFaults(rng.NextBelow(flash.num_sectors()),
                             static_cast<int>(rng.NextBelow(4)));
    } else if (roll < 92) {
      if (model.empty()) continue;
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.NextBelow(model.size())));
      ASSERT_TRUE(store.Trim(it->first).ok());
      version.erase(it->first);
      model.erase(it);
    } else {
      flash.InjectReadFaults(0, 0);  // Clear faults, then force a full clean.
      ASSERT_TRUE(store.Clean().ok());
    }
  }

  audit(kIterations);
  if (HasFatalFailure()) return;

  // Sanity: the churn actually exercised the relocation machinery.
  EXPECT_GT(store.stats().gc_relocations.value(), 100u);
  EXPECT_GT(store.stats().gc_runs.value(), 10u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, RelocationIntegrityTest,
    ::testing::Values(
        std::make_pair(CleanerPolicy::kGreedy, WearPolicy::kNone),
        std::make_pair(CleanerPolicy::kGreedy, WearPolicy::kDynamic),
        std::make_pair(CleanerPolicy::kCostBenefit, WearPolicy::kDynamic),
        std::make_pair(CleanerPolicy::kCostBenefit, WearPolicy::kStatic)));

}  // namespace
}  // namespace ssmc
