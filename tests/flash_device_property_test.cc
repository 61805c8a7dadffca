// Model-based property test for the flash device's byte model. Random
// extent programs (two extent sizes, aligned and unaligned offsets, fresh
// and shared payloads), torn programs with random surviving prefixes,
// erases, interrupted erases and reads of random ranges run against a
// per-sector byte model that starts erased (0xFF). The model decides which
// programs the device must accept (every target byte still erased) and what
// every read, ReadExtent and IsSectorErased must return — whatever the
// extents' overlap and order.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "src/device/flash_device.h"
#include "src/support/rng.h"

namespace ssmc {
namespace {

constexpr uint64_t kSectorBytes = 1024;
constexpr uint64_t kSectors = 16;
constexpr int kBanks = 2;
constexpr uint64_t kSectorsPerBank = kSectors / kBanks;
constexpr uint64_t kExtentSizes[] = {64, 160};

FlashSpec PropertySpec() {
  FlashSpec spec;
  spec.name = "property flash";
  spec.read = {100, 10};
  spec.program = {1000, 100};
  spec.erase_sector_bytes = kSectorBytes;
  spec.erase_ns = kMillisecond;
  spec.endurance_cycles = 0;  // No wear-out: erases only fail when injected.
  return spec;
}

class FlashDevicePropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  FlashDevicePropertyTest()
      : flash_(PropertySpec(), kSectors * kSectorBytes, kBanks, clock_),
        model_(kSectors, std::vector<uint8_t>(kSectorBytes, 0xFF)),
        rng_(GetParam()) {}

  ExtentPool& PoolFor(uint64_t bytes) {
    return bytes == kExtentSizes[0] ? small_pool_ : large_pool_;
  }

  // Random payload bytes: all erased, half erased (so later programs can
  // land on them), or fully random.
  PayloadRef NewPayload(uint64_t bytes) {
    PayloadRef ref = PoolFor(bytes).Allocate();
    uint8_t* p = ref.MutableData();
    const uint64_t kind = rng_.NextBelow(4);
    for (uint64_t i = 0; i < bytes; ++i) {
      const uint8_t random = static_cast<uint8_t>(rng_.NextBelow(256));
      p[i] = kind == 0 || (kind == 1 && rng_.NextBelow(2) == 0) ? 0xFF
                                                                 : random;
    }
    return ref;
  }

  bool ModelErased(uint64_t sector, uint64_t off, uint64_t n) const {
    const std::vector<uint8_t>& bytes = model_[sector];
    return std::all_of(bytes.begin() + static_cast<ptrdiff_t>(off),
                       bytes.begin() + static_cast<ptrdiff_t>(off + n),
                       [](uint8_t b) { return b == 0xFF; });
  }

  std::vector<uint8_t> ModelRange(uint64_t addr, uint64_t n) const {
    std::vector<uint8_t> out(n);
    for (uint64_t i = 0; i < n; ++i) {
      out[i] = model_[(addr + i) / kSectorBytes][(addr + i) % kSectorBytes];
    }
    return out;
  }

  // A random range inside one bank (reads may span sectors, not banks).
  void PickRange(uint64_t n, uint64_t* addr) {
    const uint64_t bank = rng_.NextBelow(kBanks);
    const uint64_t bank_bytes = kSectorsPerBank * kSectorBytes;
    *addr = bank * bank_bytes + rng_.NextBelow(bank_bytes - n + 1);
  }

  void DoProgram(int op);
  void DoRead(int op);
  void DoReadExtent(int op);
  void CheckErasedFlags(int op);

  SimClock clock_;
  ExtentPool small_pool_{kExtentSizes[0]};
  ExtentPool large_pool_{kExtentSizes[1]};
  FlashDevice flash_;
  std::vector<std::vector<uint8_t>> model_;
  Rng rng_;
  // Payloads the test still holds: reprogrammed elsewhere (shared with the
  // device) and sometimes rewritten, which must copy-on-write.
  std::vector<PayloadRef> held_;
  // Programmed (addr, size) pairs, for exact-extent reads.
  std::vector<std::pair<uint64_t, uint64_t>> programmed_;
  bool torn_armed_ = false;
  uint64_t torn_bytes_ = 0;
  uint64_t programs_ = 0;
  uint64_t programmed_bytes_ = 0;
  uint64_t torn_programs_ = 0;
};

void FlashDevicePropertyTest::DoProgram(int op) {
  const uint64_t size = kExtentSizes[rng_.NextBelow(2)];
  const uint64_t sector = rng_.NextBelow(kSectors);
  uint64_t off = 0;
  if (rng_.NextBelow(2) == 0) {
    off = rng_.NextBelow(kSectorBytes / size) * size;  // Aligned slot.
  } else {
    off = rng_.NextBelow(kSectorBytes - size + 1);  // Anywhere.
  }
  PayloadRef payload = !held_.empty() && rng_.NextBelow(4) == 0
                           ? held_[rng_.NextBelow(held_.size())]
                           : NewPayload(size);
  if (payload.size() != size) {
    payload = NewPayload(size);
  }
  const std::vector<uint8_t> bytes(payload.data(), payload.data() + size);
  if (rng_.NextBelow(8) == 0) {
    torn_armed_ = true;
    torn_bytes_ = rng_.NextBelow(size + 8);
    flash_.FailNextProgramAfterBytes(torn_bytes_);
  }
  const uint64_t addr = sector * kSectorBytes + off;
  Result<Duration> r = flash_.ProgramExtent(addr, payload);
  if (!ModelErased(sector, off, size)) {
    ASSERT_EQ(r.status().code(), ErrorCode::kFailedPrecondition)
        << "op " << op << " addr " << addr;
    return;  // A rejected program leaves a torn hook armed.
  }
  uint64_t applied = size;
  if (torn_armed_) {
    torn_armed_ = false;
    ++torn_programs_;
    applied = std::min(torn_bytes_, size);
    ASSERT_EQ(r.status().code(), ErrorCode::kInternal) << "op " << op;
  } else {
    ASSERT_TRUE(r.ok()) << "op " << op << " addr " << addr << ": "
                        << r.status().ToString();
    ++programs_;
    programmed_bytes_ += size;
  }
  std::copy(bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(applied),
            model_[sector].begin() + static_cast<ptrdiff_t>(off));
  programmed_.emplace_back(addr, size);
  // The device's copy is immutable: rewriting our ref clones it first.
  if (rng_.NextBelow(4) == 0) {
    std::fill_n(payload.MutableData(), size, uint8_t{0x3C});
  }
  if (held_.size() < 32) {
    held_.push_back(std::move(payload));
  } else {
    held_[rng_.NextBelow(held_.size())] = std::move(payload);
  }
}

void FlashDevicePropertyTest::DoRead(int op) {
  const uint64_t n = 1 + rng_.NextBelow(3 * kSectorBytes / 2);
  uint64_t addr = 0;
  PickRange(n, &addr);
  std::vector<uint8_t> out(n);
  ASSERT_TRUE(flash_.Read(addr, out).ok()) << "op " << op;
  ASSERT_EQ(out, ModelRange(addr, n)) << "op " << op << " read " << addr
                                      << "+" << n;
}

void FlashDevicePropertyTest::DoReadExtent(int op) {
  uint64_t addr = 0;
  uint64_t n = 0;
  if (!programmed_.empty() && rng_.NextBelow(2) == 0) {
    std::tie(addr, n) = programmed_[rng_.NextBelow(programmed_.size())];
  } else {
    n = kExtentSizes[rng_.NextBelow(2)];
    PickRange(n, &addr);
  }
  Result<PayloadRef> r = flash_.ReadExtent(addr, n, PoolFor(n));
  ASSERT_TRUE(r.ok()) << "op " << op;
  const PayloadRef& ref = r.value();
  ASSERT_EQ(ref.size(), n);
  ASSERT_EQ(std::vector<uint8_t>(ref.data(), ref.data() + n),
            ModelRange(addr, n))
      << "op " << op << " extent " << addr << "+" << n;
}

void FlashDevicePropertyTest::CheckErasedFlags(int op) {
  for (uint64_t s = 0; s < kSectors; ++s) {
    ASSERT_EQ(flash_.IsSectorErased(s), ModelErased(s, 0, kSectorBytes))
        << "op " << op << " sector " << s;
  }
}

TEST_P(FlashDevicePropertyTest, MatchesByteModel) {
  std::vector<uint64_t> erases(kSectors, 0);
  uint64_t interrupted = 0;
  for (int op = 0; op < 20000; ++op) {
    const uint64_t u = rng_.NextBelow(100);
    if (u < 50) {
      ASSERT_NO_FATAL_FAILURE(DoProgram(op));
    } else if (u < 70) {
      ASSERT_NO_FATAL_FAILURE(DoRead(op));
    } else if (u < 85) {
      ASSERT_NO_FATAL_FAILURE(DoReadExtent(op));
    } else {
      const uint64_t s = rng_.NextBelow(kSectors);
      const bool interrupt = rng_.NextBelow(4) == 0;
      if (interrupt) {
        flash_.InterruptNextErase();
      }
      Result<Duration> r = flash_.EraseSector(s);
      ++erases[s];
      if (interrupt) {
        ++interrupted;
        ASSERT_EQ(r.status().code(), ErrorCode::kInternal) << "op " << op;
      } else {
        ASSERT_TRUE(r.ok()) << "op " << op;
        std::fill(model_[s].begin(), model_[s].end(), uint8_t{0xFF});
        std::erase_if(programmed_, [s](const auto& p) {
          return p.first / kSectorBytes == s;
        });
      }
      ASSERT_EQ(flash_.EraseCount(s), erases[s]);
    }
    if (op % 16 == 0) {
      ASSERT_NO_FATAL_FAILURE(CheckErasedFlags(op));
    }
  }
  ASSERT_NO_FATAL_FAILURE(CheckErasedFlags(-1));
  EXPECT_EQ(flash_.stats().programs.value(), programs_);
  EXPECT_EQ(flash_.stats().programmed_bytes.value(), programmed_bytes_);
  EXPECT_EQ(flash_.stats().torn_programs.value(), torn_programs_);
  EXPECT_EQ(flash_.stats().interrupted_erases.value(), interrupted);
  EXPECT_GT(programs_, 0u);
  EXPECT_GT(torn_programs_, 0u);

  // Erasing drops the device's refs: once the test lets go of its own, no
  // extent stays live.
  for (uint64_t s = 0; s < kSectors; ++s) {
    ASSERT_TRUE(flash_.EraseSector(s).ok());
  }
  held_.clear();
  EXPECT_EQ(small_pool_.live(), 0u);
  EXPECT_EQ(large_pool_.live(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlashDevicePropertyTest,
                         ::testing::Values(1, 7, 42, 1993));

}  // namespace
}  // namespace ssmc
