#include "src/device/flash_device.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace ssmc {
namespace {

FlashSpec TestSpec() {
  FlashSpec spec;
  spec.name = "test flash";
  spec.read = {100, 10};
  spec.program = {1000, 1000};
  spec.erase_sector_bytes = 1024;
  spec.erase_ns = 1 * kMillisecond;
  spec.endurance_cycles = 10;
  spec.active_mw_per_mib = 30;
  spec.standby_mw_per_mib = 0.05;
  return spec;
}

// Programs `data` as one extent from a pool sized to it. The extent may
// outlive the pool (the device keeps it).
Result<Duration> Program(FlashDevice& flash, uint64_t addr,
                         const std::vector<uint8_t>& data,
                         IoIssue issue = {}) {
  ExtentPool pool(data.size(), /*extents_per_slab=*/1);
  return flash.ProgramExtent(addr, pool.AllocateCopy(data.data()), issue);
}

class FlashDeviceTest : public ::testing::Test {
 protected:
  SimClock clock_;
  FlashSpec spec_ = TestSpec();
};

TEST_F(FlashDeviceTest, GeometryDerivedFromSpec) {
  FlashDevice flash(spec_, 64 * 1024, 4, clock_);
  EXPECT_EQ(flash.capacity_bytes(), 64u * 1024);
  EXPECT_EQ(flash.sector_bytes(), 1024u);
  EXPECT_EQ(flash.num_sectors(), 64u);
  EXPECT_EQ(flash.num_banks(), 4);
  EXPECT_EQ(flash.sectors_per_bank(), 16u);
  EXPECT_EQ(flash.BankOfSector(0), 0);
  EXPECT_EQ(flash.BankOfSector(15), 0);
  EXPECT_EQ(flash.BankOfSector(16), 1);
  EXPECT_EQ(flash.BankOfAddress(17 * 1024), 1);
}

TEST_F(FlashDeviceTest, FreshDeviceIsErased) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  for (uint64_t s = 0; s < flash.num_sectors(); ++s) {
    EXPECT_TRUE(flash.IsSectorErased(s));
    EXPECT_FALSE(flash.IsSectorBad(s));
    EXPECT_EQ(flash.EraseCount(s), 0u);
  }
}

TEST_F(FlashDeviceTest, ProgramThenReadRoundTrips) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> data(256);
  std::iota(data.begin(), data.end(), 0);
  ASSERT_TRUE(Program(flash, 512, data).ok());
  std::vector<uint8_t> out(256);
  ASSERT_TRUE(flash.Read(512, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(FlashDeviceTest, ReadAdvancesClockBySpecLatency) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> out(100);
  Result<Duration> r = flash.Read(0, out);
  ASSERT_TRUE(r.ok());
  // access 100 + 10/byte * 100 = 1100 ns.
  EXPECT_EQ(r.value(), 1100);
  EXPECT_EQ(clock_.now(), 1100);
}

TEST_F(FlashDeviceTest, ProgramIsSlowerThanRead) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> data(100, 0xAB);
  Result<Duration> w = Program(flash, 0, data);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.value(), 1000 + 1000 * 100);
}

TEST_F(FlashDeviceTest, ProgramToNonErasedFails) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> data(16, 0x00);
  ASSERT_TRUE(Program(flash, 0, data).ok());
  Result<Duration> again = Program(flash, 0, data);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(FlashDeviceTest, EraseRestoresProgrammability) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> data(16, 0x77);
  ASSERT_TRUE(Program(flash, 0, data).ok());
  EXPECT_FALSE(flash.IsSectorErased(0));
  ASSERT_TRUE(flash.EraseSector(0).ok());
  EXPECT_TRUE(flash.IsSectorErased(0));
  EXPECT_EQ(flash.EraseCount(0), 1u);
  EXPECT_TRUE(Program(flash, 0, data).ok());
}

TEST_F(FlashDeviceTest, ProgramAcrossSectorBoundaryRejected) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> data(64, 1);
  Result<Duration> r = Program(flash, 1024 - 32, data);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
}

TEST_F(FlashDeviceTest, ReadAcrossBankBoundaryRejected) {
  FlashDevice flash(spec_, 64 * 1024, 4, clock_);
  std::vector<uint8_t> out(64);
  // Bank 0 ends at 16 KiB.
  Result<Duration> r = flash.Read(16 * 1024 - 32, out);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
}

TEST_F(FlashDeviceTest, OutOfRangeOpsRejected) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> buf(32);
  EXPECT_EQ(flash.Read(16 * 1024, buf).status().code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(Program(flash, 16 * 1024 - 16, buf).status().code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(flash.EraseSector(99).status().code(), ErrorCode::kOutOfRange);
}

TEST_F(FlashDeviceTest, NonBlockingProgramDoesNotAdvanceClock) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> data(16, 1);
  const SimTime before = clock_.now();
  Result<Duration> r = Program(flash, 0, data, kFlushIo);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(clock_.now(), before);
  EXPECT_GT(flash.BankBusyUntil(0), before);
}

TEST_F(FlashDeviceTest, ReadStallsBehindEraseInSameBank) {
  FlashDevice flash(spec_, 64 * 1024, 4, clock_);
  ASSERT_TRUE(flash.EraseSector(0, kCleanerIo).ok());
  const SimTime busy_until = flash.BankBusyUntil(0);
  std::vector<uint8_t> out(16);
  Result<Duration> r = flash.Read(0, out);
  ASSERT_TRUE(r.ok());
  // The read had to wait the full erase (1 ms) plus its own time.
  EXPECT_GE(clock_.now(), busy_until);
  EXPECT_GE(r.value(), spec_.erase_ns);
  EXPECT_GT(flash.stats().read_stall_ns.value(), 0u);
}

TEST_F(FlashDeviceTest, ReadProceedsInOtherBankDuringErase) {
  FlashDevice flash(spec_, 64 * 1024, 4, clock_);
  ASSERT_TRUE(flash.EraseSector(0, kCleanerIo).ok());
  std::vector<uint8_t> out(16);
  // Bank 1 begins at sector 16 -> address 16 KiB.
  Result<Duration> r = flash.Read(16 * 1024, out);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r.value(), spec_.erase_ns);
  EXPECT_EQ(flash.stats().read_stall_ns.value(), 0u);
}

TEST_F(FlashDeviceTest, WearOutEventuallyFailsSector) {
  spec_.endurance_cycles = 5;
  FlashDevice flash(spec_, 16 * 1024, 1, clock_, /*seed=*/7);
  // Erase far past endurance; must fail by 2x endurance.
  bool failed = false;
  for (int i = 0; i < 20 && !failed; ++i) {
    failed = !flash.EraseSector(0).ok();
  }
  EXPECT_TRUE(failed);
  EXPECT_TRUE(flash.IsSectorBad(0));
  EXPECT_EQ(flash.stats().bad_sectors.value(), 1u);
  // Reads and further erases now fail with DATA_LOSS.
  std::vector<uint8_t> out(8);
  EXPECT_EQ(flash.Read(0, out).status().code(), ErrorCode::kDataLoss);
  EXPECT_EQ(flash.EraseSector(0).status().code(), ErrorCode::kDataLoss);
}

TEST_F(FlashDeviceTest, WearWithinEnduranceNeverFails) {
  spec_.endurance_cycles = 50;
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(flash.EraseSector(3).ok()) << "cycle " << i;
  }
  EXPECT_FALSE(flash.IsSectorBad(3));
}

TEST_F(FlashDeviceTest, WearSummaryTracksDistribution) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  ASSERT_TRUE(flash.EraseSector(0).ok());
  ASSERT_TRUE(flash.EraseSector(0).ok());
  ASSERT_TRUE(flash.EraseSector(1).ok());
  const FlashDevice::WearSummary w = flash.SummarizeWear();
  EXPECT_EQ(w.min_erases, 0u);
  EXPECT_EQ(w.max_erases, 2u);
  EXPECT_NEAR(w.mean_erases, 3.0 / 16.0, 1e-9);
  EXPECT_GT(w.stddev_erases, 0.0);
  EXPECT_EQ(w.bad_sectors, 0u);
}

TEST_F(FlashDeviceTest, StatsCountOperations) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> buf(64, 1);
  ASSERT_TRUE(Program(flash, 0, buf).ok());
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(flash.Read(0, out).ok());
  ASSERT_TRUE(flash.EraseSector(1).ok());
  EXPECT_EQ(flash.stats().programs.value(), 1u);
  EXPECT_EQ(flash.stats().programmed_bytes.value(), 64u);
  EXPECT_EQ(flash.stats().reads.value(), 1u);
  EXPECT_EQ(flash.stats().read_bytes.value(), 64u);
  EXPECT_EQ(flash.stats().erases.value(), 1u);
}

TEST_F(FlashDeviceTest, EnergyAccumulatesWithActivity) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> out(128);
  ASSERT_TRUE(flash.Read(0, out).ok());
  EXPECT_GT(flash.energy().active_nanojoules(), 0.0);
}

TEST_F(FlashDeviceTest, IdleEnergyAccountedOnDemand) {
  FlashDevice flash(spec_, 1024 * 1024, 1, clock_);
  clock_.Advance(kSecond);
  flash.AccountIdleEnergy();
  EXPECT_GT(flash.energy().idle_nanojoules(), 0.0);
}

// Each settle books standby power for the idle part of its own window only:
// active time already offset against an earlier window is not subtracted
// again.
TEST_F(FlashDeviceTest, IdleEnergySettlesEachWindowOnce) {
  spec_.erase_ns = 1600 * kMillisecond;
  FlashDevice flash(spec_, 1 * kMiB, 1, clock_);
  ASSERT_TRUE(flash.EraseSector(0).ok());  // Blocking: 1.6 s active.
  flash.AccountIdleEnergy();
  EXPECT_EQ(flash.energy().idle_nanojoules(), 0.0);
  clock_.Advance(kSecond);
  flash.AccountIdleEnergy();
  // 0.05 mW/MiB x 1 MiB for 1 s = 50 000 nJ.
  EXPECT_NEAR(flash.energy().idle_nanojoules(), 50000.0, 1e-6);
}

TEST_F(FlashDeviceTest, TornProgramSkipCountArmsLaterWrite) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> data(16, 0x5A);
  flash.FailNextProgramAfterBytes(0, /*after_programs=*/2);
  ASSERT_TRUE(Program(flash, 0, data).ok());
  ASSERT_TRUE(Program(flash, 64, data).ok());
  Result<Duration> r = Program(flash, 256, data);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInternal);
  EXPECT_EQ(flash.stats().torn_programs.value(), 1u);
  // bytes=0: the torn write left nothing behind and the hook disarmed, so
  // the retry succeeds and round-trips.
  ASSERT_TRUE(Program(flash, 256, data).ok());
  std::vector<uint8_t> out(16);
  ASSERT_TRUE(flash.Read(256, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(FlashDeviceTest, TornProgramExtentAppliesPrefix) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  ExtentPool pool(64);
  PayloadRef payload = pool.Allocate();
  for (size_t i = 0; i < 64; ++i) {
    payload.MutableData()[i] = static_cast<uint8_t>(i + 1);
  }
  flash.FailNextProgramAfterBytes(10);
  const SimTime before = clock_.now();
  Result<Duration> r = flash.ProgramExtent(512, payload, kForegroundIo);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInternal);
  // Injected before scheduling: no time passed, no program counted.
  EXPECT_EQ(clock_.now(), before);
  EXPECT_EQ(flash.stats().programs.value(), 0u);
  EXPECT_EQ(flash.stats().torn_programs.value(), 1u);
  // The first 10 bytes survived; the rest of the range is still erased.
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(flash.Read(512, out).ok());
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i], static_cast<uint8_t>(i + 1)) << "byte " << i;
  }
  for (size_t i = 10; i < 64; ++i) {
    EXPECT_EQ(out[i], 0xFF) << "byte " << i;
  }
  // The writer's extent is untouched (the torn copy is the device's own).
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(payload.data()[i], static_cast<uint8_t>(i + 1)) << "byte " << i;
  }
  // The erased tail is still programmable; the programmed prefix is not.
  const std::vector<uint8_t> tail(32, 0x42);
  EXPECT_TRUE(Program(flash, 512 + 32, tail).ok());
  EXPECT_EQ(Program(flash, 512, std::vector<uint8_t>(8, 0)).status().code(),
            ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(flash.Read(512, out).ok());
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i], static_cast<uint8_t>(i + 1)) << "byte " << i;
  }
  for (size_t i = 10; i < 32; ++i) {
    EXPECT_EQ(out[i], 0xFF) << "byte " << i;
  }
  for (size_t i = 32; i < 64; ++i) {
    EXPECT_EQ(out[i], 0x42) << "byte " << i;
  }
}

// A program may land on erased bytes of an earlier extent. The medium is
// then the AND of both (NOR programs only clear bits), whatever the extents'
// order by offset and however the read range lines up with them.
TEST_F(FlashDeviceTest, OverlappingProgramsReadBack) {
  for (const uint64_t erased_at : {uint64_t{0}, uint64_t{32}}) {
    SCOPED_TRACE(erased_at);
    FlashDevice flash(spec_, 16 * 1024, 1, clock_);
    std::vector<uint8_t> data(64);
    std::iota(data.begin(), data.end(), 1);
    // An all-0xFF 64 B extent, then a data extent over its second or first
    // half: [0, 64) then [32, 96), or [32, 96) then [0, 64).
    const uint64_t data_at = 32 - erased_at;
    ASSERT_TRUE(Program(flash, erased_at, std::vector<uint8_t>(64, 0xFF)).ok());
    ASSERT_TRUE(Program(flash, data_at, data).ok());
    std::vector<uint8_t> expect(96, 0xFF);
    std::copy(data.begin(), data.end(), expect.begin() + data_at);

    std::vector<uint8_t> out(96);
    ASSERT_TRUE(flash.Read(0, out).ok());
    EXPECT_EQ(out, expect);
    // Ranges that are exactly one of the two extents.
    for (const uint64_t at : {uint64_t{0}, uint64_t{32}}) {
      std::vector<uint8_t> one(64);
      ASSERT_TRUE(flash.Read(at, one).ok());
      EXPECT_TRUE(std::equal(one.begin(), one.end(), expect.begin() + at))
          << "Read at " << at;
      ExtentPool pool(64);
      Result<PayloadRef> ref = flash.ReadExtent(at, 64, pool);
      ASSERT_TRUE(ref.ok());
      EXPECT_TRUE(std::equal(ref.value().data(), ref.value().data() + 64,
                             expect.begin() + at))
          << "ReadExtent at " << at;
    }
    EXPECT_FALSE(flash.IsSectorErased(0));
    ASSERT_TRUE(flash.EraseSector(0).ok());
    ASSERT_TRUE(flash.Read(0, out).ok());
    EXPECT_EQ(out, std::vector<uint8_t>(96, 0xFF));
  }
}

TEST_F(FlashDeviceTest, InterruptedEraseConsumesWearKeepsContents) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> data(16, 0x77);
  ASSERT_TRUE(Program(flash, 0, data).ok());
  flash.InterruptNextErase();
  Result<Duration> r = flash.EraseSector(0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInternal);
  // Wear cycle consumed, contents untouched, hook disarmed.
  EXPECT_EQ(flash.EraseCount(0), 1u);
  EXPECT_EQ(flash.stats().interrupted_erases.value(), 1u);
  EXPECT_FALSE(flash.IsSectorErased(0));
  std::vector<uint8_t> out(16);
  ASSERT_TRUE(flash.Read(0, out).ok());
  EXPECT_EQ(out, data);
  ASSERT_TRUE(flash.EraseSector(0).ok());
  EXPECT_TRUE(flash.IsSectorErased(0));
  EXPECT_EQ(flash.EraseCount(0), 2u);
}

TEST_F(FlashDeviceTest, EmptyReadAndProgramAreFree) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> empty;
  Result<Duration> r = flash.Read(0, std::span<uint8_t>(empty));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 0);
  EXPECT_EQ(clock_.now(), 0);
}

// Sector state is built the first time a sector is programmed or erased; a
// sector never touched must answer every query exactly as a fresh one does.
void ExpectFreshSector(FlashDevice& flash, uint64_t s) {
  EXPECT_EQ(flash.EraseCount(s), 0u) << s;
  EXPECT_FALSE(flash.IsSectorBad(s)) << s;
  EXPECT_TRUE(flash.IsSectorErased(s)) << s;
}

// The wear summary over every sector, computed from the per-sector queries
// with the device's own arithmetic (index order).
FlashDevice::WearSummary ReferenceWear(const FlashDevice& flash) {
  FlashDevice::WearSummary w;
  const uint64_t n = flash.num_sectors();
  w.min_erases = flash.EraseCount(0);
  double sum = 0;
  for (uint64_t s = 0; s < n; ++s) {
    w.min_erases = std::min(w.min_erases, flash.EraseCount(s));
    w.max_erases = std::max(w.max_erases, flash.EraseCount(s));
    sum += static_cast<double>(flash.EraseCount(s));
    w.bad_sectors += flash.IsSectorBad(s) ? 1 : 0;
  }
  w.mean_erases = sum / static_cast<double>(n);
  double var = 0;
  for (uint64_t s = 0; s < n; ++s) {
    const double d = static_cast<double>(flash.EraseCount(s)) - w.mean_erases;
    var += d * d;
  }
  w.stddev_erases = std::sqrt(var / static_cast<double>(n));
  return w;
}

void ExpectWear(const FlashDevice::WearSummary& got,
                const FlashDevice::WearSummary& want) {
  EXPECT_EQ(got.min_erases, want.min_erases);
  EXPECT_EQ(got.max_erases, want.max_erases);
  EXPECT_EQ(got.mean_erases, want.mean_erases);  // Bit-identical.
  EXPECT_EQ(got.stddev_erases, want.stddev_erases);
  EXPECT_EQ(got.bad_sectors, want.bad_sectors);
}

TEST_F(FlashDeviceTest, UntouchedSectorsAnswerAsFresh) {
  // 64 sectors of 1 KiB in 4 banks.
  FlashDevice flash(spec_, 64 * 1024, 4, clock_);
  for (uint64_t s = 0; s < flash.num_sectors(); ++s) {
    ExpectFreshSector(flash, s);
  }
  EXPECT_EQ(flash.NextTouchedSector(0), flash.num_sectors());
  const FlashDevice::WearSummary fresh = flash.SummarizeWear();
  EXPECT_EQ(fresh.min_erases, 0u);
  EXPECT_EQ(fresh.max_erases, 0u);
  EXPECT_EQ(fresh.mean_erases, 0.0);
  EXPECT_EQ(fresh.stddev_erases, 0.0);
  EXPECT_EQ(fresh.bad_sectors, 0u);

  // A read spanning four untouched sectors: all erased, timed and counted
  // like any read.
  std::vector<uint8_t> out(3000, 0);
  Result<Duration> r = flash.Read(1000, out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), spec_.read.LatencyFor(3000));
  EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                          [](uint8_t b) { return b == 0xFF; }));
  ExtentPool pool(512);
  Result<PayloadRef> ref = flash.ReadExtent(20 * 1024 + 256, 512, pool);
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(std::all_of(ref.value().data(), ref.value().data() + 512,
                          [](uint8_t b) { return b == 0xFF; }));
  EXPECT_EQ(flash.stats().reads.value(), 2u);
  // Reads touch no sector state.
  EXPECT_EQ(flash.NextTouchedSector(0), flash.num_sectors());
}

TEST_F(FlashDeviceTest, PartlyUsedDeviceAnswersAsFreshOutsideTouchedSectors) {
  spec_.endurance_cycles = 3;
  FlashDevice flash(spec_, 64 * 1024, 4, clock_, /*seed=*/9);
  const std::vector<uint8_t> data(100, 0x3C);
  ASSERT_TRUE(Program(flash, 5 * 1024 + 900, data).ok());  // Sector 5.
  ASSERT_TRUE(flash.EraseSector(9).ok());
  ASSERT_TRUE(flash.EraseSector(9).ok());
  while (!flash.IsSectorBad(20)) {
    (void)flash.EraseSector(20);  // Wears out within 2x endurance.
  }
  ASSERT_TRUE(flash.EraseSector(63).ok());

  const std::vector<uint64_t> touched = {5, 9, 20, 63};
  for (uint64_t s = 0; s < flash.num_sectors(); ++s) {
    if (std::find(touched.begin(), touched.end(), s) == touched.end()) {
      ExpectFreshSector(flash, s);
    }
  }
  EXPECT_EQ(flash.EraseCount(5), 0u);
  EXPECT_FALSE(flash.IsSectorErased(5));
  EXPECT_EQ(flash.EraseCount(9), 2u);
  EXPECT_TRUE(flash.IsSectorErased(9));
  EXPECT_TRUE(flash.IsSectorBad(20));
  EXPECT_EQ(flash.EraseCount(63), 1u);
  // NextTouchedSector visits exactly the touched sectors, in order.
  std::vector<uint64_t> walked;
  for (uint64_t s = flash.NextTouchedSector(0); s < flash.num_sectors();
       s = flash.NextTouchedSector(s + 1)) {
    walked.push_back(s);
  }
  EXPECT_EQ(walked, touched);
  ExpectWear(flash.SummarizeWear(), ReferenceWear(flash));
  EXPECT_EQ(flash.SummarizeWear().bad_sectors, 1u);
  EXPECT_EQ(flash.SummarizeWear().min_erases, 0u);

  // A read from the programmed tail of sector 5 into untouched sector 6
  // (same bank): the programmed bytes, then erased ones.
  std::vector<uint8_t> out(300, 0);
  ASSERT_TRUE(flash.Read(5 * 1024 + 900, out).ok());
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i < data.size() ? 0x3C : 0xFF) << i;
  }
  ExtentPool pool(256);
  Result<PayloadRef> ref = flash.ReadExtent(6 * 1024, 256, pool);
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(std::all_of(ref.value().data(), ref.value().data() + 256,
                          [](uint8_t b) { return b == 0xFF; }));
  // Untouched sectors program, erase and fail like fresh ones.
  ASSERT_TRUE(Program(flash, 7 * 1024, data).ok());
  EXPECT_EQ(Program(flash, 7 * 1024, data).status().code(),
            ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(flash.EraseSector(8).ok());
  EXPECT_EQ(flash.EraseCount(8), 1u);
  std::vector<uint8_t> bad(8);
  EXPECT_EQ(flash.Read(20 * 1024, bad).status().code(), ErrorCode::kDataLoss);
  ExpectWear(flash.SummarizeWear(), ReferenceWear(flash));
}

}  // namespace
}  // namespace ssmc
