#include "src/device/flash_device.h"

#include <gtest/gtest.h>

#include <algorithm>
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

}  // namespace
}  // namespace ssmc
