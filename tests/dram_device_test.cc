#include "src/device/dram_device.h"

#include <gtest/gtest.h>

namespace ssmc {
namespace {

DramSpec TestSpec() {
  DramSpec spec;
  spec.name = "test dram";
  spec.read = {50, 10};
  spec.write = {60, 12};
  spec.active_mw_per_mib = 150;
  spec.standby_mw_per_mib = 1.5;
  return spec;
}

TEST(DramDeviceTest, LatencyFollowsSpec) {
  SimClock clock;
  DramDevice dram(TestSpec(), 64 * 1024, clock);
  const Duration r = dram.ChargeAccess(100, /*is_write=*/false);
  EXPECT_EQ(r, 50 + 10 * 100);
  const Duration w = dram.ChargeAccess(100, /*is_write=*/true);
  EXPECT_EQ(w, 60 + 12 * 100);
  EXPECT_EQ(clock.now(), r + w);
  EXPECT_EQ(dram.energy().active_ns(), r + w);
}

TEST(DramDeviceTest, ForceContentLossRecordsLoss) {
  SimClock clock;
  DramDevice dram(TestSpec(), 1024, clock);
  EXPECT_FALSE(dram.contents_lost());
  dram.ForceContentLoss();
  EXPECT_TRUE(dram.contents_lost());
  EXPECT_EQ(dram.stats().content_losses.value(), 1u);
}

TEST(DramDeviceTest, StatsTrackBytes) {
  SimClock clock;
  DramDevice dram(TestSpec(), 1024, clock);
  dram.ChargeAccess(100, /*is_write=*/true);
  dram.ChargeAccess(100, /*is_write=*/false);
  EXPECT_EQ(dram.stats().writes.value(), 1u);
  EXPECT_EQ(dram.stats().written_bytes.value(), 100u);
  EXPECT_EQ(dram.stats().reads.value(), 1u);
  EXPECT_EQ(dram.stats().read_bytes.value(), 100u);
}

TEST(DramDeviceTest, StandbyPowerScalesWithCapacity) {
  SimClock clock;
  DramDevice small(TestSpec(), 1 * kMiB, clock);
  DramDevice big(TestSpec(), 4 * kMiB, clock);
  EXPECT_DOUBLE_EQ(big.standby_mw(), 4 * small.standby_mw());
}

TEST(DramDeviceTest, IdleEnergyAccrues) {
  SimClock clock;
  DramDevice dram(TestSpec(), 1 * kMiB, clock);
  clock.Advance(kSecond);
  dram.AccountIdleEnergy();
  // 1.5 mW for 1 s = 1.5 mJ = 1.5e6 nJ.
  EXPECT_NEAR(dram.energy().idle_nanojoules(), 1.5e6, 1e4);
}

// A second settle books retention power for its whole idle window; the
// first window's access time is not subtracted again.
TEST(DramDeviceTest, IdleEnergySettlesEachWindowOnce) {
  SimClock clock;
  DramDevice dram(TestSpec(), 1 * kMiB, clock);
  const Duration busy = dram.ChargeAccess(1000000, /*is_write=*/true);
  ASSERT_EQ(busy, 60 + 12 * 1000000);
  dram.AccountIdleEnergy();
  EXPECT_EQ(dram.energy().idle_nanojoules(), 0.0);
  clock.Advance(kSecond);
  dram.AccountIdleEnergy();
  // 1.5 mW for 1 s = 1.5e6 nJ.
  EXPECT_NEAR(dram.energy().idle_nanojoules(), 1.5e6, 1e-3);
}

}  // namespace
}  // namespace ssmc
