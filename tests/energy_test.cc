#include "src/sim/energy.h"

#include <gtest/gtest.h>

namespace ssmc {
namespace {

TEST(EnergyMeterTest, StartsAtZero) {
  EnergyMeter m;
  EXPECT_EQ(m.total_nanojoules(), 0.0);
}

TEST(EnergyMeterTest, ActiveEnergyIntegral) {
  EnergyMeter m;
  // 1000 mW for 1 second = 1 J = 1e9 nJ.
  m.AddActive(1000.0, kSecond);
  EXPECT_NEAR(m.total_nanojoules(), 1e9, 1);
  EXPECT_NEAR(m.active_nanojoules(), 1e9, 1);
  EXPECT_EQ(m.idle_nanojoules(), 0.0);
}

TEST(EnergyMeterTest, IdleSeparatedFromActive) {
  EnergyMeter m;
  m.AddActive(100.0, kMillisecond);  // 0.1 mJ = 1e5 nJ.
  m.AddIdle(1.0, kSecond);           // 1 mJ = 1e6 nJ.
  EXPECT_NEAR(m.active_nanojoules(), 1e5, 1);
  EXPECT_NEAR(m.idle_nanojoules(), 1e6, 1);
  EXPECT_NEAR(m.total_nanojoules(), 1.1e6, 1);
}

TEST(EnergyMeterTest, SettleIdleSubtractsOnlyTheWindowsActiveTime) {
  EnergyMeter m;
  m.AddActive(100.0, 300);
  m.SettleIdle(1000, 1.0);  // Window [0, 1000): 700 ns idle.
  EXPECT_NEAR(m.idle_nanojoules(), 0.7, 1e-12);
  m.SettleIdle(1000, 1.0);  // Empty window: nothing.
  EXPECT_NEAR(m.idle_nanojoules(), 0.7, 1e-12);
  m.AddActive(100.0, 200);
  m.SettleIdle(2000, 1.0);  // Window [1000, 2000): 800 ns idle.
  EXPECT_NEAR(m.idle_nanojoules(), 1.5, 1e-12);
  m.AddActive(100.0, 5000);  // Background work reserved past the window.
  m.SettleIdle(3000, 1.0);   // Idle never goes negative.
  EXPECT_NEAR(m.idle_nanojoules(), 1.5, 1e-12);
  EXPECT_EQ(m.active_ns(), 5500);
}

TEST(EnergyMeterTest, ResetClears) {
  EnergyMeter m;
  m.AddActive(5, 100);
  m.Reset();
  EXPECT_EQ(m.total_nanojoules(), 0.0);
}

TEST(EnergyMeterTest, SummaryIsHumanReadable) {
  EnergyMeter m;
  m.AddActive(1000.0, kSecond);
  EXPECT_NE(m.Summary().find("J"), std::string::npos);
}

}  // namespace
}  // namespace ssmc
