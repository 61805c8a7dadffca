// Differential tests for the FTL index structures: every index must agree
// with a brute-force scan over randomly generated sector states, including
// tie-breaking. See victim_index.h for the bit-identical contract.

#include "src/ftl/victim_index.h"

#include <algorithm>
#include "src/ftl/flash_store.h"  // ScanPickFreeSector oracle.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/support/rng.h"
#include "src/support/units.h"

namespace ssmc {
namespace {

// Mirror of the sector fields the indexes care about.
struct ShadowSector {
  uint32_t valid = 0;
  uint32_t dead = 0;
  SimTime last_write = 0;
  uint64_t erase_count = 0;
  bool candidate = false;  // Cleanable (usable && dead > 0).
  bool cold = false;       // Cold-evictable (usable && dead == 0 && valid > 0).
  bool occupied = false;   // usable.
  bool bad = false;
};

// The retired linear scan, reproduced verbatim for the cleaner.
int64_t ScanVictim(const std::vector<ShadowSector>& sectors,
                   uint32_t pages_per_sector, CleanerPolicy policy,
                   SimTime now) {
  int64_t best = -1;
  double best_score = -1;
  for (size_t s = 0; s < sectors.size(); ++s) {
    const ShadowSector& m = sectors[s];
    if (!m.candidate) {
      continue;
    }
    double score = 0;
    if (policy == CleanerPolicy::kGreedy) {
      score = static_cast<double>(m.dead);
    } else {
      const double u = static_cast<double>(m.valid) /
                       static_cast<double>(pages_per_sector);
      const double age =
          static_cast<double>(std::max<SimTime>(1, now - m.last_write));
      score = age * (1.0 - u) / (1.0 + u);
    }
    if (score > best_score) {
      best_score = score;
      best = static_cast<int64_t>(s);
    }
  }
  return best;
}

int64_t ScanCold(const std::vector<ShadowSector>& sectors, SimTime now,
                 Duration min_age) {
  int64_t victim = -1;
  for (size_t s = 0; s < sectors.size(); ++s) {
    const ShadowSector& m = sectors[s];
    if (!m.cold || now - m.last_write < min_age) {
      continue;
    }
    if (victim < 0 ||
        m.last_write < sectors[static_cast<size_t>(victim)].last_write) {
      victim = static_cast<int64_t>(s);
    }
  }
  return victim;
}

class VictimIndexDifferentialTest
    : public ::testing::TestWithParam<CleanerPolicy> {};

// Random churn of sector states; after every mutation the indexed pick must
// equal the scan's pick at several probe times.
TEST_P(VictimIndexDifferentialTest, MatchesScanUnderRandomChurn) {
  constexpr uint64_t kSectors = 64;
  constexpr uint32_t kPages = 8;
  const CleanerPolicy policy = GetParam();

  Rng rng(42);
  std::vector<ShadowSector> sectors(kSectors);
  VictimIndex index(policy, kPages, kSectors);
  SimTime now = 0;

  for (int step = 0; step < 5000; ++step) {
    // Time advances erratically, sometimes not at all (matching the frozen
    // clock of background-write mode, which stresses the age-clamp ties).
    if (rng.NextBool(0.7)) {
      now += static_cast<SimTime>(rng.NextInRange(0, 1000));
    }
    const uint64_t s = rng.NextBelow(kSectors);
    ShadowSector& m = sectors[s];
    if (rng.NextBool(0.5)) {
      // Become / re-key a candidate.
      m.dead = static_cast<uint32_t>(rng.NextInRange(1, kPages));
      m.valid = static_cast<uint32_t>(rng.NextInRange(0, kPages - m.dead));
      // Duplicate timestamps are common in real runs; force collisions.
      m.last_write = rng.NextBool(0.3)
                         ? now
                         : static_cast<SimTime>(rng.NextInRange(0, 50));
      m.candidate = true;
    } else {
      m.candidate = false;  // Activated, freed, or retired.
    }
    index.Open(s);  // Idempotent; the store opens a sector at every take.
    index.Sync(s, m.valid, m.dead, m.last_write, m.candidate);

    for (const SimTime probe : {now, now + 1, now + 2, now + 100000}) {
      ASSERT_EQ(index.Pick(probe), ScanVictim(sectors, kPages, policy, probe))
          << "step " << step << " probe " << probe;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, VictimIndexDifferentialTest,
                         ::testing::Values(CleanerPolicy::kGreedy,
                                           CleanerPolicy::kCostBenefit));

TEST(FreeSectorPoolTest, LifoMatchesScan) {
  FreeSectorPool pool(/*wear_ordered=*/false);
  Rng rng(7);
  uint64_t next_sector = 0;
  for (int step = 0; step < 2000; ++step) {
    if (pool.empty() || rng.NextBool(0.6)) {
      pool.Add(next_sector++, static_cast<uint64_t>(rng.NextInRange(0, 5)));
    }
    ASSERT_EQ(pool.Peek(),
              ScanPickFreeSector(pool.SnapshotInsertionOrder(), false));
    if (!pool.empty() && rng.NextBool(0.4)) {
      const int64_t expect = pool.Peek();
      ASSERT_EQ(pool.Take(), expect);
    }
  }
}

TEST(FreeSectorPoolTest, WearOrderedMatchesScanWithTies) {
  FreeSectorPool pool(/*wear_ordered=*/true);
  Rng rng(8);
  uint64_t next_sector = 0;
  for (int step = 0; step < 2000; ++step) {
    if (pool.empty() || rng.NextBool(0.6)) {
      // Erase counts from a tiny range so ties are the common case: the pick
      // must then be the *earliest added* minimum, not the lowest sector.
      pool.Add(next_sector++, static_cast<uint64_t>(rng.NextInRange(0, 3)));
    }
    ASSERT_EQ(pool.Peek(),
              ScanPickFreeSector(pool.SnapshotInsertionOrder(), true));
    if (!pool.empty() && rng.NextBool(0.4)) {
      const int64_t expect = pool.Peek();
      ASSERT_EQ(pool.Take(), expect);
    }
  }
}

TEST(FreeSectorPoolTest, RunsBehaveLikeTheirIndividualAdds) {
  // A pool seeded with runs must be indistinguishable from one fed the same
  // sectors one Add at a time, through any mix of takes and later adds.
  for (const bool wear : {false, true}) {
    FreeSectorPool runs(wear);
    FreeSectorPool singles(wear);
    Rng rng(wear ? 11 : 12);
    uint64_t next_sector = 0;
    for (int step = 0; step < 2000; ++step) {
      if (runs.empty() || rng.NextBool(0.3)) {
        const uint64_t n = rng.NextBelow(6);
        const uint64_t count = rng.NextBelow(3);
        runs.AddRun(next_sector, n, count);
        for (uint64_t i = 0; i < n; ++i) {
          singles.Add(next_sector + i, count);
        }
        next_sector += n;
      }
      ASSERT_EQ(runs.size(), singles.size());
      ASSERT_EQ(runs.SnapshotInsertionOrder(),
                singles.SnapshotInsertionOrder());
      ASSERT_EQ(runs.Peek(), ScanPickFreeSector(runs.SnapshotInsertionOrder(),
                                                wear));
      if (rng.NextBool(0.6)) {
        ASSERT_EQ(runs.Take(), singles.Take());
      }
    }
  }
}

TEST(FreeSectorPoolTest, EmptyPoolReturnsMinusOne) {
  for (const bool wear : {false, true}) {
    FreeSectorPool pool(wear);
    EXPECT_EQ(pool.Peek(), -1);
    EXPECT_EQ(pool.Take(), -1);
    EXPECT_TRUE(pool.empty());
  }
}

TEST(ColdSectorIndexTest, MatchesScanUnderRandomChurn) {
  constexpr uint64_t kSectors = 48;
  constexpr Duration kMinAge = 500;
  Rng rng(9);
  std::vector<ShadowSector> sectors(kSectors);
  ColdSectorIndex index(kSectors);
  SimTime now = 0;

  for (int step = 0; step < 5000; ++step) {
    now += static_cast<SimTime>(rng.NextInRange(0, 300));
    const uint64_t s = rng.NextBelow(kSectors);
    ShadowSector& m = sectors[s];
    m.cold = rng.NextBool(0.5);
    if (m.cold) {
      m.last_write = static_cast<SimTime>(
          static_cast<uint64_t>(rng.NextInRange(0, now)));
    }
    index.Sync(s, m.last_write, m.cold);
    ASSERT_EQ(index.PickOlderThan(now, kMinAge), ScanCold(sectors, now, kMinAge))
        << "step " << step;
    ASSERT_EQ(index.PickOlderThan(now, 0), ScanCold(sectors, now, 0));
  }
}

TEST(WearIndexTest, TracksMinMaxAndColdestThroughChurn) {
  constexpr uint64_t kSectors = 40;
  Rng rng(11);
  std::vector<ShadowSector> sectors(kSectors);
  WearIndex index(kSectors);
  for (uint64_t s = 0; s < kSectors; ++s) {
    index.Seed(s, 0);
  }

  for (int step = 0; step < 5000; ++step) {
    const uint64_t s = rng.NextBelow(kSectors);
    ShadowSector& m = sectors[s];
    switch (rng.NextBelow(3)) {
      case 0: {  // Erase (count bump), occasionally a wear-out retirement.
        if (m.bad) {
          break;
        }
        m.erase_count += 1;
        if (rng.NextBool(0.01)) {
          m.bad = true;
          m.occupied = false;
        }
        index.OnEraseCountChanged(s, m.erase_count, m.bad);
        break;
      }
      case 1:  // Sector fills up (joins occupied set).
        if (!m.bad) {
          m.occupied = true;
          index.SyncOccupied(s, m.erase_count, true);
        }
        break;
      default:  // Sector activated or freed (leaves occupied set).
        m.occupied = false;
        index.SyncOccupied(s, m.erase_count, false);
        break;
    }

    // Brute-force reference.
    uint64_t min_e = ~uint64_t{0};
    uint64_t max_e = 0;
    int64_t coldest = -1;
    uint64_t non_bad = 0;
    for (uint64_t i = 0; i < kSectors; ++i) {
      if (sectors[i].bad) {
        continue;
      }
      non_bad += 1;
      min_e = std::min(min_e, sectors[i].erase_count);
      max_e = std::max(max_e, sectors[i].erase_count);
      if (sectors[i].occupied &&
          (coldest < 0 ||
           sectors[i].erase_count <
               sectors[static_cast<size_t>(coldest)].erase_count)) {
        coldest = static_cast<int64_t>(i);
      }
    }
    ASSERT_EQ(index.tracked_sectors(), non_bad);
    if (non_bad > 0) {
      ASSERT_TRUE(index.has_sectors());
      ASSERT_EQ(index.min_erases(), min_e);
      ASSERT_EQ(index.max_erases(), max_e);
    }
    ASSERT_EQ(index.ColdestOccupied(), coldest) << "step " << step;
  }
}

TEST(WearIndexTest, RetirementRemovesFromAllTrackers) {
  WearIndex index(4);
  for (uint64_t s = 0; s < 4; ++s) {
    index.Seed(s, 10);
    index.SyncOccupied(s, 10, true);
  }
  EXPECT_EQ(index.tracked_sectors(), 4u);
  EXPECT_EQ(index.occupied_size(), 4u);

  index.OnEraseCountChanged(1, 11, /*now_bad=*/true);
  EXPECT_EQ(index.tracked_sectors(), 3u);
  EXPECT_EQ(index.occupied_size(), 3u);
  EXPECT_FALSE(index.OccupiedContains(1));
  EXPECT_EQ(index.min_erases(), 10u);
  EXPECT_EQ(index.max_erases(), 10u);
  EXPECT_EQ(index.ColdestOccupied(), 0);
}

}  // namespace
}  // namespace ssmc
