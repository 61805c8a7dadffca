// Closed-form steady-state hit-rate model for the tiered clean cache
// (the E16 analytical oracle).
//
// Ju et al., "Performance Analysis of N-Tier Heterogeneous Memory Systems"
// (arXiv:1607.00714), analyze LRU tier hierarchies under independent-
// reference Zipf traffic using Che's characteristic-time approximation: an
// LRU cache of C slots behaves as if each object stays resident for a fixed
// time T(C) after its last reference, where T solves
//
//     C = sum_i (1 - exp(-p_i * T))
//
// and object i's hit probability is 1 - exp(-p_i * T). An exclusive
// two-level ladder (DRAM over NVM, demote-on-pressure, promote-on-hit —
// what ResidencyManager runs, admitting to NVM on first touch) holds the
// C1 + C2 most-recently-used blocks, so its combined hit rate is that of
// one LRU of C1 + C2 slots, and the DRAM share alone is Che(C1).
//
// The oracle is exact only in the fluid limit (large catalogs, stationary
// IRM traffic); bench_e16_nvm checks the simulator lands within 5%.

#ifndef SSMC_SRC_STORAGE_TIER_MODEL_H_
#define SSMC_SRC_STORAGE_TIER_MODEL_H_

#include <cstdint>
#include <vector>

namespace ssmc {

// Zipf(s) popularity over n objects: p_i proportional to 1 / (i+1)^s,
// normalized to sum to 1. s = 0 is uniform.
std::vector<double> ZipfPopularity(uint64_t n, double s);

// Solves Che's fixed point sum_i (1 - exp(-p_i * T)) = C for T by bisection.
// Requires 0 < C < popularity.size(); returns 0 when C == 0.
double CheCharacteristicTime(const std::vector<double>& popularity,
                             double cache_slots);

// Steady-state hit rate of one LRU cache of `cache_slots` slots under IRM
// traffic with the given popularity: sum_i p_i * (1 - exp(-p_i * T)).
// Clamped to 1.0 when the cache holds the whole catalog.
double LruHitRate(const std::vector<double>& popularity, double cache_slots);

struct TieredHitRates {
  double dram = 0;      // Served by the C1-slot DRAM tier.
  double nvm = 0;       // Served by the NVM tier: Che(C1+C2) - Che(C1).
  double combined = 0;  // Any cache tier (= 1 - flash fraction).
};

// Exclusive two-tier LRU ladder of C1 DRAM slots over C2 NVM slots.
TieredHitRates TieredLruHitRates(const std::vector<double>& popularity,
                                 double dram_slots, double nvm_slots);

}  // namespace ssmc

#endif  // SSMC_SRC_STORAGE_TIER_MODEL_H_
