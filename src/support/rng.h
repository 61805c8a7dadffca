// Deterministic pseudo-random number generation for the simulator.
//
// Every stochastic component in ssmc (workload generators, failure injectors,
// placement randomization) takes an explicit Rng so that simulations are
// reproducible from a single seed. The generator is xoshiro256**, seeded via
// splitmix64, which is both fast and high quality; we deliberately avoid
// std::mt19937 so that results are identical across standard libraries.

#ifndef SSMC_SRC_SUPPORT_RNG_H_
#define SSMC_SRC_SUPPORT_RNG_H_

#include <cassert>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace ssmc {

class Rng {
 public:
  explicit Rng(uint64_t seed) { Seed(seed); }

  // Re-seeds the generator; identical seeds yield identical streams.
  void Seed(uint64_t seed) {
    // splitmix64 expansion of the seed into the xoshiro state.
    uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      word = z ^ (z >> 31);
    }
  }

  // Uniform 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be > 0.
  uint64_t NextBelow(uint64_t bound) {
    assert(bound > 0);
    // Multiply-shift rejection-free mapping (Lemire); bias is negligible for
    // simulation purposes and the mapping is deterministic.
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

  // Uniform integer in [lo, hi] inclusive.
  int64_t NextInRange(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    return lo + static_cast<int64_t>(
                    NextBelow(static_cast<uint64_t>(hi - lo) + 1));
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // Bernoulli trial with success probability p.
  bool NextBool(double p) { return NextDouble() < p; }

  // Exponential with given mean (> 0).
  double NextExponential(double mean) {
    assert(mean > 0);
    double u = NextDouble();
    // Guard against log(0).
    if (u <= 0.0) {
      u = 0x1.0p-53;
    }
    return -mean * std::log(u);
  }

  // Log-normal parameterized by the underlying normal's mu/sigma.
  double NextLogNormal(double mu, double sigma) {
    return std::exp(mu + sigma * NextGaussian());
  }

  // Standard normal via Box-Muller (one value per call; simple & adequate).
  double NextGaussian() {
    double u1 = NextDouble();
    double u2 = NextDouble();
    if (u1 <= 0.0) {
      u1 = 0x1.0p-53;
    }
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  }

  // Bounded Pareto sample in [lo, hi] with shape alpha (see BoundedPareto,
  // which keeps the per-distribution terms for repeated draws).
  double NextBoundedPareto(double alpha, double lo, double hi);

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4] = {};
};

// Bounded Pareto distribution on [lo, hi] with shape alpha. Used for file
// sizes. The pow(lo, alpha), pow(hi, alpha) and -1/alpha terms depend only
// on the distribution, so they are computed once here rather than per draw.
// Rng::NextBoundedPareto is a one-off BoundedPareto, so both draw the same
// bits.
class BoundedPareto {
 public:
  BoundedPareto(double alpha, double lo, double hi)
      : la_(std::pow(lo, alpha)),
        ha_(std::pow(hi, alpha)),
        exponent_(-1.0 / alpha) {
    assert(alpha > 0 && lo > 0 && hi > lo);
  }

  double Sample(Rng& rng) const {
    const double u = rng.NextDouble();
    return std::pow(-(u * ha_ - u * la_ - ha_) / (ha_ * la_), exponent_);
  }

 private:
  double la_;
  double ha_;
  double exponent_;
};

inline double Rng::NextBoundedPareto(double alpha, double lo, double hi) {
  return BoundedPareto(alpha, lo, hi).Sample(*this);
}

// Samples indices 0..n-1 with Zipf-like skew (rank r has weight 1/(r+1)^s).
// Precomputes the CDF once; Sample() is O(log n). Used to pick "hot" files.
class ZipfSampler {
 public:
  // The process-wide sampler for (n, skew): built on first use by the
  // constructor below, then shared read-only and never evicted. A table
  // costs n pow() calls, more than a short trace's draws, so callers that
  // sample one shape repeatedly (a generator per fleet user) share it.
  // Safe to call from concurrent threads.
  static const ZipfSampler& Shared(size_t n, double skew) {
    static std::mutex mu;
    static std::map<std::pair<size_t, double>,
                    std::unique_ptr<const ZipfSampler>>
        cache;
    std::lock_guard<std::mutex> lock(mu);
    std::unique_ptr<const ZipfSampler>& entry = cache[{n, skew}];
    if (entry == nullptr) {
      entry = std::make_unique<const ZipfSampler>(n, skew);
    }
    return *entry;
  }

  ZipfSampler(size_t n, double skew) : cdf_(n) {
    assert(n > 0);
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), skew);
      cdf_[i] = total;
    }
    for (auto& c : cdf_) {
      c /= total;
    }
  }

  size_t size() const { return cdf_.size(); }

  size_t Sample(Rng& rng) const {
    const double u = rng.NextDouble();
    // Binary search for the first CDF entry >= u.
    size_t lo = 0;
    size_t hi = cdf_.size() - 1;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace ssmc

#endif  // SSMC_SRC_SUPPORT_RNG_H_
