#include "src/support/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <thread>
#include <vector>

#include "src/trace/generator.h"

namespace ssmc {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ReseedRestartsStream) {
  Rng a(7);
  const uint64_t first = a.Next();
  a.Next();
  a.Seed(7);
  EXPECT_EQ(a.Next(), first);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowOneIsZero) {
  Rng rng(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.NextBelow(1), 0u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(42);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(42);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  // Mean should be near 0.5.
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(42);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextExponential(10.0);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 10.0, 0.3);
}

TEST(RngTest, GaussianIsRoughlyStandard) {
  Rng rng(42);
  double sum = 0;
  double sumsq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sumsq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(RngTest, BoundedParetoStaysInBounds) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextBoundedPareto(1.1, 100, 1000000);
    EXPECT_GE(v, 100.0 * (1 - 1e-9));
    EXPECT_LE(v, 1000000.0 * (1 + 1e-9));
  }
}

TEST(RngTest, BoundedParetoIsSkewedTowardSmall) {
  Rng rng(42);
  int small = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBoundedPareto(1.2, 1, 1 << 20) < 16) {
      ++small;
    }
  }
  // Heavy-tailed: the majority of samples are tiny.
  EXPECT_GT(small, n / 2);
}

TEST(RngTest, BoundedParetoMatchesThePerDrawFormula) {
  // Hoisting the pow(lo, a) and pow(hi, a) terms must not move a bit: the
  // reference recomputes them on every draw, as the original sampler did.
  const double alpha = 1.1;
  const double lo = 256;
  const double hi = 256 * 1024;
  const BoundedPareto pareto(alpha, lo, hi);
  Rng a(99);
  Rng b(99);
  Rng c(99);
  for (int i = 0; i < 100000; ++i) {
    const double u = a.NextDouble();
    const double la = std::pow(lo, alpha);
    const double ha = std::pow(hi, alpha);
    const double expected =
        std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
    ASSERT_EQ(pareto.Sample(b), expected) << "draw " << i;
    ASSERT_EQ(c.NextBoundedPareto(alpha, lo, hi), expected) << "draw " << i;
  }
}

TEST(ZipfSamplerTest, RankZeroIsMostFrequent) {
  Rng rng(42);
  ZipfSampler zipf(100, 1.0);
  std::map<size_t, int> counts;
  for (int i = 0; i < 20000; ++i) {
    counts[zipf.Sample(rng)]++;
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[50]);
  // Rank 0 of a 100-item zipf(1.0) distribution has weight ~19%.
  EXPECT_NEAR(static_cast<double>(counts[0]) / 20000, 0.19, 0.03);
}

TEST(ZipfSamplerTest, AllIndicesReachable) {
  Rng rng(42);
  ZipfSampler zipf(5, 0.5);
  std::vector<bool> seen(5, false);
  for (int i = 0; i < 5000; ++i) {
    seen[zipf.Sample(rng)] = true;
  }
  for (bool s : seen) {
    EXPECT_TRUE(s);
  }
}

TEST(ZipfSamplerTest, SkewZeroIsUniform) {
  Rng rng(42);
  ZipfSampler zipf(10, 0.0);
  std::map<size_t, int> counts;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    counts[zipf.Sample(rng)]++;
  }
  for (const auto& [idx, c] : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.02) << "index " << idx;
  }
}

TEST(ZipfSamplerTest, SharedIsOneInstancePerShape) {
  const ZipfSampler& a = ZipfSampler::Shared(4096, 1.0);
  EXPECT_EQ(&a, &ZipfSampler::Shared(4096, 1.0));
  EXPECT_NE(&a, &ZipfSampler::Shared(4096, 1.2));
  EXPECT_NE(&a, &ZipfSampler::Shared(1024, 1.0));
  EXPECT_EQ(a.size(), 4096u);
  EXPECT_EQ(ZipfSampler::Shared(1024, 1.0).size(), 1024u);
}

// Draws `draws` samples from the shared and a freshly built sampler of the
// same shape, from equal seeds, and requires every index to match.
void ExpectSharedMatchesFresh(size_t n, double skew, int draws) {
  const ZipfSampler& shared = ZipfSampler::Shared(n, skew);
  const ZipfSampler fresh(n, skew);
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < draws; ++i) {
    ASSERT_EQ(shared.Sample(a), fresh.Sample(b))
        << "n " << n << " skew " << skew << " draw " << i;
  }
}

TEST(ZipfSamplerTest, SharedSamplesLikeAFreshSampler) {
  ExpectSharedMatchesFresh(4096, 1.0, 100000);
  ExpectSharedMatchesFresh(4096, 1.2, 100000);
}

TEST(ZipfSamplerTest, ConcurrentGeneratorsMatchASerialLoop) {
  // Skews no other test uses, so the first users of each shared table are
  // the four threads below, racing to build it: every thread's first trace
  // uses skews[0], its second skews[1], and so on.
  constexpr int kThreads = 4;
  constexpr int kTraces = 64;
  const double skews[] = {1.01, 1.02, 1.03, 1.04};
  auto options_for = [&](int i) {
    WorkloadOptions options = i % 2 == 0 ? OfficeWorkload() : WriteHotWorkload();
    options.seed = 1000 + static_cast<uint64_t>(i);
    options.duration = 2 * kSecond;
    options.hot_skew = skews[(i / kThreads) % 4];
    return options;
  };
  std::vector<Trace> concurrent(kTraces);
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int i = w; i < kTraces; i += kThreads) {
        concurrent[static_cast<size_t>(i)] =
            WorkloadGenerator(options_for(i)).Generate();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int i = 0; i < kTraces; ++i) {
    const Trace serial = WorkloadGenerator(options_for(i)).Generate();
    EXPECT_EQ(concurrent[static_cast<size_t>(i)].records(), serial.records())
        << "trace " << i;
  }
  // The tables the threads built are the ones a single thread would build.
  for (const double skew : skews) {
    ExpectSharedMatchesFresh(4096, skew, 10000);
  }
}

}  // namespace
}  // namespace ssmc
