#include "src/trace/generator.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <unordered_set>

#include "tests/reference/legacy_generator.h"

namespace ssmc {
namespace {

TEST(GeneratorTest, DeterministicFromSeed) {
  WorkloadOptions options = OfficeWorkload();
  options.duration = kMinute;
  Trace a = WorkloadGenerator(options).Generate();
  Trace b = WorkloadGenerator(options).Generate();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.records()[i], b.records()[i]) << "record " << i;
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  WorkloadOptions options = OfficeWorkload();
  options.duration = kMinute;
  Trace a = WorkloadGenerator(options).Generate();
  options.seed += 1;
  Trace b = WorkloadGenerator(options).Generate();
  EXPECT_NE(a.ToText(), b.ToText());
}

TEST(GeneratorTest, TimesAreMonotonic) {
  WorkloadOptions options = OfficeWorkload();
  options.duration = 2 * kMinute;
  Trace trace = WorkloadGenerator(options).Generate();
  SimTime last = 0;
  for (const TraceRecord& r : trace.records()) {
    EXPECT_GE(r.at, last);
    last = r.at;
  }
}

TEST(GeneratorTest, TraceIsSemanticallyConsistent) {
  // Every read/write/unlink targets a file that exists at that point.
  WorkloadOptions options = OfficeWorkload();
  options.duration = 2 * kMinute;
  Trace trace = WorkloadGenerator(options).Generate();
  std::unordered_set<std::string> dirs;
  std::unordered_set<std::string> files;
  for (const TraceRecord& r : trace.records()) {
    switch (r.op) {
      case TraceOp::kMkdir:
        EXPECT_EQ(dirs.count(r.path), 0u);
        dirs.insert(r.path);
        break;
      case TraceOp::kCreate:
        EXPECT_EQ(files.count(r.path), 0u) << r.path;
        files.insert(r.path);
        break;
      case TraceOp::kUnlink:
        EXPECT_EQ(files.count(r.path), 1u) << r.path;
        files.erase(r.path);
        break;
      case TraceOp::kWrite:
      case TraceOp::kRead:
      case TraceOp::kStat:
        EXPECT_EQ(files.count(r.path), 1u) << r.path;
        break;
      default:
        break;
    }
  }
}

TEST(GeneratorTest, OfficeMixRoughlyMatchesConfig) {
  WorkloadOptions options = OfficeWorkload();
  options.duration = 20 * kMinute;
  Trace trace = WorkloadGenerator(options).Generate();
  std::map<TraceOp, int> counts;
  for (const TraceRecord& r : trace.records()) {
    counts[r.op]++;
  }
  const double total = static_cast<double>(trace.size());
  // Reads should outnumber deletes heavily; writes are plentiful. (The
  // population phase and create-attached writes skew exact fractions.)
  EXPECT_GT(counts[TraceOp::kRead], counts[TraceOp::kUnlink]);
  EXPECT_GT(counts[TraceOp::kWrite] / total, 0.2);
  EXPECT_GT(counts[TraceOp::kRead] / total, 0.2);
}

TEST(GeneratorTest, ShortLivedFilesActuallyDie) {
  WorkloadOptions options = WriteHotWorkload();
  options.duration = 10 * kMinute;
  Trace trace = WorkloadGenerator(options).Generate();
  int creates = 0;
  int unlinks = 0;
  for (const TraceRecord& r : trace.records()) {
    creates += r.op == TraceOp::kCreate;
    unlinks += r.op == TraceOp::kUnlink;
  }
  // Most created files are deleted within the trace (p_short_lived = 0.75
  // with 15 s mean lifetime over a 10 min trace).
  EXPECT_GT(unlinks, creates / 2);
}

TEST(GeneratorTest, FileSizesAreSkewedSmall) {
  WorkloadOptions options = OfficeWorkload();
  options.duration = 10 * kMinute;
  Trace trace = WorkloadGenerator(options).Generate();
  uint64_t small = 0;
  uint64_t creates_with_write = 0;
  for (size_t i = 0; i + 1 < trace.size(); ++i) {
    if (trace.records()[i].op == TraceOp::kCreate &&
        trace.records()[i + 1].op == TraceOp::kWrite &&
        trace.records()[i + 1].path == trace.records()[i].path) {
      ++creates_with_write;
      if (trace.records()[i + 1].length < 8 * 1024) {
        ++small;
      }
    }
  }
  ASSERT_GT(creates_with_write, 50u);
  // The bounded-Pareto size distribution makes most files small.
  EXPECT_GT(static_cast<double>(small) / creates_with_write, 0.6);
}

TEST(GeneratorTest, WriteHotProfileWritesMoreThanOffice) {
  WorkloadOptions office = OfficeWorkload();
  office.duration = 5 * kMinute;
  WorkloadOptions hot = WriteHotWorkload();
  hot.duration = 5 * kMinute;
  const Trace office_trace = WorkloadGenerator(office).Generate();
  const Trace hot_trace = WorkloadGenerator(hot).Generate();
  const double office_ratio =
      static_cast<double>(office_trace.TotalBytesWritten()) /
      static_cast<double>(office_trace.TotalBytesRead() + 1);
  const double hot_ratio =
      static_cast<double>(hot_trace.TotalBytesWritten()) /
      static_cast<double>(hot_trace.TotalBytesRead() + 1);
  EXPECT_GT(hot_ratio, office_ratio);
}

TEST(GeneratorTest, ReadMostlyProfileReadsDominate) {
  WorkloadOptions options = ReadMostlyWorkload();
  options.duration = 5 * kMinute;
  Trace trace = WorkloadGenerator(options).Generate();
  EXPECT_GT(trace.TotalBytesRead(), 2 * trace.TotalBytesWritten());
}

// Differential suite: WorkloadGenerator against the original generator
// (tests/reference/legacy_generator.h), record for record, across the three
// profiles, three trace lengths, and a churn variant whose many 1 ms
// lifetimes and 256-file population drive heavy unlink traffic.
class GeneratorDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// Index of the first record where the traces differ, or -1 if none do.
int64_t FirstMismatch(const Trace& a, const Trace& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (!(a.records()[i] == b.records()[i])) {
      return static_cast<int64_t>(i);
    }
  }
  return a.size() == b.size() ? -1 : static_cast<int64_t>(n);
}

TEST_P(GeneratorDifferentialTest, MatchesLegacyGenerator) {
  const uint64_t seed = GetParam();
  const std::pair<const char*, WorkloadOptions> profiles[] = {
      {"office", OfficeWorkload()},
      {"write-hot", WriteHotWorkload()},
      {"read-mostly", ReadMostlyWorkload()},
  };
  for (const auto& [name, profile] : profiles) {
    for (const Duration duration : {2 * kSecond, 30 * kSecond, 3 * kMinute}) {
      for (const bool churn : {false, true}) {
        WorkloadOptions options = profile;
        options.seed = profile.seed * 1000003 + seed;
        options.duration = duration;
        if (churn) {
          options.initial_files = 256;
          options.short_lived_mean = kMillisecond;
        }
        const Trace expected = LegacyWorkloadGenerator(options).Generate();
        const Trace actual = WorkloadGenerator(options).Generate();
        ASSERT_EQ(FirstMismatch(actual, expected), -1)
            << name << " seed " << options.seed << " duration " << duration
            << (churn ? " churn" : "") << ": " << actual.size() << " vs "
            << expected.size() << " records";
      }
    }
  }
}

TEST(GeneratorDifferentialTest, TiedDeadlinesMatchLegacyGenerator) {
  // Deaths on the same nanosecond pop in path order. The profiles above
  // never tie (deadlines are integer ns spread over seconds), so this dense
  // mix of 1 ms lifetimes every ~0.5 us makes ties common enough to check.
  int ties = 0;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    WorkloadOptions options = OfficeWorkload();
    options.seed = seed;
    options.duration = 10 * kMillisecond;
    options.mean_interarrival = 500;
    options.p_create = 0.5;
    options.p_delete = 0.05;
    options.p_short_lived = 1.0;
    options.short_lived_mean = kMillisecond;
    const Trace expected = LegacyWorkloadGenerator(options).Generate();
    const Trace actual = WorkloadGenerator(options).Generate();
    ASSERT_EQ(FirstMismatch(actual, expected), -1) << "seed " << seed;
    const std::vector<TraceRecord>& records = expected.records();
    for (size_t i = 0; i + 1 < records.size(); ++i) {
      ties += records[i].op == TraceOp::kUnlink &&
              records[i + 1].op == TraceOp::kUnlink &&
              records[i].at == records[i + 1].at;
    }
  }
  EXPECT_GE(ties, 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorDifferentialTest,
                         ::testing::Range<uint64_t>(0, 64));

}  // namespace
}  // namespace ssmc
