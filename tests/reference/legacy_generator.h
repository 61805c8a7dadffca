// Test-only reference model: the original workload generator. Each call
// built its own 4096-entry Zipf CDF, found unlinked files with a linear
// path scan, tracked the live set in a string hash set, and queued
// short-lived files' deaths as (deadline, path) pairs. WorkloadGenerator now
// shares one immutable CDF per (n, skew) and keeps its live-file bookkeeping
// by file id, and the differential suite in generator_test.cc requires it
// to emit the same records, in the same order, for every profile and seed.
//
// Do not "fix" or optimise this class; its value is being the old behavior.

#ifndef SSMC_TESTS_REFERENCE_LEGACY_GENERATOR_H_
#define SSMC_TESTS_REFERENCE_LEGACY_GENERATOR_H_

#include "src/support/rng.h"
#include "src/trace/generator.h"
#include "src/trace/trace.h"

namespace ssmc {

class LegacyWorkloadGenerator {
 public:
  explicit LegacyWorkloadGenerator(WorkloadOptions options);

  Trace Generate();

 private:
  WorkloadOptions options_;
  Rng rng_;
};

}  // namespace ssmc

#endif  // SSMC_TESTS_REFERENCE_LEGACY_GENERATOR_H_
