// Test-only reference model: the storage manager's original eager index
// allocator. Construction pushes every index onto an explicit free stack,
// lowest on top; Allocate pops, Free pushes, and Reserve erases the index
// from wherever it sits in the stack. StorageManager now builds its pools
// lazily (a recycled stack plus an ascending cursor), and the differential
// suite in storage_manager_test.cc requires it to hand out the same index
// sequence, return the same status codes, and report the same free counts.
//
// Do not "fix" or optimise this class; its value is being the old behavior.

#ifndef SSMC_TESTS_REFERENCE_EAGER_INDEX_ALLOCATOR_H_
#define SSMC_TESTS_REFERENCE_EAGER_INDEX_ALLOCATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/support/status.h"

namespace ssmc {

class EagerIndexAllocator {
 public:
  // `exhausted` builds the error Allocate returns on an empty pool (the
  // DRAM and NVM pools report RESOURCE_EXHAUSTED, flash blocks NO_SPACE).
  using ErrorFn = Status (*)(std::string);
  EagerIndexAllocator(uint64_t capacity, ErrorFn exhausted);

  uint64_t capacity() const { return used_.size(); }
  uint64_t free() const { return free_.size(); }
  bool used(uint64_t i) const { return i < used_.size() && used_[i]; }

  Result<uint64_t> Allocate();
  Status Free(uint64_t i);
  Status Reserve(uint64_t i);

 private:
  ErrorFn exhausted_;
  std::vector<uint64_t> free_;
  std::vector<bool> used_;
};

}  // namespace ssmc

#endif  // SSMC_TESTS_REFERENCE_EAGER_INDEX_ALLOCATOR_H_
