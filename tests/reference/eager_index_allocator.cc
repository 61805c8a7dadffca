#include "tests/reference/eager_index_allocator.h"

#include <algorithm>

namespace ssmc {

EagerIndexAllocator::EagerIndexAllocator(uint64_t capacity, ErrorFn exhausted)
    : exhausted_(exhausted) {
  free_.reserve(capacity);
  // Hand indices out from the low end first.
  for (uint64_t i = capacity; i > 0; --i) {
    free_.push_back(i - 1);
  }
  used_.assign(capacity, false);
}

Result<uint64_t> EagerIndexAllocator::Allocate() {
  if (free_.empty()) {
    return exhausted_("pool exhausted");
  }
  const uint64_t i = free_.back();
  free_.pop_back();
  used_[i] = true;
  return i;
}

Status EagerIndexAllocator::Free(uint64_t i) {
  if (i >= used_.size()) {
    return OutOfRangeError("no such index");
  }
  if (!used_[i]) {
    return FailedPreconditionError("double free of " + std::to_string(i));
  }
  used_[i] = false;
  free_.push_back(i);
  return Status::Ok();
}

Status EagerIndexAllocator::Reserve(uint64_t i) {
  if (i >= used_.size()) {
    return OutOfRangeError("no such index");
  }
  if (used_[i]) {
    return AlreadyExistsError(std::to_string(i) + " is already in use");
  }
  free_.erase(std::find(free_.begin(), free_.end(), i));
  used_[i] = true;
  return Status::Ok();
}

}  // namespace ssmc
