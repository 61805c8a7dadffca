// Test-side stand-in for the inode block map: remembers the residency
// manager's block-state slot for each BlockKey, so storage unit tests can
// keep naming blocks by key.

#ifndef SSMC_TESTS_BLOCK_SLOTS_H_
#define SSMC_TESTS_BLOCK_SLOTS_H_

#include <map>
#include <utility>

#include "src/storage/residency.h"

namespace ssmc {

class BlockSlots {
 public:
  explicit BlockSlots(ResidencyManager& res) : res_(res) {}

  // The key's slot, allocated if it has none, as a file system does before
  // it writes or touches a block. A slot that ends up holding nothing stays
  // allocated until the next Acquire reuses it: harmless in a unit test.
  SlotId operator()(const BlockKey& key) {
    SlotId& id = ids_[{key.file_id, key.block_index}];
    id = res_.blocks().Acquire(id, key);
    return id;
  }

 private:
  ResidencyManager& res_;
  std::map<std::pair<uint64_t, uint64_t>, SlotId> ids_;
};

}  // namespace ssmc

#endif  // SSMC_TESTS_BLOCK_SLOTS_H_
