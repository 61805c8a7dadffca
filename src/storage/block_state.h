// BlockState — everything the storage layers know about one file block,
// in one pooled slot.
//
// A file block that is dirty in the DRAM write buffer, cached in a clean
// tier (DRAM or NVM), or carries access heat owns exactly one slot in the
// residency manager's BlockStateTable. The file system's inode block map
// holds the slot id next to the block's flash address, so finding a block's
// state is an array index, not a hash probe. The slot records where the
// block's DRAM/NVM copy lives, the page holding it, who it is billed to,
// its heat, and one pair of intrusive list links. One pair is enough
// because the three lists a block can sit on — the write buffer's
// first-dirtied LRU and each cache tier's LRU — are exclusive: a write
// invalidates the clean copy before the block dirties, and promotion only
// starts from flash.
//
// Slots are allocated lazily, on a block's first dirtying, caching or
// touch, and freed as soon as they hold none of the three (the write
// buffer's drop/flush, a bottom-tier drop, ForgetHeat). Freed ids may stay
// behind in an inode's block map; Find() rejects them by key, so a stale id
// never aliases another block.

#ifndef SSMC_SRC_STORAGE_BLOCK_STATE_H_
#define SSMC_SRC_STORAGE_BLOCK_STATE_H_

#include <cstdint>
#include <vector>

#include "src/sim/io_request.h"
#include "src/support/units.h"

namespace ssmc {

// Identifies one file block: (file id, block index within the file).
struct BlockKey {
  uint64_t file_id = 0;
  uint64_t block_index = 0;

  bool operator==(const BlockKey& other) const {
    return file_id == other.file_id && block_index == other.block_index;
  }
};

// Index of a slot in a BlockStateTable; kNoSlot means "no state".
using SlotId = uint32_t;
inline constexpr SlotId kNoSlot = 0;

// Where a logical block currently lives.
enum class Residency : uint8_t {
  kHole = 0,   // Never written (or released): reads are zero fill.
  kDirty = 1,  // In the DRAM write buffer, not yet flushed.
  kClean = 2,  // In the DRAM clean cache; the flash copy is authoritative.
  kFlash = 3,  // Only in flash.
  kNvm = 4,    // In the NVM cache tier; the flash copy is authoritative.
};

struct BlockState {
  BlockKey key;
  SimTime dirty_since = 0;  // First dirtying; overwrites do not refresh it.
  // Heat: an exponentially decayed touch count, brought current lazily.
  double decayed = 0;
  SimTime last = 0;  // When `decayed` was last brought current.
  uint64_t raw = 0;  // Lifetime touches; 0 = the block carries no heat.
  uint32_t page = 0;  // DRAM page (kDirty, kClean) or NVM page (kNvm).
  SlotId prev = kNoSlot;
  SlotId next = kNoSlot;
  // The last writer while dirty (the flush is billed to them), the billed
  // promoter while cached (the page is their share).
  TenantId tenant = kDefaultTenant;
  // The list the slot is on: kDirty, kClean or kNvm; kHole when it holds
  // no DRAM/NVM copy (only heat).
  Residency where = Residency::kHole;
};
static_assert(sizeof(BlockState) == 64, "one slot per cache line");

// An intrusive list threaded through the slots' prev/next links.
struct SlotList {
  SlotId head = kNoSlot;  // Least recently used / first dirtied.
  SlotId tail = kNoSlot;
  uint64_t size = 0;
};

class BlockStateTable {
 public:
  // A freed slot's key; no file ever has this id.
  static constexpr uint64_t kFreeFileId = ~uint64_t{0};

  BlockState& operator[](SlotId id) { return slots_[id]; }
  const BlockState& operator[](SlotId id) const { return slots_[id]; }

  // `hint` if it is a live slot for `key`, else kNoSlot.
  SlotId Find(SlotId hint, const BlockKey& key) const {
    return hint != kNoSlot && hint < slots_.size() && slots_[hint].key == key
               ? hint
               : kNoSlot;
  }
  // Find(hint, key), allocating a fresh slot for `key` when there is none.
  SlotId Acquire(SlotId hint, const BlockKey& key) {
    const SlotId found = Find(hint, key);
    if (found != kNoSlot) {
      return found;
    }
    if (slots_.empty()) {
      slots_.emplace_back().key.file_id = kFreeFileId;  // Id 0 = kNoSlot.
    }
    SlotId id;
    if (free_.empty()) {
      id = static_cast<SlotId>(slots_.size());
      slots_.emplace_back();
    } else {
      id = free_.back();
      free_.pop_back();
      slots_[id] = BlockState{};
    }
    slots_[id].key = key;
    ++live_;
    return id;
  }
  bool live(SlotId id) const {
    return id != kNoSlot && id < slots_.size() &&
           slots_[id].key.file_id != kFreeFileId;
  }
  // Returns an unlinked slot to the pool.
  void Free(SlotId id) {
    slots_[id].key.file_id = kFreeFileId;
    // The pool never holds more than every slot: growing to that at once
    // lets a run of frees allocate once.
    if (free_.size() == free_.capacity()) {
      free_.reserve(slots_.size());
    }
    free_.push_back(id);
    --live_;
  }
  uint64_t live_slots() const { return live_; }
  // Every id ever handed out is below this.
  SlotId end() const { return static_cast<SlotId>(slots_.size()); }

  void PushBack(SlotList& list, SlotId id) {
    BlockState& s = slots_[id];
    s.prev = list.tail;
    s.next = kNoSlot;
    if (list.tail != kNoSlot) {
      slots_[list.tail].next = id;
    } else {
      list.head = id;
    }
    list.tail = id;
    ++list.size;
  }
  void Unlink(SlotList& list, SlotId id) {
    BlockState& s = slots_[id];
    (s.prev != kNoSlot ? slots_[s.prev].next : list.head) = s.next;
    (s.next != kNoSlot ? slots_[s.next].prev : list.tail) = s.prev;
    s.prev = s.next = kNoSlot;
    --list.size;
  }
  void MoveToBack(SlotList& list, SlotId id) {
    if (list.tail != id) {
      Unlink(list, id);
      PushBack(list, id);
    }
  }

 private:
  std::vector<BlockState> slots_;  // [0] is a never-live sentinel.
  std::vector<SlotId> free_;       // LIFO.
  uint64_t live_ = 0;
};

}  // namespace ssmc

#endif  // SSMC_SRC_STORAGE_BLOCK_STATE_H_
