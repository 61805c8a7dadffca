// Incrementally maintained indexes over FTL sector state.
//
// The FlashStore's hot paths — page allocation, cleaning-victim selection,
// free-sector take, cold-sector eviction, and static wear leveling — were
// originally full-device linear scans, so every write cost O(sectors) and
// the E7/E8/E9 sweeps scaled as O(ops x sectors). The structures here keep
// the same decisions available in O(1)/O(log N) amortized by updating small
// ordered containers at each metadata transition instead of rescanning.
//
// Bit-identical policy contract: every index reproduces *exactly* the choice
// the retired linear scan would have made, including tie-breaking (the scans
// kept the first, i.e. lowest-index, sector achieving the best score) and
// the floating-point arithmetic of the cost-benefit score. The linear scans
// are retained as references (PickCleaningVictim and the Scan* functions in
// flash_store.h); FlashStore::CheckIndexConsistency compares every indexed
// pick against them, and the differential property suite calls it after
// every operation across the full policy matrix.
//
// Known bound: cost-benefit exactness relies on distinct sector ages mapping
// to distinct doubles, which holds while simulated time stays below 2^52 ns
// (~52 days). All experiments run far below that; the audit would surface a
// violation as a mismatch rather than silently diverging.
//
// All indexes store per-sector shadow nodes and are driven through Sync()
// calls: the caller reports a sector's current metadata and eligibility, and
// the index inserts/moves/removes the sector as needed. The FlashStore does
// not sync on every transition (dead-page count change, activation, erase,
// retirement). It only marks the sector pending, and settles every pending
// sector, once each and under its final metadata, before it queries any
// index. A pick depends only on the member set and its keys, so settling
// on query picks exactly what syncing every step would have; most of an
// overwrite burst's page deaths never reach an index.

#ifndef SSMC_SRC_FTL_VICTIM_INDEX_H_
#define SSMC_SRC_FTL_VICTIM_INDEX_H_

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/support/first_touch_table.h"
#include "src/support/units.h"

namespace ssmc {

enum class CleanerPolicy { kGreedy, kCostBenefit };
enum class WearPolicy { kNone, kDynamic, kStatic };

// Per-bank pool of erased sectors, replacing the deque the allocator used to
// linear-scan. Two orders, matching the two allocator behaviors:
//  * wear_ordered = false (WearPolicy::kNone): LIFO — take the most recently
//    freed sector (the naive allocator that concentrates wear);
//  * wear_ordered = true (kDynamic/kStatic): least-worn first; among equally
//    worn sectors, the one freed earliest (the scan kept the first strict
//    minimum in insertion order). Erase counts are frozen while a sector
//    sits in the pool, so the ordering key never goes stale.
class FreeSectorPool {
 public:
  explicit FreeSectorPool(bool wear_ordered) : wear_ordered_(wear_ordered) {}

  void Add(uint64_t sector, uint64_t erase_count) {
    AddRun(sector, 1, erase_count);
  }
  // Adds sectors [first, first + n), all at `erase_count`, as if by n Add
  // calls in ascending order, but stored as one entry: seeding a fresh
  // card's pool costs one entry per bank, not one per sector.
  void AddRun(uint64_t first, uint64_t n, uint64_t erase_count);
  // The sector Take() would remove, or -1 if the pool is empty.
  int64_t Peek() const;
  // Removes and returns the pick, or -1 if the pool is empty.
  int64_t Take();

  bool empty() const { return size() == 0; }
  uint64_t size() const { return size_; }

  // (sector, erase_count) pairs in insertion order — the exact sequence the
  // retired linear-scan allocator iterated. Used by the consistency audit
  // and tests only; costs O(n log n) when wear-ordered.
  std::vector<std::pair<uint64_t, uint64_t>> SnapshotInsertionOrder() const;

 private:
  // Sectors [first, first + n) with erase count `count`, added in ascending
  // order with insertion seqs [seq, seq + n).
  struct Run {
    uint64_t first;
    uint64_t n;
    uint64_t seq;
    uint64_t count;
  };
  // FIFO of runs awaiting allocation at one erase count, drained from the
  // front via a head cursor (amortized O(1), storage reclaimed when the
  // bucket empties and its map node is erased).
  struct WearBucket {
    std::vector<Run> q;
    size_t head = 0;
  };

  bool wear_ordered_;
  uint64_t next_seq_ = 0;
  uint64_t size_ = 0;
  // wear_ordered_: per-erase-count FIFO buckets, keyed by erase count. The
  // retired flat set ordered entries by (erase_count, seq, sector); seq is
  // unique and assigned in insertion order, so within one erase count the
  // set's order was exactly FIFO and the sector tie-break was unreachable.
  // The front of begin()'s front run is therefore the same pick, but an
  // Add/Take touches a handful of map nodes (one per *distinct* live erase
  // count — wear leveling keeps that band narrow) instead of rebalancing a
  // tree node per pooled sector.
  std::map<uint64_t, WearBucket> by_wear_;
  // !wear_ordered_: runs in insertion order; the back run's last sector is
  // next out.
  std::vector<Run> lifo_;
};

// Index of cleaning candidates (sectors that are neither active, free, nor
// bad and hold at least one dead page), answering "which sector would the
// linear scan pick at time `now`" in O(pages_per_sector * log N).
//
//  * kGreedy: candidates bucketed by dead-page count; the pick is the
//    lowest-index sector in the highest non-empty bucket.
//  * kCostBenefit: score = age * (1-u) / (1+u) depends on the query time, so
//    no single time-independent order exists across utilizations. But within
//    a fixed valid-page count the score is monotone in age, so candidates
//    are bucketed by valid count and ordered by (last_write_time, sector)
//    inside each bucket; the pick reduces to comparing one representative
//    per bucket with the scan's exact double arithmetic. A per-bucket
//    by-index order handles the age clamp max(1, now - t): when even the
//    oldest candidate's age clamps to 1, the whole bucket ties and the scan
//    would keep the lowest sector index.
//
// Membership changes at nearly every settle (an overwrite burst moves the
// old pages' sectors between buckets), so the buckets are flat binary
// min-heaps with lazy deletion rather than ordered node-based sets: an
// update is a contiguous-array sift instead of red-black rebalancing over
// pointer-chased nodes, and a departed sector's entry is simply left behind
// to be pruned when it surfaces at the top of its heap (the per-sector Node
// spots stale entries). Heaps compact once stale entries outnumber live
// ones, so memory stays proportional to the live candidate set.
class VictimIndex {
 public:
  VictimIndex(CleanerPolicy policy, uint32_t pages_per_sector,
              uint64_t num_sectors);

  // Builds `sector`'s node if it has none (a sector's node is built once,
  // so its epoch survives reuse). Required before the first Sync of the
  // sector; the store calls it whenever it opens one.
  void Open(uint64_t sector) { nodes_.Touch(sector); }

  // Brings an opened `sector`'s membership in line with its current
  // metadata. `candidate` must be (!active && !free && !bad &&
  // dead_pages > 0).
  void Sync(uint64_t sector, uint32_t valid_pages, uint32_t dead_pages,
            SimTime last_write_time, bool candidate);

  // The sector the linear scan would pick at `now`, or -1 if no candidate.
  int64_t Pick(SimTime now) const;

  bool Contains(uint64_t sector) const {
    const Node* node = nodes_.Find(sector);
    return node != nullptr && node->present;
  }
  uint64_t size() const { return size_; }

  // Advisory: begin pulling `sector`'s shadow node into cache ahead of a
  // Sync call (the node array is too large to stay resident).
  void Prefetch(uint64_t sector) const {
    __builtin_prefetch(nodes_.slot(sector), 1);
  }

 private:
  struct Node {
    uint32_t valid = 0;
    uint32_t dead = 0;
    SimTime last_write = 0;
    // Bumped on every Insert; a heap entry is live only if its stamped epoch
    // matches, so a sector re-indexed under identical keys cannot leave an
    // indistinguishable stale twin behind.
    uint32_t epoch = 0;
    bool present = false;
  };
  struct AgeEntry {
    SimTime last_write;
    uint64_t sector;
    uint32_t epoch;
    // Min-heap order: oldest write first, ties to the lowest sector index
    // (the ordering the old by_age set provided).
    bool operator>(const AgeEntry& o) const {
      return last_write != o.last_write ? last_write > o.last_write
                                        : sector > o.sector;
    }
  };
  struct IndexEntry {
    uint64_t sector;
    uint32_t epoch;
    bool operator>(const IndexEntry& o) const { return sector > o.sector; }
  };
  // Flat min-heaps with lazy deletion; stale entries pruned at the top.
  // Mutable because pruning inside the logically-const Pick() does not
  // change the abstract candidate set.
  struct AgeHeap {
    mutable std::vector<AgeEntry> heap;
    uint64_t live = 0;
  };
  struct IndexHeap {
    mutable std::vector<IndexEntry> heap;
    uint64_t live = 0;
  };

  void Remove(uint64_t sector);
  void Insert(uint64_t sector, uint32_t valid, uint32_t dead, SimTime t);

  // True if the heap entry still describes a live candidate.
  bool EntryLive(uint64_t sector, uint32_t epoch) const {
    const Node& node = nodes_[sector];
    return node.present && node.epoch == epoch;
  }

  // Drop stale entries off the top; return the min live entry or null.
  const AgeEntry* PruneAgeTop(uint32_t valid) const;
  const IndexEntry* PruneIndexTop(uint32_t bucket) const;

  void MaybeCompact(uint32_t bucket);

  CleanerPolicy policy_;
  uint32_t pages_per_sector_;
  FirstTouchTable<Node> nodes_;  // Built by Open().
  std::vector<IndexHeap> by_dead_;        // kGreedy: [dead] -> sectors.
  std::vector<AgeHeap> by_valid_age_;     // kCostBenefit: [valid].
  std::vector<IndexHeap> by_valid_index_; // kCostBenefit: [valid].
  uint64_t size_ = 0;
};

// Age-ordered index of fully-valid sectors in the hot bank range, feeding
// EvictColdSectorFromHotRange: the oldest (by last write; ties to the lowest
// sector index) eligible sector is the front of one ordered set. Sized to
// the hot range (sectors [0, num_sectors)), which is empty unless bank
// segregation is on.
class ColdSectorIndex {
 public:
  explicit ColdSectorIndex(uint64_t num_sectors) : nodes_(num_sectors) {}

  // `sector` must lie in the hot range; `eligible` must be (!active &&
  // !free && !bad && dead_pages == 0 && valid_pages > 0).
  void Sync(uint64_t sector, SimTime last_write_time, bool eligible);

  // Oldest eligible sector whose last write is at least `min_age` before
  // `now`, or -1. (The front of the index is the oldest overall, so if it is
  // too young every candidate is.)
  int64_t PickOlderThan(SimTime now, Duration min_age) const;

  bool Contains(uint64_t sector) const {
    return sector < nodes_.size() && nodes_[sector].present;
  }
  uint64_t size() const { return by_age_.size(); }

 private:
  struct Node {
    SimTime last_write = 0;
    bool present = false;
  };
  std::vector<Node> nodes_;
  std::set<std::pair<SimTime, uint64_t>> by_age_;
};

// Running erase-count trackers feeding MaybeStaticWearLevel: the min/max
// erase count over non-retired sectors, and the coldest (least-erased,
// lowest-index) occupied sector — all O(log N) per erase instead of a
// full-device scan per wear check.
//
// Erase counts of occupied sectors are frozen (only EraseAndFree erases, and
// it runs on sectors leaving the occupied set). The erase notification
// arrives eagerly and re-keys a still-indexed sector; the FlashStore's next
// settle then removes it, so no key is stale when the set is queried.
class WearIndex {
 public:
  explicit WearIndex(uint64_t num_sectors) : nodes_(num_sectors) {}

  // Registers a sector's initial erase count (construction time).
  void Seed(uint64_t sector, uint64_t erase_count);

  // Erase-count change notification (wired to FlashDevice's erase observer).
  // `now_bad` retires the sector from the trackers entirely.
  void OnEraseCountChanged(uint64_t sector, uint64_t new_count, bool now_bad);

  // `occupied` must be (!active && !free && !bad).
  void SyncOccupied(uint64_t sector, uint64_t erase_count, bool occupied);

  bool has_sectors() const { return !counts_.empty(); }
  uint64_t min_erases() const { return *counts_.begin(); }
  uint64_t max_erases() const { return *counts_.rbegin(); }
  // Lowest-index sector among the least-erased occupied ones, or -1.
  int64_t ColdestOccupied() const;

  bool OccupiedContains(uint64_t sector) const {
    return nodes_[sector].occupied;
  }
  uint64_t occupied_size() const { return occupied_.size(); }
  uint64_t tracked_sectors() const { return counts_.size(); }

 private:
  struct Node {
    uint64_t count = 0;       // Key under which the sector is tracked.
    bool tracked = false;     // In counts_.
    uint64_t occupied_key = 0;
    bool occupied = false;    // In occupied_.
  };
  std::vector<Node> nodes_;
  std::multiset<uint64_t> counts_;               // Non-bad sectors.
  std::set<std::pair<uint64_t, uint64_t>> occupied_;  // (count, sector).
};

}  // namespace ssmc

#endif  // SSMC_SRC_FTL_VICTIM_INDEX_H_
