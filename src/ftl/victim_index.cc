#include "src/ftl/victim_index.h"

#include <algorithm>
#include <cassert>

namespace ssmc {

// --- FreeSectorPool -------------------------------------------------------

void FreeSectorPool::AddRun(uint64_t first, uint64_t n,
                            uint64_t erase_count) {
  if (n == 0) {
    return;
  }
  const Run run{first, n, next_seq_, erase_count};
  next_seq_ += n;
  size_ += n;
  if (wear_ordered_) {
    by_wear_[erase_count].q.push_back(run);
  } else {
    lifo_.push_back(run);
  }
}

int64_t FreeSectorPool::Peek() const {
  if (size_ == 0) {
    return -1;
  }
  if (wear_ordered_) {
    const WearBucket& b = by_wear_.begin()->second;
    return static_cast<int64_t>(b.q[b.head].first);
  }
  const Run& r = lifo_.back();
  return static_cast<int64_t>(r.first + r.n - 1);
}

int64_t FreeSectorPool::Take() {
  if (size_ == 0) {
    return -1;
  }
  --size_;
  if (wear_ordered_) {
    const auto it = by_wear_.begin();
    WearBucket& b = it->second;
    Run& r = b.q[b.head];
    const int64_t sector = static_cast<int64_t>(r.first);
    r.first += 1;
    r.seq += 1;
    if (--r.n == 0 && ++b.head == b.q.size()) {
      by_wear_.erase(it);
    }
    return sector;
  }
  Run& r = lifo_.back();
  const int64_t sector = static_cast<int64_t>(r.first + r.n - 1);
  if (--r.n == 0) {
    lifo_.pop_back();
  }
  return sector;
}

std::vector<std::pair<uint64_t, uint64_t>>
FreeSectorPool::SnapshotInsertionOrder() const {
  std::vector<Run> runs;
  if (wear_ordered_) {
    for (const auto& [count, bucket] : by_wear_) {
      runs.insert(runs.end(), bucket.q.begin() + bucket.head, bucket.q.end());
    }
    // Runs never interleave (each covers a contiguous block of seqs), so
    // ordering them by first seq orders every entry.
    std::sort(runs.begin(), runs.end(),
              [](const Run& a, const Run& b) { return a.seq < b.seq; });
  } else {
    // lifo_ only grows at the back and shrinks from the back, so it is
    // already in insertion order.
    runs = lifo_;
  }
  std::vector<std::pair<uint64_t, uint64_t>> out;
  out.reserve(size_);
  for (const Run& r : runs) {
    for (uint64_t i = 0; i < r.n; ++i) {
      out.emplace_back(r.first + i, r.count);
    }
  }
  return out;
}

// --- VictimIndex ----------------------------------------------------------

VictimIndex::VictimIndex(CleanerPolicy policy, uint32_t pages_per_sector,
                         uint64_t num_sectors)
    : policy_(policy), pages_per_sector_(pages_per_sector),
      nodes_(num_sectors) {
  assert(pages_per_sector_ > 0);
  if (policy_ == CleanerPolicy::kGreedy) {
    by_dead_.resize(pages_per_sector_ + 1);
  } else {
    // Candidates have dead > 0, so valid ranges over [0, pages_per_sector).
    by_valid_age_.resize(pages_per_sector_);
    by_valid_index_.resize(pages_per_sector_);
  }
}

const VictimIndex::AgeEntry* VictimIndex::PruneAgeTop(uint32_t valid) const {
  std::vector<AgeEntry>& h = by_valid_age_[valid].heap;
  while (!h.empty() && !EntryLive(h.front().sector, h.front().epoch)) {
    std::pop_heap(h.begin(), h.end(), std::greater<AgeEntry>());
    h.pop_back();
  }
  return h.empty() ? nullptr : &h.front();
}

const VictimIndex::IndexEntry* VictimIndex::PruneIndexTop(
    uint32_t bucket) const {
  std::vector<IndexEntry>& h = (policy_ == CleanerPolicy::kGreedy
                                    ? by_dead_[bucket]
                                    : by_valid_index_[bucket])
                                   .heap;
  while (!h.empty() && !EntryLive(h.front().sector, h.front().epoch)) {
    std::pop_heap(h.begin(), h.end(), std::greater<IndexEntry>());
    h.pop_back();
  }
  return h.empty() ? nullptr : &h.front();
}

void VictimIndex::MaybeCompact(uint32_t bucket) {
  // Rebuild a heap once stale entries outnumber live ones (plus a floor so
  // small buckets never bother). Heap order does not care about the order of
  // the surviving entries, so a filter + make_heap is enough; the epoch
  // check keeps exactly one entry per live sector, so this always converges.
  constexpr size_t kFloor = 64;
  auto compact = [this](auto& bucket_heap) {
    auto& h = bucket_heap.heap;
    if (h.size() <= 2 * bucket_heap.live + kFloor) {
      return;
    }
    std::erase_if(h, [this](const auto& e) {
      return !EntryLive(e.sector, e.epoch);
    });
    std::make_heap(h.begin(), h.end(),
                   std::greater<std::decay_t<decltype(h[0])>>());
  };
  if (policy_ == CleanerPolicy::kGreedy) {
    compact(by_dead_[bucket]);
  } else {
    compact(by_valid_age_[bucket]);
    compact(by_valid_index_[bucket]);
  }
}

void VictimIndex::Insert(uint64_t sector, uint32_t valid, uint32_t dead,
                         SimTime t) {
  Node& node = nodes_[sector];
  assert(!node.present);
  assert(dead > 0 && dead <= pages_per_sector_);
  node.valid = valid;
  node.dead = dead;
  node.last_write = t;
  node.epoch += 1;
  node.present = true;
  if (policy_ == CleanerPolicy::kGreedy) {
    IndexHeap& b = by_dead_[dead];
    b.heap.push_back(IndexEntry{sector, node.epoch});
    std::push_heap(b.heap.begin(), b.heap.end(), std::greater<IndexEntry>());
    b.live += 1;
    MaybeCompact(dead);
  } else {
    AgeHeap& a = by_valid_age_[valid];
    a.heap.push_back(AgeEntry{t, sector, node.epoch});
    std::push_heap(a.heap.begin(), a.heap.end(), std::greater<AgeEntry>());
    a.live += 1;
    IndexHeap& i = by_valid_index_[valid];
    i.heap.push_back(IndexEntry{sector, node.epoch});
    std::push_heap(i.heap.begin(), i.heap.end(), std::greater<IndexEntry>());
    i.live += 1;
    MaybeCompact(valid);
  }
  size_ += 1;
}

void VictimIndex::Remove(uint64_t sector) {
  Node& node = nodes_[sector];
  assert(node.present);
  // Lazy: clearing `present` invalidates the heap entries in place; they are
  // pruned when they surface or at the next compaction.
  if (policy_ == CleanerPolicy::kGreedy) {
    by_dead_[node.dead].live -= 1;
  } else {
    by_valid_age_[node.valid].live -= 1;
    by_valid_index_[node.valid].live -= 1;
  }
  node.present = false;
  size_ -= 1;
}

void VictimIndex::Sync(uint64_t sector, uint32_t valid_pages,
                       uint32_t dead_pages, SimTime last_write_time,
                       bool candidate) {
  Node& node = nodes_[sector];
  if (node.present) {
    if (candidate && node.valid == valid_pages && node.dead == dead_pages &&
        node.last_write == last_write_time) {
      return;  // Already indexed under the right keys.
    }
    Remove(sector);
  }
  if (candidate) {
    Insert(sector, valid_pages, dead_pages, last_write_time);
  }
}

int64_t VictimIndex::Pick(SimTime now) const {
  if (policy_ == CleanerPolicy::kGreedy) {
    // The scan kept the first sector with the strictly highest dead count:
    // highest non-empty bucket, lowest index within it.
    for (uint32_t dead = pages_per_sector_; dead >= 1; --dead) {
      if (by_dead_[dead].live == 0) {
        continue;
      }
      const IndexEntry* top = PruneIndexTop(dead);
      assert(top != nullptr);
      return static_cast<int64_t>(top->sector);
    }
    return -1;
  }

  // Cost-benefit: one representative per valid-count bucket, scored with the
  // scan's exact arithmetic; ties across buckets resolve to the lowest
  // sector index, as the ascending-index scan did.
  int64_t best = -1;
  double best_score = -1;
  for (uint32_t valid = 0; valid < pages_per_sector_; ++valid) {
    if (by_valid_age_[valid].live == 0) {
      continue;
    }
    const AgeEntry* oldest_entry = PruneAgeTop(valid);
    assert(oldest_entry != nullptr);
    const SimTime oldest = oldest_entry->last_write;
    uint64_t candidate;
    SimTime t;
    if (now - oldest <= 1) {
      // Even the oldest candidate's age clamps to max(1, now - t) == 1, so
      // every sector in this bucket scores identically and the scan would
      // keep the lowest index.
      candidate = PruneIndexTop(valid)->sector;
      t = nodes_[candidate].last_write;
    } else {
      // Scores are monotone in age within the bucket, so the oldest wins;
      // the (last_write, sector) heap order already breaks exact-age ties by
      // index.
      candidate = oldest_entry->sector;
      t = oldest;
    }
    const double u = static_cast<double>(valid) /
                     static_cast<double>(pages_per_sector_);
    const double age =
        static_cast<double>(std::max<SimTime>(1, now - t));
    const double score = age * (1.0 - u) / (1.0 + u);
    if (score > best_score ||
        (score == best_score && static_cast<int64_t>(candidate) < best)) {
      best_score = score;
      best = static_cast<int64_t>(candidate);
    }
  }
  return best;
}

// --- ColdSectorIndex ------------------------------------------------------

void ColdSectorIndex::Sync(uint64_t sector, SimTime last_write_time,
                           bool eligible) {
  Node& node = nodes_[sector];
  if (node.present) {
    if (eligible && node.last_write == last_write_time) {
      return;
    }
    by_age_.erase({node.last_write, sector});
    node.present = false;
  }
  if (eligible) {
    by_age_.emplace(last_write_time, sector);
    node.last_write = last_write_time;
    node.present = true;
  }
}

int64_t ColdSectorIndex::PickOlderThan(SimTime now, Duration min_age) const {
  if (by_age_.empty()) {
    return -1;
  }
  const auto& [oldest, sector] = *by_age_.begin();
  if (now - oldest < min_age) {
    return -1;
  }
  return static_cast<int64_t>(sector);
}

// --- WearIndex ------------------------------------------------------------

void WearIndex::Seed(uint64_t sector, uint64_t erase_count) {
  Node& node = nodes_[sector];
  assert(!node.tracked);
  node.count = erase_count;
  node.tracked = true;
  counts_.insert(erase_count);
}

void WearIndex::OnEraseCountChanged(uint64_t sector, uint64_t new_count,
                                    bool now_bad) {
  Node& node = nodes_[sector];
  if (node.tracked) {
    counts_.erase(counts_.find(node.count));
    node.tracked = false;
  }
  if (!now_bad) {
    counts_.insert(new_count);
    node.count = new_count;
    node.tracked = true;
  }
  if (node.occupied) {
    // Keep the occupied key fresh (a retiring sector leaves outright; the
    // follow-up SyncOccupied(false) then finds it already gone).
    occupied_.erase({node.occupied_key, sector});
    node.occupied = false;
    if (!now_bad) {
      occupied_.emplace(new_count, sector);
      node.occupied_key = new_count;
      node.occupied = true;
    }
  }
}

void WearIndex::SyncOccupied(uint64_t sector, uint64_t erase_count,
                             bool occupied) {
  Node& node = nodes_[sector];
  if (node.occupied) {
    if (occupied && node.occupied_key == erase_count) {
      return;
    }
    occupied_.erase({node.occupied_key, sector});
    node.occupied = false;
  }
  if (occupied) {
    occupied_.emplace(erase_count, sector);
    node.occupied_key = erase_count;
    node.occupied = true;
  }
}

int64_t WearIndex::ColdestOccupied() const {
  if (occupied_.empty()) {
    return -1;
  }
  return static_cast<int64_t>(occupied_.begin()->second);
}

}  // namespace ssmc
