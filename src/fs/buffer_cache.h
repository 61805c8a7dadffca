// Buffer cache for the conventional disk file system.
//
// Exactly the structure the paper says a memory-resident file system makes
// unnecessary: an LRU cache of disk blocks in (volatile) DRAM that exists to
// hide disk latency. Write-back: dirty blocks are written to disk on
// eviction or on Sync(). Cache block size is a multiple of the disk sector
// size (classically 4 KiB on 512 B sectors).

#ifndef SSMC_SRC_FS_BUFFER_CACHE_H_
#define SSMC_SRC_FS_BUFFER_CACHE_H_

#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/device/disk_device.h"
#include "src/sim/stats.h"
#include "src/support/extent.h"
#include "src/support/status.h"

namespace ssmc {

class BufferCache {
 public:
  // capacity_blocks of block_bytes each; block_bytes must be a multiple of
  // the disk's sector size.
  BufferCache(DiskDevice& disk, uint64_t block_bytes,
              uint64_t capacity_blocks);

  uint64_t block_bytes() const { return block_bytes_; }
  uint64_t capacity_blocks() const { return capacity_blocks_; }
  uint64_t num_blocks() const { return disk_.capacity_bytes() / block_bytes_; }
  uint64_t cached_blocks() const { return entries_.size(); }

  // Reads a whole cache block (through the cache).
  Status Read(uint64_t block, std::span<uint8_t> out);

  // Writes a whole cache block (dirty in cache; disk write deferred).
  Status Write(uint64_t block, std::span<const uint8_t> data);

  // Partial update within one block: read-modify-write through the cache.
  Status WritePartial(uint64_t block, uint64_t offset,
                      std::span<const uint8_t> data);

  // Writes all dirty blocks back to disk.
  Status Sync();

  // Writes one block back immediately if dirty (synchronous-metadata
  // policy of classical UNIX file systems).
  Status FlushBlock(uint64_t block);

  // Drops a block without writeback (its file was freed).
  void Invalidate(uint64_t block);

  // Writes back everything dirty, then empties the cache (cold-start
  // simulation for launch-latency experiments).
  Status DropAll();

  struct Stats {
    Counter hits;
    Counter misses;
    Counter writebacks;       // Dirty blocks written to disk.
    Counter writeback_bytes;
    Counter read_bytes;       // Bytes served to callers.
  };
  const Stats& stats() const { return stats_; }

 private:
  // Block payloads are slab-pooled extents: eviction/refill churn recycles
  // fixed buffers instead of reallocating a vector per miss.
  struct Entry {
    PayloadRef data;
    bool dirty = false;
    std::list<uint64_t>::iterator lru_it;
  };

  // Returns the cache entry for `block`, faulting it in from disk if needed
  // (fill=false skips the disk read for full overwrites).
  Result<Entry*> GetEntry(uint64_t block, bool fill);
  Status EvictOne();
  Status WriteBack(uint64_t block, Entry& entry);

  uint64_t SectorOfBlock(uint64_t block) const {
    return block * (block_bytes_ / disk_.sector_bytes());
  }

  DiskDevice& disk_;
  uint64_t block_bytes_;
  uint64_t capacity_blocks_;
  ExtentPool pool_;
  // Iterated only by Sync, which sorts the block numbers first.
  std::unordered_map<uint64_t, Entry> entries_;
  std::list<uint64_t> lru_;  // Front = least recently used.
  Stats stats_;
};

}  // namespace ssmc

#endif  // SSMC_SRC_FS_BUFFER_CACHE_H_
