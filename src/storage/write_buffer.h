// DRAM write buffer (paper Section 3.3).
//
// "The storage manager ... can buffer written data in DRAM before eventually
// flushing it to flash memory. This technique can keep the rate of writes
// into flash memory manageably low because a large percentage of write
// operations are to short-lived files or to file blocks that are soon
// overwritten." The buffer holds only dirty blocks (a clean-data file cache
// is pointless when all storage reads at memory speed — Section 3.1), backed
// by DRAM pages from the StorageManager. Because mobile DRAM is battery
// backed, buffered data is stable against ordinary power-off; only total
// battery failure loses it (experiment E10).
//
// The buffer keeps no table of its own. A dirty block is a slot of the
// residency manager's BlockStateTable (block_state.h) with where == kDirty,
// linked on the buffer's intrusive LRU; the caller names blocks by slot
// (acquired from the table with the block's key), and the slot carries the
// DRAM page, the first-dirtied time and the billing tenant.
//
// Eviction and flushing, all in LRU (first-dirtied) order:
//  * capacity eviction: when full, the least-recently-written dirty block is
//    flushed to flash and dropped, and its DRAM page goes straight to the
//    incoming block (no free-then-allocate round trip through the pool; a
//    failed flush leaves the victim dirty on its page);
//  * age flush: FlushOlderThan(age) writes back blocks dirty longer than a
//    threshold (the classical 30-second sync policy), invoked periodically
//    by the machine's flush daemon;
//  * sync: FlushAll drains everything, oldest first, so the flash layout a
//    sync leaves depends only on the write sequence;
//  * write avoidance: Drop(slot) discards a dirty block whose file was
//    deleted or truncated — that write never reaches flash, which is where
//    the 40-50% traffic reduction comes from.
// A slot that leaves the buffer holding no other state (no cached copy, no
// heat) goes back to the table's pool.
//
// Flushed blocks reach the flash store as flush-class I/O requests
// (IoPriority::kFlush — see src/sim/io_request.h): below foreground reads,
// above cleaner traffic when the machine opts into priority scheduling.

#ifndef SSMC_SRC_STORAGE_WRITE_BUFFER_H_
#define SSMC_SRC_STORAGE_WRITE_BUFFER_H_

#include <cstdint>
#include <functional>
#include <span>

#include "src/obs/stats_mirror.h"
#include "src/sim/io_stats.h"
#include "src/sim/stats.h"
#include "src/storage/block_state.h"
#include "src/storage/storage_manager.h"
#include "src/support/status.h"

namespace ssmc {

class Obs;

class WriteBuffer {
 public:
  // Destination for flushed blocks; supplied by the file system, which knows
  // the flash placement of each file block. The block travels as a payload
  // ref: a flush that lands in the flash store programs the very extent the
  // buffer holds (refcount bump), never copying the bytes. The tenant is
  // whoever last dirtied the block — the flush daemon drains on everyone's
  // behalf, but the flash program is billed to the writer.
  using FlushFn =
      std::function<Status(const BlockKey&, const PayloadRef&, TenantId)>;

  // capacity_pages = 0 disables buffering entirely: every Put flushes
  // straight through (the "no NVRAM buffer" baseline of experiment E6).
  WriteBuffer(StorageManager& storage, uint64_t capacity_pages,
              FlushFn flush_fn);
  ~WriteBuffer();

  WriteBuffer(const WriteBuffer&) = delete;
  WriteBuffer& operator=(const WriteBuffer&) = delete;

  uint64_t capacity_pages() const { return capacity_pages_; }
  uint64_t dirty_pages() const { return lru_.size; }
  // The dirty slots, first dirtied first (the residency audit walks it).
  const SlotList& lru() const { return lru_; }
  uint64_t page_bytes() const { return storage_.page_bytes(); }

  // Stores a whole dirty block in `slot` (acquired by the caller; it must
  // not be clean-cached). data.size() must equal page_bytes(). Overwriting
  // an already-buffered block is absorbed in DRAM (and re-bills the block
  // to the overwriting tenant: the last writer owns the flush). On failure
  // the slot is released if it holds nothing else.
  Status Put(SlotId slot, std::span<const uint8_t> data, SimTime now,
             TenantId tenant = kDefaultTenant);

  // Reads a buffered block; NOT_FOUND if not buffered.
  Status Get(SlotId slot, std::span<uint8_t> out);

  bool Contains(SlotId slot) const {
    return slot != kNoSlot && blocks_[slot].where == Residency::kDirty;
  }

  // Discards a dirty block without flushing (file deleted / truncated).
  // Returns true if the block was buffered.
  bool Drop(SlotId slot);

  // Flushes one specific block if buffered.
  Status Flush(SlotId slot);

  // Flushes every block dirty since before (now - max_age).
  Status FlushOlderThan(SimTime now, Duration max_age);

  // Flushes everything (sync / orderly shutdown).
  Status FlushAll();

  // Simulates sudden loss of the buffer (total battery failure): drops all
  // blocks and returns the number of dirty bytes that were lost.
  uint64_t DropAllUnflushed();

  struct Stats {
    Counter puts;               // Blocks written into the buffer.
    Counter put_bytes;
    Counter absorbed_overwrites;  // Puts that hit an already-dirty block.
    Counter flushes;            // Blocks written back to flash.
    Counter flushed_bytes;
    Counter capacity_evictions; // Flushes forced by a full buffer.
    Counter dropped_writes;     // Dirty blocks discarded before flush.
    Counter dropped_bytes;
    // Per-tenant buffering: `writes`/`written_bytes` count the tenant's
    // puts (what it pushed into shared DRAM); other fields stay zero — the
    // flush side is attributed downstream by the flash store and device.
    TenantIoTable by_tenant;
  };
  const Stats& stats() const { return stats_; }

  // Observability (nullable; null detaches): a "write buffer" trace track
  // with spans per age-flush / sync batch, instants for capacity evictions,
  // write-avoidance drops and buffer loss, and a Stats mirror collector
  // (dirty pages as a gauge).
  void AttachObs(Obs* obs);

 private:
  // Flushes one dirty slot and takes it off the LRU. The slot's bytes live
  // in the storage manager's page-payload table, keyed by its DRAM page —
  // the page allocation is the DRAM budget token, the payload extent is
  // the content. The page is freed, or, given `kept_page`, emptied and
  // stored there for the caller to fill (capacity eviction).
  Status FlushEntry(SlotId slot, uint32_t* kept_page = nullptr);
  // Takes a dirty slot off the LRU and frees its page (and the slot, when
  // it holds nothing else).
  void Remove(SlotId slot);
  // Remove without freeing the page.
  void Detach(SlotId slot);
  // Frees every dirty page, first dirtied first.
  void RemoveAll();

  StorageManager& storage_;
  uint64_t capacity_pages_;
  FlushFn flush_fn_;
  ResidencyManager& residency_;
  BlockStateTable& blocks_;
  SlotList lru_;  // Head = first dirtied.
  Stats stats_;
  Obs* obs_ = nullptr;
  int obs_track_ = 0;
  StatsMirror mirror_{"wbuf"};  // Last: its destructor runs the collector.
};

}  // namespace ssmc

#endif  // SSMC_SRC_STORAGE_WRITE_BUFFER_H_
