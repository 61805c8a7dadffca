// The physical storage manager (paper Section 3.3).
//
// Owns the partitioning of physical resources between the file system and
// the virtual memory system: it maintains "a list of free flash memory
// sectors and a list of free DRAM pages, allocating them to the file and
// virtual memory systems as needed." Concretely it provides:
//  * one page API over the byte-addressable tiers (PageTier: DRAM and the
//    optional NVM of Section 5), each taking the tier as a parameter;
//  * a logical flash-block allocator over the FlashStore;
//  * metadata-access accounting (memory-resident structures cost DRAM time);
//  * the shared WriteBuffer (write_buffer.h) is built on these allocators.
//
// Flash traffic issued on behalf of these services is classed (see
// src/sim/io_request.h): user I/O runs foreground, write-buffer flushes run
// flush-class, and the store's own cleaning runs cleaner-class, so the
// device scheduler can keep reads fast while background work drains.

#ifndef SSMC_SRC_STORAGE_STORAGE_MANAGER_H_
#define SSMC_SRC_STORAGE_STORAGE_MANAGER_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/device/dram_device.h"
#include "src/device/nvm_device.h"
#include "src/ftl/flash_store.h"
#include "src/obs/stats_mirror.h"
#include "src/storage/residency.h"
#include "src/support/extent.h"
#include "src/support/status.h"

namespace ssmc {

class Obs;

// The byte-addressable page tiers. Pages of either are allocated and hold
// their contents the same way; the tier decides only how an access is
// charged: DramDevice::ChargeAccess, or the NvmDevice's bank scheduler.
enum class PageTier : uint8_t { kDram = 0, kNvm = 1 };

class StorageManager {
 public:
  // page_bytes is the unit of page allocation; it must equal the flash
  // store's block size so buffered blocks flush 1:1. `residency` selects
  // the tier migration policy (residency.h); the default kWriteBufferOnly
  // is byte-identical to the pre-residency simulator. `nvm` adds the
  // byte-addressable NVM tier between DRAM and flash; null (the default)
  // keeps the two-tier hierarchy bit-for-bit.
  StorageManager(DramDevice& dram, FlashStore& flash_store,
                 uint64_t page_bytes, ResidencyOptions residency = {},
                 NvmDevice* nvm = nullptr);

  uint64_t page_bytes() const { return page_bytes_; }
  DramDevice& dram() { return dram_; }
  FlashStore& flash_store() { return flash_store_; }
  // The single authority on DRAM<->flash placement and migration. Consumers
  // that want migration pressure applied on allocation failure go through
  // residency().AllocateDramPage(...) rather than the raw allocator below.
  ResidencyManager& residency() { return *residency_; }
  const ResidencyManager& residency() const { return *residency_; }

  // --- Page allocation (either tier) --------------------------------------
  uint64_t total_pages(PageTier tier) const {
    return pages(tier).pool.capacity();
  }
  uint64_t free_pages(PageTier tier) const { return pages(tier).pool.free(); }
  // Returns the page index; the page's device address is PageAddress(page).
  // RESOURCE_EXHAUSTED when the tier is dry (a typed out-of-memory: callers
  // distinguish it from media-level kNoSpace).
  Result<uint64_t> AllocatePage(PageTier tier);
  Status FreePage(PageTier tier, uint64_t page) {
    TierPages& t = pages(tier);
    if (page >= t.pool.capacity() || !t.pool.used(page)) {
      return FreePageError(page, t.pool.capacity());
    }
    t.pool.Put(page);
    t.payloads[page].Reset();
    return Status::Ok();
  }
  bool IsPageUsed(PageTier tier, uint64_t page) const {
    return pages(tier).pool.used(page);
  }
  uint64_t PageAddress(uint64_t page) const { return page * page_bytes_; }

  // --- Flash logical-block allocation -------------------------------------
  uint64_t total_flash_blocks() const { return flash_store_.num_blocks(); }
  uint64_t free_flash_blocks() const { return flash_blocks_.free(); }
  Result<uint64_t> AllocateFlashBlock();
  // Frees the block and trims its contents from the store.
  Status FreeFlashBlock(uint64_t block);
  // Claims a specific block (fixed superblock locations). Fails if taken.
  Status ReserveFlashBlock(uint64_t block);
  bool IsFlashBlockUsed(uint64_t block) const {
    return flash_blocks_.used(block);
  }

  // Observability (nullable; null detaches): free-pool gauges pulled at
  // snapshot time.
  void AttachObs(Obs* obs);

  // --- Page payloads ------------------------------------------------------
  // Every allocated page carries its contents as a refcounted payload
  // extent; this table is the only copy of the bytes (the devices hold
  // none). Aliased pages (a flushed block that also sits programmed in
  // flash, a promoted clean copy, an anonymous zero page) share one extent,
  // and writes to shared extents copy-on-write.
  // The pool is the flash store's: refs flow between pages and flash
  // sectors without ever copying payload bytes.
  ExtentPool& extent_pool() { return flash_store_.extent_pool(); }

  // These charge the access to `tier`; `issue` schedules an NVM access on
  // the device's bank queues, and DRAM ignores it. There is no default
  // `issue`: an NVM caller states its priority class.
  // Reads within one page's payload. offset + size must stay inside the
  // page; reads of never-written pages are zero fill.
  Duration ReadPagePayload(PageTier tier, uint64_t page, uint64_t offset,
                           std::span<uint8_t> out, IoIssue issue);
  // Installs a whole-page payload by reference (zero-copy promotion, fill or
  // migration); charges one full-page write. payload.size() must equal
  // page_bytes.
  Duration InstallPagePayload(PageTier tier, uint64_t page, PayloadRef payload,
                              IoIssue issue);
  // Borrows the page's payload as a ref (refcount bump), charging one
  // full-page read — the flush and migration paths' "read the page" step. A
  // never-written page materializes as the shared zero extent.
  PayloadRef ReadPagePayloadRef(PageTier tier, uint64_t page,
                                IoIssue issue);

  // DRAM only (other tiers fill by whole-page installs): writes within one
  // page's payload; offset + size must stay inside the page.
  Duration WritePagePayload(uint64_t page, uint64_t offset,
                            std::span<const uint8_t> data);
  // Zero-fills a DRAM page: charges a full-page write and aliases the shared
  // all-zeros extent (every anonymous VM page starts as one refcount bump).
  Duration ZeroFillPagePayload(uint64_t page);
  // Forgets a DRAM page's contents, free of charge, leaving it allocated:
  // the next write fills a fresh extent rather than copy-on-write the old
  // one (a page handed from a flushed block to the next).
  void DropPagePayload(uint64_t page);
  // Battery failure: volatile contents are gone (the machine records the
  // loss with DramDevice::ForceContentLoss) — subsequent reads see zero
  // fill. NVM page payloads are left intact: the tier is non-volatile.
  void DropAllPagePayloads();

  // --- Metadata accounting ------------------------------------------------
  // Memory-resident metadata (directories, inodes, page tables) lives in
  // DRAM; operations on it cost DRAM access time.
  void ChargeMetadataRead(uint64_t bytes) {
    dram_.ChargeAccess(bytes, /*is_write=*/false);
  }
  void ChargeMetadataWrite(uint64_t bytes) {
    dram_.ChargeAccess(bytes, /*is_write=*/true);
  }

 private:
  // One allocator pool over the indices [0, capacity). It hands indices out
  // in exactly the order of a stack pre-filled with every index, lowest on
  // top: recycled indices first, most recently freed first, then the lowest
  // index never handed out. Only the recycled part is materialized; the
  // never-used part is an ascending cursor that skips indices claimed out of
  // order (Claim). The used-bitmap grows to the highest index handed out or
  // claimed, so building a pool costs nothing per index, and Claim scans
  // only the recycled stack. The cursor only moves while the recycled stack
  // is empty, when every index handed out before is in use, so skipping
  // in-use indices skips exactly those.
  class IndexPool {
   public:
    explicit IndexPool(uint64_t capacity)
        : capacity_(capacity), free_(capacity) {}

    uint64_t capacity() const { return capacity_; }
    uint64_t free() const { return free_; }
    bool used(uint64_t i) const { return i < used_.size() && used_[i]; }
    // Every index Take() has handed out is below this.
    uint64_t high_water() const { return cursor_; }
    // Returns the next index; the pool must not be empty.
    uint64_t Take();
    // Returns a used index to the pool.
    void Put(uint64_t i) {
      assert(used(i));
      used_[i] = false;
      // The stack never holds more than the indices handed out so far;
      // growing to that at once lets a run of frees (a file system's
      // teardown) allocate once rather than double its way up.
      if (recycled_.size() == recycled_.capacity()) {
        recycled_.reserve(cursor_);
      }
      recycled_.push_back(i);
      free_ += 1;
    }
    // Takes a specific unused index out of the pool.
    void Claim(uint64_t i);

   private:
    // Marks `i` used, growing the bitmap to cover it.
    void MarkUsed(uint64_t i);

    uint64_t capacity_;
    std::vector<bool> used_;  // Indices past its end are unused.
    std::vector<uint64_t> recycled_;  // LIFO; back() is the next Take().
    uint64_t cursor_ = 0;             // Lowest index never handed out.
    uint64_t free_;
  };

  // One page tier's allocator and contents.
  struct TierPages {
    IndexPool pool;
    // Indexed by page; grows with pool.high_water(), since only pages
    // handed out so far can hold a payload.
    std::vector<PayloadRef> payloads;
  };
  TierPages& pages(PageTier tier) {
    return tiers_[static_cast<size_t>(tier)];
  }
  const TierPages& pages(PageTier tier) const {
    return tiers_[static_cast<size_t>(tier)];
  }
  // FreePage's error: `page` is out of range or not in use.
  static Status FreePageError(uint64_t page, uint64_t capacity);
  // Charges a `bytes`-long access at `offset` into `page` to `tier`.
  Duration Charge(PageTier tier, uint64_t page, uint64_t offset,
                  uint64_t bytes, bool is_write, IoIssue issue);
  // The shared all-zeros extent, built on first use.
  const PayloadRef& ZeroExtent();

  DramDevice& dram_;
  FlashStore& flash_store_;
  NvmDevice* nvm_;
  uint64_t page_bytes_;
  // Indexed by PageTier. Declared before residency_: its destructor returns
  // the cache tiers' pages here, so the pools must still be alive.
  std::array<TierPages, 2> tiers_;
  IndexPool flash_blocks_;
  PayloadRef zero_extent_;  // Lazily built, shared by aliasing.
  std::unique_ptr<ResidencyManager> residency_;
  StatsMirror mirror_{"storage"};  // Last: its destructor runs the collector.
};

}  // namespace ssmc

#endif  // SSMC_SRC_STORAGE_STORAGE_MANAGER_H_
