// Log-structured flash store (flash translation layer).
//
// Implements the storage-manager techniques of Section 3.3: writes go to
// flash out-of-place, a garbage collector reclaims sectors "like those used
// in log-structured file systems", and wear leveling "evenly balance[s] the
// write load throughout flash memory". The store exposes a flat array of
// fixed-size logical blocks; callers (the storage manager / file systems)
// never see erase sectors or physical placement.
//
// Structure: the flash device's erase sectors are divided into pages of
// block_bytes each. A logical block maps to one valid physical page. Writes
// append to per-bank active sectors (keeping every bank usable so reads can
// proceed during slow programs/erases — the paper's bank partitioning).
// Overwriting a block marks the old page dead; the cleaner relocates the
// valid pages of a victim sector and erases it.
//
// Cleaning policies:
//  * kGreedy      — victim with the most dead pages (cheapest to clean now);
//  * kCostBenefit — LFS cost-benefit: maximize age*(1-u)/(1+u), which prefers
//                   older, emptier sectors and avoids repeatedly cleaning
//                   hot sectors.
// Wear-leveling policies:
//  * kNone    — free sectors reused FIFO, no attention to wear;
//  * kDynamic — allocation picks the free sector with the fewest erases;
//  * kStatic  — kDynamic plus periodic cold-data migration: when the erase-
//               count spread exceeds a threshold, the coldest data is moved
//               so its low-wear sector rejoins circulation.

#ifndef SSMC_SRC_FTL_FLASH_STORE_H_
#define SSMC_SRC_FTL_FLASH_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/device/flash_device.h"
#include "src/ftl/victim_index.h"
#include "src/obs/stats_mirror.h"
#include "src/sim/io_stats.h"
#include "src/sim/stats.h"
#include "src/support/first_touch_table.h"
#include "src/support/status.h"
#include "src/support/units.h"

namespace ssmc {

class Obs;

struct FlashStoreOptions {
  uint64_t block_bytes = 512;
  CleanerPolicy cleaner = CleanerPolicy::kCostBenefit;
  WearPolicy wear = WearPolicy::kDynamic;
  // Fraction of sectors withheld from the logical capacity so cleaning
  // always has room to relocate into. At least 2 sectors are reserved.
  double overprovision = 0.10;
  // Static wear leveling: check every N erases; migrate cold data when
  // (max - min) erase count exceeds the delta.
  uint64_t static_wear_check_interval = 64;
  uint64_t static_wear_delta = 32;
  // When true, background (non-blocking) writes and cleaning do not advance
  // the caller's clock; the flash banks absorb the time. The storage
  // manager's flush path uses this.
  bool background_writes = false;
  // Bank segregation (Section 3.3): "One bank would hold read-mostly data,
  // such as application programs, while others would be used for data that
  // is more frequently written." When > 0, incoming user writes append only
  // to the first `hot_bank_count` banks, while cleaner relocations (data
  // that survived a sector's lifetime, i.e. read-mostly) append to the
  // remaining banks. Reads of cold data then never stall behind programs or
  // erases. 0 = round-robin across all banks.
  int hot_bank_count = 0;
  // A fully-valid sector in a hot bank is only distilled out to the cold
  // banks once it has gone unwritten this long (avoids ping-ponging data
  // that is merely between overwrites).
  Duration cold_eviction_age = 60 * kSecond;
};

// Which append stream a page allocation serves (see hot_bank_count).
enum class WriteStream { kUser, kRelocation };

// Snapshot of one sector's metadata, exposed for policy testing and the wear
// benches. The store itself keeps this state in struct-of-arrays columns
// (see FlashStore); this assembled form is the interchange type for the
// linear-scan references and tests.
struct SectorMeta {
  uint32_t valid_pages = 0;
  uint32_t dead_pages = 0;
  uint32_t next_free_page = 0;   // Write pointer within the sector.
  SimTime last_write_time = 0;   // For cost-benefit aging.
  bool active = false;           // Currently the append target of a bank.
  bool free = false;             // Erased and in the free pool.
  bool bad = false;              // Worn out.
};

// Pure linear-scan victim selection, exercised directly by unit tests and
// retained as the reference for the indexed fast path (see victim_index.h).
// Returns the victim sector index or -1 if no cleanable sector exists. Only
// sectors that are neither active, free, nor bad, and that contain at least
// one dead page, are candidates.
int64_t PickCleaningVictim(const std::vector<SectorMeta>& sectors,
                           uint32_t pages_per_sector, CleanerPolicy policy,
                           SimTime now);

// Linear-scan references for the remaining indexed decisions. Each
// reproduces the pre-index implementation verbatim; the indexed store must
// agree with them bit-for-bit (audited by FlashStore::CheckIndexConsistency,
// which the property suites call after every operation).

// Free-sector choice over `pool` — (sector, erase_count) pairs in insertion
// order: last entry under the naive LIFO policy (wear_ordered = false), else
// the first entry with the strictly smallest erase count.
int64_t ScanPickFreeSector(
    const std::vector<std::pair<uint64_t, uint64_t>>& pool, bool wear_ordered);

// Oldest fully-valid, inactive, aged-out sector among the first
// `hot_sector_count` sectors, or -1.
int64_t ScanPickColdEvictionVictim(const std::vector<SectorMeta>& sectors,
                                   uint64_t hot_sector_count, SimTime now,
                                   Duration min_age);

// Wear spread and coldest occupied sector over all non-retired sectors.
struct WearScanResult {
  uint64_t min_erases = ~uint64_t{0};
  uint64_t max_erases = 0;
  int64_t coldest = -1;
};
WearScanResult ScanWearLevelState(const std::vector<SectorMeta>& sectors,
                                  const FlashDevice& flash);

class FlashStore {
 public:
  FlashStore(FlashDevice& flash, FlashStoreOptions options);
  ~FlashStore();

  FlashStore(const FlashStore&) = delete;
  FlashStore& operator=(const FlashStore&) = delete;

  uint64_t block_bytes() const { return options_.block_bytes; }
  // Number of logical blocks the store exposes (physical minus reserve).
  uint64_t num_blocks() const { return num_logical_blocks_; }
  uint64_t capacity_bytes() const { return num_blocks() * block_bytes(); }
  const FlashStoreOptions& options() const { return options_; }
  FlashDevice& device() { return flash_; }

  // Reads a logical block. Fails NOT_FOUND if the block was never written
  // (or was trimmed).
  Result<Duration> Read(uint64_t block, std::span<uint8_t> out);
  // As above with an explicit issue mode: the residency manager's promotion
  // reads run cleaner-class and non-blocking (the bank absorbs the time;
  // the caller's clock does not advance).
  Result<Duration> Read(uint64_t block, std::span<uint8_t> out,
                        IoIssue issue);

  // Byte-granular read within a block — flash is byte-addressable and
  // direct-mapped, so a partial read costs only the touched bytes (unlike a
  // disk, which always transfers whole sectors). offset + out.size() must
  // stay within the block. The issue carries the scheduling class, blocking
  // mode, and billing tenant (defaults to a blocking foreground read by the
  // default tenant, the pre-tenancy behavior).
  Result<Duration> ReadPartial(uint64_t block, uint64_t offset,
                               std::span<uint8_t> out, IoIssue issue = {});

  // Zero-copy block read: returns a shared ref to the block's stored payload
  // (a refcount bump for store-written blocks — no bytes move). Device
  // timing, energy, and stats are identical to Read. The residency manager's
  // clean-cache promotion and the write path of DRAM consumers use this.
  Result<PayloadRef> ReadRef(uint64_t block, IoIssue issue = {});

  // Writes a logical block (out of place). data.size() must equal
  // block_bytes. May trigger cleaning. Honors options_.background_writes.
  Result<Duration> Write(uint64_t block, std::span<const uint8_t> data);

  // Write with an explicit placement hint: callers that know the data is
  // read-mostly (program installation, archive storage) pass
  // WriteStream::kRelocation so it lands in the cold banks directly —
  // "file systems would be spread across flash memory banks appropriately"
  // (Section 3.3). Equivalent to Write() when segregation is off.
  Result<Duration> Write(uint64_t block, std::span<const uint8_t> data,
                         WriteStream hint);

  // Write with an explicit scheduling class (the storage manager's flush
  // path passes IoPriority::kFlush) and billing tenant. Whether the write
  // blocks the caller is still governed by options_.background_writes; the
  // class only affects dispatch order under IoSchedPolicy::kPriority, and
  // attribution always.
  Result<Duration> Write(uint64_t block, std::span<const uint8_t> data,
                         WriteStream hint, IoPriority priority,
                         TenantId tenant = kDefaultTenant);

  // Zero-copy block write: the store becomes a holder of the ref and
  // programs it without copying (the write-buffer flush path hands its entry
  // straight down). data.size() must equal block_bytes.
  Result<Duration> WriteRef(uint64_t block, PayloadRef data, WriteStream hint,
                            IoPriority priority,
                            TenantId tenant = kDefaultTenant);

  // The store's page-sized payload pool. Upper layers (write buffer, clean
  // cache, FS staging) draw from it so their blocks flow to/from flash as
  // refcount bumps.
  ExtentPool& extent_pool() { return extent_pool_; }

  // Drops a logical block's contents (marks its page dead).
  Status Trim(uint64_t block);

  bool IsMapped(uint64_t block) const { return MappedPage(block) != kUnmapped; }

  // Physical flash address currently holding the block (for execute-in-place
  // mappings). Fails if unmapped. NOTE: cleaning relocates blocks, so XIP
  // users re-resolve through the VM layer on each fault.
  Result<uint64_t> PhysicalAddressOf(uint64_t block) const;

  // Runs cleaning until the free pool exceeds the low-water mark (used by
  // tests and the idle-cleaning path of the storage manager).
  Status Clean();

  struct Stats {
    Counter user_writes;        // Blocks written by callers.
    Counter user_reads;
    Counter gc_relocations;     // Valid pages moved by the cleaner.
    Counter gc_runs;            // Victim sectors cleaned.
    Counter erases;             // Successful sector erases.
    Counter wear_migrations;    // Sectors migrated by static leveling.
    Counter wear_level_failures;  // Static-leveling migrations that failed.
    Counter trims;
    // Per-tenant ops/bytes; relocations are billed to the tenant whose data
    // the cleaner moved (the page_tenant_ column remembers who programmed
    // each live page), not to whoever triggered the cleaning pass.
    TenantIoTable by_tenant;
  };
  const Stats& stats() const { return stats_; }

  // Total pages programmed / user pages written; 1.0 means no cleaning
  // overhead. The canonical flash write-amplification metric.
  double WriteAmplification() const;
  // The same ratio restricted to one tenant's writes and the relocations of
  // that tenant's data (its share of the cleaning bill).
  double TenantWriteAmplification(TenantId tenant) const;

  uint64_t free_sectors() const { return free_sector_count_; }
  // A snapshot, not a reference into state. A sector the store never opened
  // is free and empty, like every sector of a new store.
  SectorMeta sector_meta(uint64_t s) const {
    const SectorHot* found = hot_.Find(s);
    const SectorHot h = found != nullptr ? *found : SectorHot{};
    SectorMeta m;
    m.valid_pages = h.valid_pages;
    m.dead_pages = h.dead_pages;
    m.next_free_page = h.next_free_page;
    m.last_write_time = h.last_write_time;
    m.active = (h.flags & kActiveFlag) != 0;
    m.free = (h.flags & kFreeFlag) != 0;
    m.bad = (h.flags & kBadFlag) != 0;
    return m;
  }

  // sector_meta of every sector, for the linear-scan references
  // (CheckIndexConsistency) and tests — O(sectors).
  std::vector<SectorMeta> SnapshotSectors() const;

  // Observability (nullable; null detaches): a "flash cleaner" trace track
  // with one span per cleaner pass / cold eviction / wear-level migration
  // plus wear-out instants, and a Stats mirror collector (free sectors and
  // write amplification as gauges). Does not touch the device's own obs —
  // attach that separately.
  void AttachObs(Obs* obs);

  // Exhaustive audit (settles pending index updates first, like every other
  // index query): every index's membership and size must match a fresh
  // scan of the sector metadata, and each indexed pick at the current time —
  // cleaning victim, cold-eviction victim, each bank's next free sector, and
  // the wear min/max/coldest trackers — must equal its linear-scan reference
  // above. It also checks that the lazily grown maps agree: every owned page
  // of an opened sector is its block's mapping, each sector owns exactly its
  // valid pages, and no other block is mapped. O(pages + sectors log
  // sectors); tests only.
  Status CheckIndexConsistency();

 private:
  static constexpr uint64_t kUnmapped = ~uint64_t{0};

  uint32_t pages_per_sector() const { return pps_; }
  // The block's physical page, or kUnmapped. map_ only reaches the highest
  // block ever written; everything past it reads as unmapped.
  uint64_t MappedPage(uint64_t block) const {
    return block < map_.size() ? map_[block] : kUnmapped;
  }
  uint64_t PageAddress(uint64_t page) const {
    return page * options_.block_bytes;
  }
  uint64_t SectorOfPage(uint64_t page) const {
    // pages-per-sector is a power of two in every real geometry; the shift
    // keeps this hot helper off the 64-bit divider.
    return page_shift_ >= 0 ? page >> page_shift_ : page / pps_;
  }

  // Takes a sector from `bank`'s free pool per the wear policy; returns -1
  // if the pool is empty. A sector's first take is its first touch: it
  // builds the sector's metadata and victim-index node.
  int64_t TakeFreeSector(int bank);

  // Finds a page to append to in a bank serving `stream` (falling back to
  // any bank when that range is full). If allow_clean, may run the cleaner
  // when free space is low. Returns the physical page index or an error.
  Result<uint64_t> AllocatePage(WriteStream stream, bool allow_clean);

  // Writes `data` into a freshly allocated page and points `block` at it.
  // The issue selects the request's scheduling class and foreground vs
  // background device timing.
  Result<Duration> WriteInternal(uint64_t block, std::span<const uint8_t> data,
                                 WriteStream stream, bool allow_clean,
                                 IoIssue issue);

  // Ref-taking core of every write: allocates a page and files the extent
  // with the device (no payload copy). WriteInternal wraps it by converting
  // the span into a pooled extent (the data plane's single copy).
  Result<Duration> WriteInternalRef(uint64_t block, PayloadRef data,
                                    WriteStream stream, bool allow_clean,
                                    IoIssue issue);

  // How this store issues device requests for the paper's three streams,
  // given options_.background_writes: user/flush writes and cleaner traffic
  // block the caller only when background mode is off. Cleaner requests are
  // billed to the tenant owning the page being moved, never to the tenant
  // whose allocation happened to trigger the pass.
  IoIssue UserIssue(IoPriority priority,
                    TenantId tenant = kDefaultTenant) const {
    return IoIssue{priority, !options_.background_writes, tenant};
  }
  IoIssue CleanerIssue(TenantId owner = kDefaultTenant) const {
    return IoIssue{IoPriority::kCleaner, !options_.background_writes, owner};
  }

  void MarkPageDead(uint64_t page);

  // Cleans one victim sector; returns true if a sector was reclaimed.
  Result<bool> CleanOne();

  // Under bank segregation: relocates one fully-valid (no dead pages) sector
  // out of the hot banks into the cold stream and erases it. Such sectors
  // hold data that was written once and never overwritten — read-mostly data
  // squatting in the write banks that ordinary cleaning will never pick
  // (it has nothing dead to reclaim). Returns true if a sector was evicted.
  Result<bool> EvictColdSectorFromHotRange();

  // Erases a sector and returns it to the free pool (handles wear-out).
  Status EraseAndFree(uint64_t sector);

  // Static wear leveling check, run after every erase.
  void MaybeStaticWearLevel();

  // Marks `sector` for re-indexing: its membership in the victim,
  // cold-eviction, and wear indexes is brought in line with its metadata at
  // the next SettleIndexes(), not now. Must be called after any transition
  // of a sector's free/active/bad flags or page counts (except while the
  // sector is active — active sectors belong to no index). An overwrite
  // burst kills many pages in a few sectors between cleaner passes; marking
  // costs one flag test per page death, and each sector is re-indexed once,
  // under its final keys.
  void UpdateSectorIndexes(uint64_t sector);

  // Re-syncs every pending sector from its current metadata. Each index's
  // pick depends only on its member set and keys (ties go to the lowest
  // sector index; epochs screen out stale heap entries), so settling only
  // a sector's final state picks exactly what syncing every intermediate
  // step would have. Every index query calls this first: CleanOne,
  // EvictColdSectorFromHotRange, MaybeStaticWearLevel, and
  // CheckIndexConsistency.
  void SettleIndexes();

  // Background passes never advance the clock; the end of a pass in sim time
  // is when the last bank reservation it queued completes.
  SimTime BanksBusyUntil() const;
  // Records a cleaner-track span covering [t0, BanksBusyUntil()].
  void ObsCleanerSpan(const char* name, SimTime t0, uint64_t sector,
                      uint64_t relocated);

  FlashDevice& flash_;
  FlashStoreOptions options_;
  uint32_t pps_;        // sector_bytes / block_bytes, cached.
  int page_shift_ = -1; // log2(pps_) when it is a power of two.
  uint64_t num_logical_blocks_;

  // Per-sector state flag bits (SectorHot::flags).
  static constexpr uint8_t kActiveFlag = 1;  // Append target of a bank.
  static constexpr uint8_t kFreeFlag = 2;    // Erased, in the free pool.
  static constexpr uint8_t kBadFlag = 4;     // Worn out.
  static constexpr uint8_t kPendingFlag = 8;  // Listed in pending_.

  // The per-sector metadata: everything victim selection, index syncs, the
  // page allocator and the linear-scan references read, packed into 16
  // bytes so a random sector access touches one cache line. Default-built
  // means free and empty: the state of every sector of a new store.
  struct SectorHot {
    SimTime last_write_time = 0;
    uint16_t valid_pages = 0;
    uint16_t dead_pages = 0;
    uint16_t next_free_page = 0;  // Write pointer within the sector.
    uint8_t flags = kFreeFlag;
  };
  static_assert(sizeof(SectorHot) == 16);

  // Page-sized payload extents for the whole data plane (user writes,
  // cleaner relocation, upper-layer caches). Replaces the cleaner's
  // read-into-scratch-then-program copies: a relocation is now a refcount
  // bump plus a mapping update.
  ExtentPool extent_pool_;

  // The maps cost nothing until used: map_ grows to the highest block ever
  // written, and the page columns start uninitialized. TakeFreeSector resets
  // a sector's page_owner_ slice when it opens the sector, and every program
  // sets its page's tenant, so only pages of opened sectors are ever read
  // (page_tenant_ only for owned pages).
  std::vector<uint64_t> map_;  // logical block -> physical page.
  std::unique_ptr<uint64_t[]> page_owner_;   // physical page -> logical block.
  std::unique_ptr<TenantId[]> page_tenant_;  // physical page -> billing tenant.
  // Per-sector metadata of every sector the store has opened; any other
  // sector is free and empty (TakeFreeSector is the first touch).
  FirstTouchTable<SectorHot> hot_;
  std::vector<FreeSectorPool> free_pool_;  // Per-bank free sectors.
  uint64_t free_sector_count_ = 0;         // == sum of free_pool_ sizes.
  // First hot_sector_count_ sectors form the hot-bank range; 0 = segregation
  // off (hot_bank_count outside (0, num_banks)).
  uint64_t hot_sector_count_;
  VictimIndex victim_index_;
  ColdSectorIndex cold_index_;  // Spans the hot-bank range only.
  std::unique_ptr<WearIndex> wear_index_;  // Only under WearPolicy::kStatic.
  bool observer_registered_ = false;       // Erase observer needs unhooking.
  // Sectors whose index membership awaits SettleIndexes(), each once (its
  // kPendingFlag is set while listed).
  std::vector<uint64_t> pending_;
  std::vector<int64_t> active_;                  // Per-bank active sector.
  int next_bank_ = 0;
  uint64_t erases_since_wear_check_ = 0;
  int cleans_since_evict_ = 0;
  bool cleaning_ = false;       // Re-entrancy guard for the cleaner.
  bool wear_leveling_ = false;  // Re-entrancy guard for static leveling.
  Stats stats_;
  Obs* obs_ = nullptr;
  int obs_cleaner_track_ = 0;
  StatsMirror mirror_{"ftl"};  // Last: its destructor runs the collector.
};

}  // namespace ssmc

#endif  // SSMC_SRC_FTL_FLASH_STORE_H_
