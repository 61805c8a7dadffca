// ResidencyManager — the single authority on tier placement across the
// machine's memory hierarchy (paper Section 3.3: the physical storage
// manager's core job is "migrating data between DRAM and flash"; Section 5
// anticipates additional byte-addressable non-volatile tiers between them).
//
// Before this layer existed, residency state was smeared across the stack:
// the write buffer demoted dirty blocks, the file system decided
// buffered-vs-flash per access, the VM ran a private clean-page reclaim
// FIFO, and nothing could *promote* a hot read-mostly flash block into
// DRAM. The ResidencyManager centralizes that:
//
//  * it owns the BlockStateTable (block_state.h): one pooled slot per file
//    block that is dirty, cached or hot, reached from the file system's
//    inode block map by slot id. The slot says where the block lives, so
//    Resolve() — DRAM-dirty, DRAM-clean-cached, NVM-cached, flash, hole —
//    is a field read, and the write buffer's LRU and both tier LRUs are
//    intrusive links through the slots;
//  * it tracks per-block access heat as sim-time-decayed touch counts, fed
//    by file-system reads/writes and VM faults, in the same slot;
//  * it owns a table of clean cache tiers — tier 0 the DRAM clean cache,
//    tier 1 the optional NVM cache — each with its own page budget and LRU,
//    with heat-driven promotion/demotion between adjacent tiers: blocks
//    enter the hierarchy from flash into the bottom cache tier, climb one
//    tier at a time as their heat crosses that tier's threshold, and fall
//    one tier at a time under capacity pressure (DRAM tail demotes into
//    NVM; the NVM tail drops — the flash copy stays authoritative). Each
//    tier names the StorageManager PageTier its pages come from, so one
//    code path reads, fills, moves and frees cached blocks whatever the
//    medium — the tier decides only how the access is charged;
//  * it arbitrates the shared DRAM budget: VM page frames, dirty buffer
//    pages and the clean cache all draw from one pool (the paper's
//    single-level-store premise), with clean pages demoted first.
//
// Migration policies (MachineConfig::residency.policy):
//  * kWriteBufferOnly — today's behavior, bit-identical: dirty blocks
//    buffer in DRAM and flush to flash; clean data always reads from
//    flash. ResidencyDifferentialTest (residency_test.cc) checks this
//    stack's reads against an independent per-file byte model and the
//    other policies against this stack.
//  * kReadPromote — flash blocks whose decayed heat crosses
//    promote_threshold are promoted into the clean cache. Promotion flash
//    reads are issued cleaner-class and non-blocking (background
//    IoRequests), so promotion never stalls the foreground read that
//    triggered it; subsequent reads of the block run at DRAM speed.
//  * kAggressive — promote on the second raw touch, and additionally
//    forward cold-data hints to the FlashStore: blocks whose heat has
//    decayed below kColdHintHeat (residency.cc) flush on the relocation
//    (cold) stream, pre-segregating write-once data into the cold banks.
//
// The clean cache holds only re-fetchable data (the flash copy stays
// authoritative), so demotion is free: under any DRAM pressure the cache
// shrinks before dirty data or VM frames are touched.

#ifndef SSMC_SRC_STORAGE_RESIDENCY_H_
#define SSMC_SRC_STORAGE_RESIDENCY_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "src/ftl/flash_store.h"
#include "src/obs/stats_mirror.h"
#include "src/sim/io_stats.h"
#include "src/sim/stats.h"
#include "src/storage/block_state.h"
#include "src/support/status.h"
#include "src/support/units.h"

namespace ssmc {

class Obs;
class StorageManager;
class WriteBuffer;
enum class PageTier : uint8_t;  // storage_manager.h

// Which migration policy the residency manager runs.
enum class ResidencyPolicy {
  kWriteBufferOnly = 0,  // Dirty buffering only — byte-identical baseline.
  kReadPromote = 1,      // Heat-threshold promotion into the clean cache.
  kAggressive = 2,       // Promote-on-second-touch + cold demotion hints.
};

const char* ResidencyPolicyName(ResidencyPolicy policy);
// Parses "write-buffer-only" / "read-promote" / "aggressive" (also accepts
// the bare enum spellings). Returns false on an unknown name.
bool ParseResidencyPolicy(std::string_view name, ResidencyPolicy* out);

struct ResidencyOptions {
  ResidencyPolicy policy = ResidencyPolicy::kWriteBufferOnly;
  // Half-life of the exponential touch-count decay. A block touched once
  // counts 0.5 after one half-life; the classic 30 s working-set window.
  Duration heat_half_life = 30 * kSecond;
  // kReadPromote: promote when the decayed touch count reaches this.
  double promote_threshold = 2.0;
  // Cap on the clean cache as a fraction of total DRAM pages. The cache
  // recycles its own LRU tail beyond this; it never squeezes dirty data or
  // VM frames to grow.
  double max_clean_fraction = 0.5;
};

class ResidencyManager {
 public:
  // A consumer of DRAM pages that can give some back under pressure (the VM
  // address spaces: their clean file-backed copies are re-fetchable).
  class ReclaimSource {
   public:
    virtual ~ReclaimSource() = default;
    // Frees one DRAM page back to the storage manager if possible.
    virtual bool TryReclaimOne() = 0;
  };

  ResidencyManager(StorageManager& storage, ResidencyOptions options);
  // Frees the clean cache's DRAM pages (the stats mirror flushes after).
  ~ResidencyManager();

  ResidencyManager(const ResidencyManager&) = delete;
  ResidencyManager& operator=(const ResidencyManager&) = delete;

  const ResidencyOptions& options() const { return options_; }
  ResidencyPolicy policy() const { return options_.policy; }
  // True when any migration beyond dirty buffering is active. Everything
  // the enabled() paths do is skipped under kWriteBufferOnly, which is what
  // keeps the default byte-identical to the pre-residency simulator.
  bool enabled() const {
    return options_.policy != ResidencyPolicy::kWriteBufferOnly;
  }

  // --- Wiring -------------------------------------------------------------
  // The dirty side of the residency map is the file system's write buffer;
  // the file system binds it at construction (null unbinds). Only the
  // audit reads it: a dirty block's slot already says kDirty.
  void BindDirtyBackend(WriteBuffer* buffer) { dirty_backend_ = buffer; }
  // Called by the file system's destructor: drops the clean cache and heat
  // (their keys die with the namespace) and unbinds the dirty backend.
  void DetachFilesystem();

  // VM address spaces register as reclaim sources so DRAM pressure can be
  // served from any space's clean pages (single-level-store competition).
  void RegisterSource(ReclaimSource* source);
  void DropSource(ReclaimSource* source);

  // The tenant whose access is currently driving the manager (set by the
  // file system alongside its own current tenant). Promotions it triggers —
  // and the DRAM the promoted pages occupy — are billed to this tenant.
  void set_current_tenant(TenantId tenant) { tenant_ = tenant; }
  TenantId current_tenant() const { return tenant_; }

  // --- Block-state slots --------------------------------------------------
  // The table every per-block layer shares (block_state.h). Callers name a
  // block by the slot id they keep beside it (the inode block map):
  // blocks().Find to look, blocks().Acquire before a write or touch. Every
  // method below taking a SlotId accepts kNoSlot as "no state".
  BlockStateTable& blocks() { return blocks_; }
  const BlockStateTable& blocks() const { return blocks_; }
  // Returns the slot to the pool if it holds nothing: no DRAM/NVM copy and
  // no heat. A no-op on kNoSlot or an already-freed slot.
  void ReleaseIfIdle(SlotId slot) {
    if (blocks_.live(slot) && blocks_[slot].where == Residency::kHole &&
        blocks_[slot].raw == 0) {
      blocks_.Free(slot);
    }
  }

  // Audits the slot table (ROADMAP's tier-exclusivity invariant): every
  // live slot sits on at most one list, the one its `where` names; each
  // list's length is dirty_pages() / clean_pages() / nvm_pages(); each
  // tier is within capacity_pages; every listed slot holds a page its
  // allocator marks used, and no two hold the same page; no free slot is
  // linked, no live slot is idle, and the heat count matches. Returns the
  // first violation found.
  Status CheckInvariants() const;

  // --- Placement ----------------------------------------------------------
  // Where does this block live? `flash_block` is the file system's mapping
  // for the block (-1 = none). The slot's `where` wins (dirty buffer, then
  // a cache tier — tiers are exclusive), then flash, then hole. Pure
  // bookkeeping: charges nothing.
  Residency Resolve(SlotId slot, int64_t flash_block) const {
    if (slot != kNoSlot && blocks_[slot].where != Residency::kHole) {
      return blocks_[slot].where;
    }
    return flash_block >= 0 ? Residency::kFlash : Residency::kHole;
  }

  bool CleanCached(SlotId slot) const {
    return slot != kNoSlot && blocks_[slot].where == Residency::kClean;
  }
  uint64_t clean_pages() const { return tiers_[kDramTier].lru.size; }
  bool NvmCached(SlotId slot) const {
    return slot != kNoSlot && blocks_[slot].where == Residency::kNvm;
  }
  uint64_t nvm_pages() const {
    return has_nvm_tier() ? tiers_[kNvmTier].lru.size : 0;
  }
  // True when the machine has NVM capacity behind this manager (the tier
  // exists; whether it fills depends on the policy being enabled).
  bool has_nvm_tier() const { return tiers_.size() > kNvmTier; }

  // Per-tier occupancy snapshot (benches, tests).
  struct TierStatus {
    Residency residency = Residency::kClean;  // kClean or kNvm.
    uint64_t capacity_pages = 0;
    uint64_t cached_pages = 0;
  };
  std::vector<TierStatus> Tiers() const;

  // Reads bytes from a cached block, from whichever tier its slot names: a
  // foreground blocking read of that tier's medium (DRAM time on the
  // caller's clock, or the NVM device's bank scheduler), billed to the
  // current tenant. Refreshes the block's LRU position and counts a clean
  // or NVM hit. NOT_FOUND if the block is in no cache tier.
  Status ReadCached(SlotId slot, uint64_t offset, std::span<uint8_t> out);

  // Drops one / every cached block from every tier (content changed, file
  // released, battery-backed DRAM lost). The flash copy is authoritative,
  // so nothing is lost.
  void InvalidateClean(SlotId slot);
  void InvalidateAllClean();

  // --- Heat & migration ---------------------------------------------------
  // Access notifications from the file system. Under kWriteBufferOnly they
  // return at once, so the slot may be kNoSlot; otherwise it must be live.
  // TouchRead of a block in the NVM tier climbs it one tier up into the
  // DRAM clean cache when its heat crosses the DRAM tier's threshold (the
  // payload moves by reference; the NVM page returns to the pool).
  // OnFlashRead may promote the block into the bottom cache tier
  // (policy-dependent): the NVM tier when one exists, else straight into
  // the DRAM clean cache. The promotion flash read is issued cleaner-class
  // non-blocking.
  void TouchRead(SlotId slot, SimTime now);
  void TouchWrite(SlotId slot, SimTime now);
  void OnFlashRead(SlotId slot, uint64_t flash_block, SimTime now);

  // A VM fault is about to map this flash block in place. Returns true if
  // the block is hot enough that the VM should copy it to DRAM instead
  // (promotion through the fault path: later accesses run at DRAM speed).
  bool NoteVmFault(SlotId slot, SimTime now);

  // Which write stream a flush of this block should use. kAggressive routes
  // heat-cold blocks onto the relocation stream (FlashStore's cold banks);
  // every other policy returns kUser.
  WriteStream FlushStream(SlotId slot, SimTime now);

  // Drops the block's heat (file block released), freeing an idle slot.
  void ForgetHeat(SlotId slot);
  // Decayed touch count as of `now` (0 if never touched).
  double HeatOf(SlotId slot, SimTime now) const;
  // Blocks that carry heat.
  uint64_t heat_entries() const { return heated_; }

  // --- Shared DRAM budget -------------------------------------------------
  // Allocates a DRAM page, applying migration pressure when the pool is
  // dry, in order: (1) demote clean-cache LRU pages [enabled policies],
  // (2) the requester's own reclaimable pages (exactly the historical VM
  // reclaim loop), (3) other registered sources' pages [enabled policies].
  // `requester` may be null (the write buffer has nothing to reclaim).
  // RESOURCE_EXHAUSTED when every avenue is spent.
  Result<uint64_t> AllocateDramPage(ReclaimSource* requester);

  // Per-tenant residency attribution: a promotion is billed to the tenant
  // whose read crossed the heat threshold, a clean hit to the reader.
  struct TenantResidency {
    Counter promotions;       // Flash blocks promoted to the clean cache.
    Counter promoted_bytes;
    Counter clean_hits;       // Reads served from the clean cache.
    Counter clean_hit_bytes;
    Counter nvm_hits;         // Reads served from the NVM tier.
    Counter nvm_hit_bytes;

    void Merge(const TenantResidency& other) {
      promotions.Merge(other.promotions);
      promoted_bytes.Merge(other.promoted_bytes);
      clean_hits.Merge(other.clean_hits);
      clean_hit_bytes.Merge(other.clean_hit_bytes);
      nvm_hits.Merge(other.nvm_hits);
      nvm_hit_bytes.Merge(other.nvm_hit_bytes);
    }
  };

  // The manager's totals: every tenant's attribution summed (inherited),
  // then the counters kept only overall.
  struct Stats : TenantResidency {
    Counter touches;                 // Heat updates (reads+writes+faults).
    Counter demotions_pressure;      // Clean pages dropped for DRAM space.
    Counter demotions_invalidated;   // Cached pages dropped by invalidation.
    Counter cold_stream_hints;       // Flushes routed to the cold stream.
    Counter vm_promote_faults;       // VM faults told to copy, not map.
    // NVM tier traffic (all zero without NVM).
    Counter nvm_promotions;          // Flash blocks admitted into the NVM tier.
    Counter nvm_promoted_bytes;
    Counter nvm_to_dram_promotions;  // Blocks climbing NVM -> DRAM.
    Counter demotions_to_nvm;        // DRAM tail pages demoted into NVM.
    TenantTable<TenantResidency> by_tenant;
  };
  const Stats& stats() const { return stats_; }

  // Observability (nullable; null detaches): a "residency" trace track with
  // promotion spans and demotion instants, a stats mirror collector
  // (clean-cache size and the count of blocks carrying heat as gauges),
  // and heat histograms sampled at promotion and flush decisions (x100
  // fixed point).
  void AttachObs(Obs* obs);

 private:
  // Indexes into tiers_: adjacent tiers differ by one. Tier 0 is the
  // fastest; the last cache tier borders flash.
  static constexpr size_t kDramTier = 0;
  static constexpr size_t kNvmTier = 1;

  // One clean cache tier. Its blocks are the slots on `lru`, all with
  // where == `residency`, each holding a page of `medium`; tiers are
  // exclusive, so a block moves between adjacent tiers as its heat changes.
  struct CacheTier {
    Residency residency = Residency::kClean;  // kClean or kNvm.
    PageTier medium{};                        // Its pages' storage tier.
    double admit_heat = 0;                    // Heat a block needs to enter.
    uint64_t capacity_pages = 0;              // Per-tier budget.
    // What a read it serves books, in the totals and the reader's lane.
    Counter TenantResidency::*hits = nullptr;
    Counter TenantResidency::*hit_bytes = nullptr;
    SlotList lru;  // Head = least recently used.
  };

  // Decays the slot's heat to `now` and returns the current count.
  double DecayTo(BlockState& b, SimTime now) const;
  // Records one touch; returns the decayed count after it.
  double Touch(SlotId slot, SimTime now);
  // Admission test for `tier` under the policy, against the tier's
  // admit_heat: the DRAM tier's is the historical promote rule.
  bool ShouldAdmit(const BlockState& b, size_t tier) const;
  // Promotes a flash block into the bottom cache tier.
  void PromoteFromFlash(SlotId slot, uint64_t flash_block, SimTime now);
  // Moves an NVM-tier block one tier up into the DRAM clean cache.
  void PromoteNvmToDram(SlotId slot, SimTime now);
  // Books a promotion into `medium` that started at `now`: its counters,
  // the heat histogram and a trace span named `span`.
  void RecordPromotion(SlotId slot, PageTier medium, SimTime now,
                       const char* span);
  // Under capacity pressure, drops (or, for the DRAM tier with an NVM tier
  // below, demotes) the tier's LRU block; false if the tier is empty.
  bool DemoteOne(size_t tier);
  // Links `slot` at the MRU end of `tier`, holding `page` for `tenant`.
  void Install(size_t tier, SlotId slot, uint64_t page, TenantId tenant);
  // The cache tier holding `slot`'s block, or null (kNoSlot, or uncached).
  CacheTier* CacheTierOf(SlotId slot);
  // Takes `slot` off its tier and frees its page; the slot stays live.
  void EraseCacheEntry(CacheTier& tier, SlotId slot);
  // Moves `slot`'s block from tier `from` into `page` of tier `to`, by
  // reference, as background migration I/O billed to `tenant`.
  void MoveBlock(SlotId slot, size_t from, size_t to, uint64_t page,
                 TenantId tenant);
  // Allocates a page for `tier`, recycling the tier's own LRU tail at its
  // budget. Failure (pool and tail both dry) returns !ok.
  Result<uint64_t> AllocateTierPage(size_t tier);
  uint64_t MaxCleanPages() const;

  StorageManager& storage_;
  ResidencyOptions options_;
  TenantId tenant_ = kDefaultTenant;
  WriteBuffer* dirty_backend_ = nullptr;
  std::vector<ReclaimSource*> sources_;  // Registration order (determinism).

  BlockStateTable blocks_;
  // Tier table: [0] the DRAM clean cache, [1] the NVM cache when the
  // machine has NVM capacity. Sized at construction.
  std::vector<CacheTier> tiers_;
  uint64_t heated_ = 0;  // Live slots with raw > 0.

  Stats stats_;
  Obs* obs_ = nullptr;
  int obs_track_ = 0;
  Histogram* promote_heat_ = nullptr;  // Owned by the Obs registry.
  Histogram* flush_heat_ = nullptr;
  StatsMirror mirror_{"residency"};  // Last: its destructor runs the collector.
};

}  // namespace ssmc

#endif  // SSMC_SRC_STORAGE_RESIDENCY_H_
