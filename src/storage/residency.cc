#include "src/storage/residency.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <vector>

#include "src/obs/obs.h"
#include "src/storage/storage_manager.h"
#include "src/storage/write_buffer.h"

namespace ssmc {

namespace {

// kAggressive: flushes of blocks with decayed heat below this go out on the
// relocation (cold) write stream.
constexpr double kColdHintHeat = 0.5;
// kAggressive: promote when the raw (undecayed) touch count reaches this.
constexpr uint64_t kAggressiveTouches = 2;
// Decayed heat a flash block needs to enter the NVM tier. 1.0 admits on
// first touch, so the combined DRAM+NVM ladder approximates one big LRU —
// what the Ju et al. analytical oracle (tier_model.h) models.
constexpr double kNvmAdmitHeat = 1.0;

}  // namespace

const char* ResidencyPolicyName(ResidencyPolicy policy) {
  switch (policy) {
    case ResidencyPolicy::kWriteBufferOnly:
      return "write-buffer-only";
    case ResidencyPolicy::kReadPromote:
      return "read-promote";
    case ResidencyPolicy::kAggressive:
      return "aggressive";
  }
  return "unknown";
}

bool ParseResidencyPolicy(std::string_view name, ResidencyPolicy* out) {
  if (name == "write-buffer-only" || name == "kWriteBufferOnly") {
    *out = ResidencyPolicy::kWriteBufferOnly;
    return true;
  }
  if (name == "read-promote" || name == "kReadPromote") {
    *out = ResidencyPolicy::kReadPromote;
    return true;
  }
  if (name == "aggressive" || name == "kAggressive") {
    *out = ResidencyPolicy::kAggressive;
    return true;
  }
  return false;
}

ResidencyManager::ResidencyManager(StorageManager& storage,
                                   ResidencyOptions options)
    : storage_(storage), options_(options) {
  assert(options_.heat_half_life > 0);
  // BlockState keeps page indices in 32 bits.
  const uint64_t nvm_pages = storage_.total_pages(PageTier::kNvm);
  assert(storage_.total_pages(PageTier::kDram) <= UINT32_MAX &&
         nvm_pages <= UINT32_MAX);
  // Tier 0: the DRAM clean cache, always present.
  tiers_.push_back({Residency::kClean, PageTier::kDram,
                    options_.promote_threshold, MaxCleanPages(),
                    &TenantResidency::clean_hits,
                    &TenantResidency::clean_hit_bytes, {}});
  // Tier 1: the NVM cache, only when the machine has NVM capacity — the
  // two-tier hierarchy stays bit-identical with no NVM behind the manager.
  if (nvm_pages > 0) {
    tiers_.push_back({Residency::kNvm, PageTier::kNvm, kNvmAdmitHeat,
                      nvm_pages, &TenantResidency::nvm_hits,
                      &TenantResidency::nvm_hit_bytes, {}});
  }
}

ResidencyManager::~ResidencyManager() {
  InvalidateAllClean();
}

void ResidencyManager::DetachFilesystem() {
  dirty_backend_ = nullptr;
  InvalidateAllClean();
  // Forget all heat, stopping once no slot carries any. Dirty slots stay
  // live until the write buffer, which the file system destroys next, frees
  // them.
  for (SlotId id = 1; heated_ > 0 && id < blocks_.end(); ++id) {
    ForgetHeat(id);
  }
}

void ResidencyManager::RegisterSource(ReclaimSource* source) {
  if (std::find(sources_.begin(), sources_.end(), source) == sources_.end()) {
    sources_.push_back(source);
  }
}

void ResidencyManager::DropSource(ReclaimSource* source) {
  sources_.erase(std::remove(sources_.begin(), sources_.end(), source),
                 sources_.end());
}

std::vector<ResidencyManager::TierStatus> ResidencyManager::Tiers() const {
  std::vector<TierStatus> out;
  out.reserve(tiers_.size());
  for (const CacheTier& tier : tiers_) {
    TierStatus s;
    s.residency = tier.residency;
    s.capacity_pages = tier.capacity_pages;
    s.cached_pages = tier.lru.size;
    out.push_back(s);
  }
  return out;
}

Status ResidencyManager::ReadCached(SlotId slot, uint64_t offset,
                                    std::span<uint8_t> out) {
  CacheTier* tier = CacheTierOf(slot);
  if (tier == nullptr) {
    return NotFoundError("block not cached");
  }
  if (offset + out.size() > storage_.page_bytes()) {
    return OutOfRangeError("cached read exceeds block bounds");
  }
  blocks_.MoveToBack(tier->lru, slot);
  // A foreground blocking read, billed to the current tenant: the caller
  // waits on the tier's medium (for NVM, at NVM — not flash — latency).
  storage_.ReadPagePayload(tier->medium, blocks_[slot].page, offset, out,
                           ForTenant(kForegroundIo, tenant_));
  TenantResidency& lane = stats_.by_tenant.For(tenant_);
  (stats_.*tier->hits).Add();
  (stats_.*tier->hit_bytes).Add(out.size());
  (lane.*tier->hits).Add();
  (lane.*tier->hit_bytes).Add(out.size());
  return Status::Ok();
}

void ResidencyManager::Install(size_t tier_index, SlotId slot, uint64_t page,
                               TenantId tenant) {
  CacheTier& tier = tiers_[tier_index];
  BlockState& b = blocks_[slot];
  b.where = tier.residency;
  b.page = static_cast<uint32_t>(page);
  b.tenant = tenant;
  blocks_.PushBack(tier.lru, slot);
}

void ResidencyManager::EraseCacheEntry(CacheTier& tier, SlotId slot) {
  (void)storage_.FreePage(tier.medium, blocks_[slot].page);
  blocks_.Unlink(tier.lru, slot);
  blocks_[slot].where = Residency::kHole;
}

void ResidencyManager::MoveBlock(SlotId slot, size_t from, size_t to,
                                 uint64_t page, TenantId tenant) {
  // The payload moves by reference: the migration engine reads the whole
  // page from the old medium and writes it to the new, both background
  // I/O. The old page returns to its pool — tiers are exclusive.
  const IoIssue issue = ForTenant(kCleanerIo, tenant);
  PayloadRef payload = storage_.ReadPagePayloadRef(
      tiers_[from].medium, blocks_[slot].page, issue);
  storage_.InstallPagePayload(tiers_[to].medium, page, std::move(payload),
                              issue);
  EraseCacheEntry(tiers_[from], slot);
  Install(to, slot, page, tenant);
}

ResidencyManager::CacheTier* ResidencyManager::CacheTierOf(SlotId slot) {
  if (slot == kNoSlot) {
    return nullptr;
  }
  // Exclusive: a block lives in at most one tier.
  for (CacheTier& tier : tiers_) {
    if (blocks_[slot].where == tier.residency) {
      return &tier;
    }
  }
  return nullptr;
}

void ResidencyManager::InvalidateClean(SlotId slot) {
  if (CacheTier* tier = CacheTierOf(slot)) {
    stats_.demotions_invalidated.Add();
    EraseCacheEntry(*tier, slot);
    ReleaseIfIdle(slot);
  }
}

void ResidencyManager::InvalidateAllClean() {
  for (CacheTier& tier : tiers_) {
    stats_.demotions_invalidated.Add(tier.lru.size);
    // LRU order: the allocator hands freed pages out again in reverse, and
    // an NVM page's index picks its bank.
    while (tier.lru.head != kNoSlot) {
      const SlotId slot = tier.lru.head;
      EraseCacheEntry(tier, slot);
      ReleaseIfIdle(slot);
    }
  }
}

bool ResidencyManager::DemoteOne(size_t tier_index) {
  CacheTier& tier = tiers_[tier_index];
  const SlotId victim = tier.lru.head;
  if (victim == kNoSlot) {
    return false;
  }
  // Adjacent-tier demotion: the DRAM tail falls into the NVM tier when one
  // exists (the payload moves by reference; the block stays cached, one
  // tier colder). The bottom tier's tail drops — flash is authoritative —
  // and so does any tail with no room below (the pool exhausted by other
  // consumers).
  bool moved = false;
  if (tier_index + 1 < tiers_.size()) {
    const Result<uint64_t> below = AllocateTierPage(tier_index + 1);
    if (below.ok()) {
      MoveBlock(victim, tier_index, tier_index + 1, below.value(),
                blocks_[victim].tenant);
      stats_.demotions_to_nvm.Add();
      moved = true;
    }
  }
  if (!moved) {
    EraseCacheEntry(tier, victim);
    ReleaseIfIdle(victim);
  }
  stats_.demotions_pressure.Add();
  if (obs_ != nullptr) {
    obs_->tracer().Instant(obs_track_, "demote-pressure",
                           storage_.dram().clock().now());
  }
  return true;
}

double ResidencyManager::DecayTo(BlockState& b, SimTime now) const {
  if (now > b.last) {
    const double dt = static_cast<double>(now - b.last);
    b.decayed *= std::exp2(-dt / static_cast<double>(options_.heat_half_life));
    b.last = now;
  }
  return b.decayed;
}

double ResidencyManager::Touch(SlotId slot, SimTime now) {
  assert(blocks_.live(slot));
  stats_.touches.Add();
  BlockState& b = blocks_[slot];
  if (b.raw == 0) {
    ++heated_;
  }
  DecayTo(b, now);
  b.decayed += 1.0;
  b.raw += 1;
  return b.decayed;
}

bool ResidencyManager::ShouldAdmit(const BlockState& b, size_t tier) const {
  const double heat = tiers_[tier].admit_heat;
  switch (options_.policy) {
    case ResidencyPolicy::kWriteBufferOnly:
      return false;
    case ResidencyPolicy::kReadPromote:
      return b.decayed >= heat;
    case ResidencyPolicy::kAggressive:
      return b.raw >= kAggressiveTouches || b.decayed >= heat;
  }
  return false;
}

void ResidencyManager::TouchRead(SlotId slot, SimTime now) {
  if (!enabled()) {
    return;
  }
  (void)Touch(slot, now);
  if (NvmCached(slot) && ShouldAdmit(blocks_[slot], kDramTier)) {
    PromoteNvmToDram(slot, now);
  }
}

void ResidencyManager::TouchWrite(SlotId slot, SimTime now) {
  if (!enabled()) {
    return;
  }
  (void)Touch(slot, now);
}

void ResidencyManager::OnFlashRead(SlotId slot, uint64_t flash_block,
                                   SimTime now) {
  if (!enabled()) {
    return;
  }
  (void)Touch(slot, now);
  if (ShouldAdmit(blocks_[slot], tiers_.size() - 1) &&
      blocks_[slot].where == Residency::kHole) {
    PromoteFromFlash(slot, flash_block, now);
  }
}

bool ResidencyManager::NoteVmFault(SlotId slot, SimTime now) {
  if (!enabled()) {
    return false;
  }
  (void)Touch(slot, now);
  if (ShouldAdmit(blocks_[slot], kDramTier)) {
    stats_.vm_promote_faults.Add();
    return true;
  }
  return false;
}

WriteStream ResidencyManager::FlushStream(SlotId slot, SimTime now) {
  if (options_.policy != ResidencyPolicy::kAggressive) {
    return WriteStream::kUser;
  }
  const double heat = HeatOf(slot, now);
  if (flush_heat_ != nullptr) {
    flush_heat_->Record(static_cast<uint64_t>(heat * 100.0));
  }
  if (heat < kColdHintHeat) {
    stats_.cold_stream_hints.Add();
    return WriteStream::kRelocation;
  }
  return WriteStream::kUser;
}

void ResidencyManager::ForgetHeat(SlotId slot) {
  if (!blocks_.live(slot)) {
    return;
  }
  BlockState& b = blocks_[slot];
  if (b.raw != 0) {
    --heated_;
  }
  b.decayed = 0;
  b.raw = 0;
  b.last = 0;
  ReleaseIfIdle(slot);
}

double ResidencyManager::HeatOf(SlotId slot, SimTime now) const {
  if (slot == kNoSlot) {
    return 0.0;
  }
  // Read-only decay: do not update the stored heat.
  const BlockState& b = blocks_[slot];
  if (now <= b.last) {
    return b.decayed;
  }
  const double dt = static_cast<double>(now - b.last);
  return b.decayed *
         std::exp2(-dt / static_cast<double>(options_.heat_half_life));
}

uint64_t ResidencyManager::MaxCleanPages() const {
  const uint64_t dram_pages = storage_.total_pages(PageTier::kDram);
  return static_cast<uint64_t>(options_.max_clean_fraction *
                               static_cast<double>(dram_pages));
}

Result<uint64_t> ResidencyManager::AllocateTierPage(size_t tier_index) {
  CacheTier& tier = tiers_[tier_index];
  if (tier.capacity_pages == 0) {
    return ResourceExhaustedError("tier has no budget");
  }
  // Recycle the tier's own LRU tail at its budget — a cache never squeezes
  // dirty data or VM frames to grow.
  while (tier.lru.size >= tier.capacity_pages) {
    (void)DemoteOne(tier_index);
  }
  Result<uint64_t> page = storage_.AllocatePage(tier.medium);
  while (!page.ok() && DemoteOne(tier_index)) {
    page = storage_.AllocatePage(tier.medium);
  }
  return page;
}

void ResidencyManager::PromoteFromFlash(SlotId slot, uint64_t flash_block,
                                        SimTime now) {
  // Admission from flash targets the bottom cache tier; blocks climb the
  // rest of the ladder one tier at a time as their heat holds up.
  const size_t target = tiers_.size() - 1;
  const PageTier medium = tiers_[target].medium;
  const Result<uint64_t> page = AllocateTierPage(target);
  if (!page.ok()) {
    return;  // No free pages and nothing of ours to recycle: skip quietly.
  }
  // The promotion read is cleaner-class background I/O: it occupies a flash
  // bank without advancing the caller's clock, so the foreground read that
  // triggered promotion is never stalled by it. The fill is charged
  // normally (the copy engine writes the page) — but the promoted page
  // *shares* the flash extent rather than copying it: the cache and the
  // flash sector alias one refcounted payload.
  Result<PayloadRef> read = storage_.flash_store().ReadRef(
      flash_block, ForTenant(kCleanerIo, tenant_));
  if (!read.ok()) {
    (void)storage_.FreePage(medium, page.value());
    return;
  }
  storage_.InstallPagePayload(medium, page.value(), std::move(read.value()),
                              ForTenant(kCleanerIo, tenant_));
  Install(target, slot, page.value(), tenant_);
  RecordPromotion(slot, medium, now, "promote");
}

void ResidencyManager::PromoteNvmToDram(SlotId slot, SimTime now) {
  const Result<uint64_t> page = AllocateTierPage(kDramTier);
  if (!page.ok()) {
    return;  // DRAM budget dry: the block stays warm in NVM.
  }
  if (!NvmCached(slot)) {
    // Making room in DRAM demoted the DRAM tail into a full NVM tier, whose
    // own tail was this block: it has dropped to flash.
    (void)storage_.FreePage(PageTier::kDram, page.value());
    return;
  }
  MoveBlock(slot, kNvmTier, kDramTier, page.value(), tenant_);
  stats_.nvm_to_dram_promotions.Add();
  RecordPromotion(slot, PageTier::kDram, now, "promote-nvm-dram");
}

void ResidencyManager::RecordPromotion(SlotId slot, PageTier medium,
                                       SimTime now, const char* span) {
  if (medium == PageTier::kNvm) {
    stats_.nvm_promotions.Add();
    stats_.nvm_promoted_bytes.Add(storage_.page_bytes());
  } else {
    stats_.promotions.Add();
    stats_.promoted_bytes.Add(storage_.page_bytes());
    TenantResidency& lane = stats_.by_tenant.For(tenant_);
    lane.promotions.Add();
    lane.promoted_bytes.Add(storage_.page_bytes());
  }
  if (promote_heat_ != nullptr) {
    promote_heat_->Record(static_cast<uint64_t>(HeatOf(slot, now) * 100.0));
  }
  if (obs_ != nullptr) {
    const BlockKey& key = blocks_[slot].key;
    const SimTime t1 = storage_.dram().clock().now();
    obs_->tracer().Span(obs_track_, span, now, t1 - now,
                        {"file", key.file_id}, {"block", key.block_index});
  }
}

Result<uint64_t> ResidencyManager::AllocateDramPage(ReclaimSource* requester) {
  Result<uint64_t> page = storage_.AllocatePage(PageTier::kDram);
  // 1. The clean cache is the cheapest thing in DRAM: demote it first (with
  // an NVM tier the tail falls one tier rather than out of the hierarchy).
  while (!page.ok() && enabled() && DemoteOne(kDramTier)) {
    page = storage_.AllocatePage(PageTier::kDram);
  }
  // 2. The requester's own reclaimable pages — exactly the historical VM
  // reclaim loop, so kWriteBufferOnly behavior is unchanged.
  while (!page.ok() && requester != nullptr && requester->TryReclaimOne()) {
    page = storage_.AllocatePage(PageTier::kDram);
  }
  // 3. Under migration policies, every address space's clean pages compete
  // for the same DRAM (single-level store): reclaim from the others too, in
  // registration order for determinism.
  if (!page.ok() && enabled()) {
    for (ReclaimSource* source : sources_) {
      if (source == requester) {
        continue;
      }
      while (!page.ok() && source->TryReclaimOne()) {
        page = storage_.AllocatePage(PageTier::kDram);
      }
      if (page.ok()) {
        break;
      }
    }
  }
  return page;
}

void ResidencyManager::AttachObs(Obs* obs) {
  obs_ = obs;
  std::vector<StatsMirror::CounterField> counters = {
      {"touches", &stats_.touches}, {"promotions", &stats_.promotions},
      {"promoted_bytes", &stats_.promoted_bytes},
      {"clean_hits", &stats_.clean_hits},
      {"clean_hit_bytes", &stats_.clean_hit_bytes},
      {"demotions_pressure", &stats_.demotions_pressure},
      {"demotions_invalidated", &stats_.demotions_invalidated},
      {"cold_stream_hints", &stats_.cold_stream_hints},
      {"vm_promote_faults", &stats_.vm_promote_faults}};
  std::vector<StatsMirror::GaugeField> gauges = {
      {"clean_pages", [this] { return clean_pages(); }},
      {"heat_entries", [this] { return heated_; }}};
  if (has_nvm_tier()) {
    counters.insert(
        counters.end(),
        {{"nvm_promotions", &stats_.nvm_promotions},
         {"nvm_promoted_bytes", &stats_.nvm_promoted_bytes},
         {"nvm_hits", &stats_.nvm_hits},
         {"nvm_hit_bytes", &stats_.nvm_hit_bytes},
         {"nvm_to_dram_promotions", &stats_.nvm_to_dram_promotions},
         {"demotions_to_nvm", &stats_.demotions_to_nvm}});
    gauges.push_back({"nvm_pages", [this] { return nvm_pages(); }});
  }
  mirror_.Attach(
      obs, std::move(counters), std::move(gauges), [this](MetricsRegistry& m) {
        // Each tenant's clean-page share is recomputed at snapshot time: one
        // scan of the cache beats keeping counters consistent across every
        // demote path.
        TenantTable<uint64_t> pages;
        for (SlotId id = tiers_[kDramTier].lru.head; id != kNoSlot;
             id = blocks_[id].next) {
          pages.For(blocks_[id].tenant) += 1;
        }
        for (const auto& e : stats_.by_tenant.entries()) {
          const std::string base = TenantPrefix("residency", e.tenant);
          MirrorCounter(m, base + "promotions", e.value.promotions);
          MirrorCounter(m, base + "promoted_bytes", e.value.promoted_bytes);
          MirrorCounter(m, base + "clean_hits", e.value.clean_hits);
          MirrorCounter(m, base + "clean_hit_bytes", e.value.clean_hit_bytes);
          if (has_nvm_tier()) {
            MirrorCounter(m, base + "nvm_hits", e.value.nvm_hits);
            MirrorCounter(m, base + "nvm_hit_bytes", e.value.nvm_hit_bytes);
          }
          const uint64_t* share = pages.Find(e.tenant);
          m.AddGauge(base + "clean_pages")
              ->Set(static_cast<int64_t>(share != nullptr ? *share : 0));
        }
      });
  if (obs_ == nullptr) {
    promote_heat_ = nullptr;
    flush_heat_ = nullptr;
    return;
  }
  obs_track_ = obs_->tracer().RegisterTrack("residency");
  promote_heat_ = obs_->metrics().AddHistogram("residency/promote_heat_x100");
  flush_heat_ = obs_->metrics().AddHistogram("residency/flush_heat_x100");
}

Status ResidencyManager::CheckInvariants() const {
  const auto fail = [](SlotId id, const std::string& what) {
    return InternalError("residency: slot " + std::to_string(id) + " " + what);
  };
  // Which list each slot was found on, by walking every list once.
  std::vector<uint8_t> seen(blocks_.end(), 0);
  // Pages seen held, per medium, to catch two slots sharing one.
  std::vector<uint8_t> held[] = {
      std::vector<uint8_t>(storage_.total_pages(PageTier::kDram), 0),
      std::vector<uint8_t>(storage_.total_pages(PageTier::kNvm), 0)};
  // dirty_pages(), clean_pages() and nvm_pages() are the lists' sizes.
  const auto walk = [&](const SlotList& list, Residency where,
                        PageTier medium, const char* name) -> Status {
    uint64_t length = 0;
    SlotId prev = kNoSlot;
    for (SlotId id = list.head; id != kNoSlot; id = blocks_[id].next) {
      if (id >= blocks_.end() || !blocks_.live(id)) {
        return fail(id, std::string("is free but linked on ") + name);
      }
      if (seen[id] != 0) {
        return fail(id, std::string("is on two lists, or twice on ") + name);
      }
      seen[id] = 1;
      const BlockState& b = blocks_[id];
      if (b.where != where || b.prev != prev) {
        return fail(id, std::string("is mislinked on ") + name);
      }
      std::vector<uint8_t>& used = held[static_cast<size_t>(medium)];
      if (!storage_.IsPageUsed(medium, b.page) || used[b.page] != 0) {
        return fail(id, "holds a page that is free or shared");
      }
      used[b.page] = 1;
      prev = id;
      ++length;
    }
    if (list.tail != prev || length != list.size) {
      return InternalError(std::string("residency: ") + name +
                           " list length does not match its count");
    }
    return Status::Ok();
  };
  if (dirty_backend_ != nullptr) {
    SSMC_RETURN_IF_ERROR(
        walk(dirty_backend_->lru(), Residency::kDirty, PageTier::kDram,
             "dirty"));
  }
  for (const CacheTier& tier : tiers_) {
    SSMC_RETURN_IF_ERROR(walk(tier.lru, tier.residency, tier.medium,
                              tier.residency == Residency::kNvm ? "nvm"
                                                                : "clean"));
    if (tier.lru.size > tier.capacity_pages) {
      return InternalError("residency: a cache tier exceeds its budget");
    }
  }
  uint64_t live = 0;
  uint64_t heated = 0;
  for (SlotId id = 1; id < blocks_.end(); ++id) {
    const BlockState& b = blocks_[id];
    if (!blocks_.live(id)) {
      if (b.where != Residency::kHole || b.prev != kNoSlot ||
          b.next != kNoSlot) {
        return fail(id, "is free but still linked");
      }
      continue;
    }
    ++live;
    heated += b.raw != 0 ? 1 : 0;
    if (b.where == Residency::kHole ? b.raw == 0 : seen[id] == 0) {
      return fail(id, b.where == Residency::kHole ? "is live but idle"
                                                   : "is on no list");
    }
  }
  if (live != blocks_.live_slots() || heated != heated_) {
    return InternalError("residency: slot or heat count is off");
  }
  return Status::Ok();
}

}  // namespace ssmc
