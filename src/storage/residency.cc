#include "src/storage/residency.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "src/obs/obs.h"
#include "src/storage/storage_manager.h"
#include "src/storage/write_buffer.h"

namespace ssmc {

namespace {

// kAggressive: flushes of blocks with decayed heat below this go out on the
// relocation (cold) write stream.
constexpr double kColdHintHeat = 0.5;
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
  // Tier 0: the DRAM clean cache, always present.
  CacheTier dram_tier;
  dram_tier.residency = Residency::kClean;
  dram_tier.capacity_pages = MaxCleanPages();
  tiers_.push_back(std::move(dram_tier));
  // Tier 1: the NVM cache, only when the machine has NVM capacity — the
  // two-tier hierarchy stays bit-identical with no NVM behind the manager.
  if (storage_.total_nvm_pages() > 0) {
    CacheTier nvm_tier;
    nvm_tier.residency = Residency::kNvm;
    nvm_tier.capacity_pages = storage_.total_nvm_pages();
    tiers_.push_back(std::move(nvm_tier));
  }
}

ResidencyManager::~ResidencyManager() {
  InvalidateAllClean();
  if (obs_ != nullptr) {
    obs_->metrics().FlushAndRemoveCollector("residency");
  }
}

void ResidencyManager::DetachFilesystem() {
  dirty_backend_ = nullptr;
  InvalidateAllClean();
  heat_.clear();
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

Residency ResidencyManager::Resolve(const BlockKey& key,
                                    int64_t flash_block) const {
  if (dirty_backend_ != nullptr && dirty_backend_->Contains(key)) {
    return Residency::kDirty;
  }
  // Cache tiers top-down: the fastest copy wins.
  for (const CacheTier& tier : tiers_) {
    if (tier.entries.find(key) != tier.entries.end()) {
      return tier.residency;
    }
  }
  if (flash_block >= 0) {
    return Residency::kFlash;
  }
  return Residency::kHole;
}

std::vector<ResidencyManager::TierStatus> ResidencyManager::Tiers() const {
  std::vector<TierStatus> out;
  out.reserve(tiers_.size());
  for (const CacheTier& tier : tiers_) {
    TierStatus s;
    s.residency = tier.residency;
    s.capacity_pages = tier.capacity_pages;
    s.cached_pages = tier.entries.size();
    out.push_back(s);
  }
  return out;
}

Status ResidencyManager::ReadClean(const BlockKey& key, uint64_t offset,
                                   std::span<uint8_t> out) {
  CacheTier& tier = tiers_[kDramTier];
  auto it = tier.entries.find(key);
  if (it == tier.entries.end()) {
    return NotFoundError("block not clean-cached");
  }
  if (offset + out.size() > storage_.page_bytes()) {
    return OutOfRangeError("clean-cache read exceeds block bounds");
  }
  // Refresh LRU: splice the entry to the MRU end.
  tier.lru.splice(tier.lru.end(), tier.lru, it->second.lru_it);
  storage_.ReadPagePayload(it->second.page, offset, out);
  stats_.clean_hits.Add();
  stats_.clean_hit_bytes.Add(out.size());
  TenantResidency& lane = stats_.by_tenant.For(tenant_);
  lane.clean_hits.Add();
  lane.clean_hit_bytes.Add(out.size());
  return Status::Ok();
}

Status ResidencyManager::ReadNvm(const BlockKey& key, uint64_t offset,
                                 std::span<uint8_t> out) {
  if (!has_nvm_tier()) {
    return NotFoundError("no NVM tier");
  }
  CacheTier& tier = tiers_[kNvmTier];
  auto it = tier.entries.find(key);
  if (it == tier.entries.end()) {
    return NotFoundError("block not NVM-cached");
  }
  if (offset + out.size() > storage_.page_bytes()) {
    return OutOfRangeError("NVM-cache read exceeds block bounds");
  }
  tier.lru.splice(tier.lru.end(), tier.lru, it->second.lru_it);
  // A foreground blocking read through the NVM bank scheduler: the caller
  // waits on the byte-addressable medium, at NVM (not flash) latency.
  storage_.ReadNvmPagePayload(it->second.page, offset, out,
                              ForTenant(kForegroundIo, tenant_));
  stats_.nvm_hits.Add();
  stats_.nvm_hit_bytes.Add(out.size());
  TenantResidency& lane = stats_.by_tenant.For(tenant_);
  lane.nvm_hits.Add();
  lane.nvm_hit_bytes.Add(out.size());
  return Status::Ok();
}

void ResidencyManager::FreeTierPage(const CacheTier& tier, uint64_t page) {
  if (tier.residency == Residency::kNvm) {
    (void)storage_.FreeNvmPage(page);
  } else {
    (void)storage_.FreeDramPage(page);
  }
}

void ResidencyManager::EraseCacheEntry(
    CacheTier& tier,
    std::unordered_map<BlockKey, CacheEntry, BlockKeyHash>::iterator it) {
  FreeTierPage(tier, it->second.page);
  tier.lru.erase(it->second.lru_it);
  tier.entries.erase(it);
}

void ResidencyManager::InvalidateClean(const BlockKey& key) {
  for (CacheTier& tier : tiers_) {
    auto it = tier.entries.find(key);
    if (it == tier.entries.end()) {
      continue;
    }
    stats_.demotions_invalidated.Add();
    EraseCacheEntry(tier, it);
    return;  // Exclusive: a block lives in at most one tier.
  }
}

void ResidencyManager::InvalidateAllClean() {
  for (CacheTier& tier : tiers_) {
    stats_.demotions_invalidated.Add(tier.entries.size());
    for (auto& [key, entry] : tier.entries) {
      FreeTierPage(tier, entry.page);
    }
    tier.entries.clear();
    tier.lru.clear();
  }
}

bool ResidencyManager::DemoteOne(size_t tier_index, bool pressure) {
  CacheTier& tier = tiers_[tier_index];
  if (tier.lru.empty()) {
    return false;
  }
  auto it = tier.entries.find(tier.lru.front());
  assert(it != tier.entries.end());
  // Adjacent-tier demotion: the DRAM tail falls into the NVM tier when one
  // exists (the payload moves by reference; the block stays cached, one
  // tier colder). The bottom tier's tail drops — flash is authoritative.
  if (tier_index + 1 < tiers_.size()) {
    const BlockKey key = it->first;
    const TenantId owner = it->second.tenant;
    const Result<uint64_t> below = AllocateTierPage(tier_index + 1);
    if (below.ok()) {
      CacheTier& lower = tiers_[tier_index + 1];
      // Move the payload down by reference: one full-page read from the
      // upper medium, one background write to the lower.
      PayloadRef payload = storage_.ReadPagePayloadRef(it->second.page);
      storage_.InstallNvmPagePayload(below.value(), std::move(payload),
                                     ForTenant(kCleanerIo, owner));
      EraseCacheEntry(tier, it);
      lower.lru.push_back(key);
      CacheEntry entry;
      entry.page = below.value();
      entry.tenant = owner;
      entry.lru_it = std::prev(lower.lru.end());
      lower.entries.emplace(key, entry);
      stats_.demotions_to_nvm.Add();
      if (pressure) {
        stats_.demotions_pressure.Add();
        if (obs_ != nullptr) {
          obs_->tracer().Instant(obs_track_, "demote-pressure",
                                 storage_.dram().clock().now());
        }
      }
      return true;
    }
    // No room below (pool exhausted by other consumers): fall through and
    // drop, exactly like a bottom tier.
  }
  if (pressure) {
    stats_.demotions_pressure.Add();
    if (obs_ != nullptr) {
      obs_->tracer().Instant(obs_track_, "demote-pressure",
                             storage_.dram().clock().now());
    }
  } else {
    stats_.demotions_invalidated.Add();
  }
  EraseCacheEntry(tier, it);
  return true;
}

double ResidencyManager::DecayTo(Heat& h, SimTime now) const {
  if (now > h.last) {
    const double dt = static_cast<double>(now - h.last);
    h.decayed *= std::exp2(-dt / static_cast<double>(options_.heat_half_life));
    h.last = now;
  }
  return h.decayed;
}

double ResidencyManager::Touch(const BlockKey& key, SimTime now) {
  stats_.touches.Add();
  Heat& h = heat_[key];
  DecayTo(h, now);
  h.decayed += 1.0;
  h.raw += 1;
  const double current = h.decayed;
  if (heat_.size() > options_.max_heat_entries) {
    // Sweep entries that have gone cold. The result is order-independent
    // (every entry below the threshold goes), so unordered_map iteration
    // order cannot affect behavior.
    for (auto it = heat_.begin(); it != heat_.end();) {
      if (DecayTo(it->second, now) < 0.25) {
        it = heat_.erase(it);
      } else {
        ++it;
      }
    }
  }
  return current;
}

bool ResidencyManager::ShouldPromote(const Heat& h) const {
  switch (options_.policy) {
    case ResidencyPolicy::kWriteBufferOnly:
      return false;
    case ResidencyPolicy::kReadPromote:
      return h.decayed >= options_.promote_threshold;
    case ResidencyPolicy::kAggressive:
      return h.raw >= options_.aggressive_touches ||
             h.decayed >= options_.promote_threshold;
  }
  return false;
}

bool ResidencyManager::ShouldAdmitFromFlash(const Heat& h) const {
  if (!has_nvm_tier()) {
    return ShouldPromote(h);
  }
  switch (options_.policy) {
    case ResidencyPolicy::kWriteBufferOnly:
      return false;
    case ResidencyPolicy::kReadPromote:
      return h.decayed >= kNvmAdmitHeat;
    case ResidencyPolicy::kAggressive:
      return h.raw >= options_.aggressive_touches ||
             h.decayed >= kNvmAdmitHeat;
  }
  return false;
}

void ResidencyManager::TouchRead(const BlockKey& key, SimTime now) {
  if (!enabled()) {
    return;
  }
  (void)Touch(key, now);
}

void ResidencyManager::TouchWrite(const BlockKey& key, SimTime now) {
  if (!enabled()) {
    return;
  }
  (void)Touch(key, now);
}

void ResidencyManager::OnFlashRead(const BlockKey& key, uint64_t flash_block,
                                   SimTime now) {
  if (!enabled()) {
    return;
  }
  (void)Touch(key, now);
  auto it = heat_.find(key);
  assert(it != heat_.end());
  if (ShouldAdmitFromFlash(it->second) && !CleanCached(key) &&
      !NvmCached(key)) {
    PromoteFromFlash(key, flash_block, now);
  }
}

void ResidencyManager::OnNvmRead(const BlockKey& key, SimTime now) {
  if (!enabled()) {
    return;
  }
  (void)Touch(key, now);
  auto it = heat_.find(key);
  assert(it != heat_.end());
  if (ShouldPromote(it->second) && NvmCached(key)) {
    PromoteNvmToDram(key, now);
  }
}

bool ResidencyManager::NoteVmFault(const BlockKey& key, SimTime now) {
  if (!enabled()) {
    return false;
  }
  (void)Touch(key, now);
  auto it = heat_.find(key);
  assert(it != heat_.end());
  if (ShouldPromote(it->second)) {
    stats_.vm_promote_faults.Add();
    return true;
  }
  return false;
}

WriteStream ResidencyManager::FlushStream(const BlockKey& key, SimTime now) {
  if (options_.policy != ResidencyPolicy::kAggressive) {
    return WriteStream::kUser;
  }
  const double heat = HeatOf(key, now);
  if (flush_heat_ != nullptr) {
    flush_heat_->Record(static_cast<uint64_t>(heat * 100.0));
  }
  if (heat < kColdHintHeat) {
    stats_.cold_stream_hints.Add();
    return WriteStream::kRelocation;
  }
  return WriteStream::kUser;
}

void ResidencyManager::ForgetHeat(const BlockKey& key) { heat_.erase(key); }

double ResidencyManager::HeatOf(const BlockKey& key, SimTime now) const {
  auto it = heat_.find(key);
  if (it == heat_.end()) {
    return 0.0;
  }
  // Read-only decay: do not update the stored entry.
  const Heat& h = it->second;
  if (now <= h.last) {
    return h.decayed;
  }
  const double dt = static_cast<double>(now - h.last);
  return h.decayed *
         std::exp2(-dt / static_cast<double>(options_.heat_half_life));
}

uint64_t ResidencyManager::MaxCleanPages() const {
  return static_cast<uint64_t>(options_.max_clean_fraction *
                               static_cast<double>(storage_.total_dram_pages()));
}

Result<uint64_t> ResidencyManager::AllocateTierPage(size_t tier_index) {
  CacheTier& tier = tiers_[tier_index];
  if (tier.capacity_pages == 0) {
    return ResourceExhaustedError("tier has no budget");
  }
  // Recycle the tier's own LRU tail at its budget — a cache never squeezes
  // dirty data or VM frames to grow.
  while (tier.entries.size() >= tier.capacity_pages) {
    (void)DemoteOne(tier_index, /*pressure=*/true);
  }
  const bool nvm = tier.residency == Residency::kNvm;
  Result<uint64_t> page =
      nvm ? storage_.AllocateNvmPage() : storage_.AllocateDramPage();
  while (!page.ok() && DemoteOne(tier_index, /*pressure=*/true)) {
    page = nvm ? storage_.AllocateNvmPage() : storage_.AllocateDramPage();
  }
  return page;
}

void ResidencyManager::PromoteFromFlash(const BlockKey& key,
                                        uint64_t flash_block, SimTime now) {
  // Admission from flash targets the bottom cache tier; blocks climb the
  // rest of the ladder one tier at a time as their heat holds up.
  const size_t target = tiers_.size() - 1;
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
    FreeTierPage(tiers_[target], page.value());
    return;
  }
  CacheTier& tier = tiers_[target];
  if (tier.residency == Residency::kNvm) {
    storage_.InstallNvmPagePayload(page.value(), std::move(read.value()),
                                   ForTenant(kCleanerIo, tenant_));
    stats_.nvm_promotions.Add();
    stats_.nvm_promoted_bytes.Add(storage_.page_bytes());
  } else {
    storage_.InstallPagePayload(page.value(), std::move(read.value()));
    stats_.promotions.Add();
    stats_.promoted_bytes.Add(storage_.page_bytes());
    TenantResidency& lane = stats_.by_tenant.For(tenant_);
    lane.promotions.Add();
    lane.promoted_bytes.Add(storage_.page_bytes());
  }
  tier.lru.push_back(key);
  CacheEntry entry;
  entry.page = page.value();
  entry.tenant = tenant_;
  entry.lru_it = std::prev(tier.lru.end());
  tier.entries.emplace(key, entry);
  if (promote_heat_ != nullptr) {
    promote_heat_->Record(static_cast<uint64_t>(HeatOf(key, now) * 100.0));
  }
  if (obs_ != nullptr) {
    const SimTime t1 = storage_.dram().clock().now();
    obs_->tracer().Span(obs_track_, "promote", now, t1 - now,
                        {"file", key.file_id}, {"block", key.block_index});
  }
}

void ResidencyManager::PromoteNvmToDram(const BlockKey& key, SimTime now) {
  CacheTier& nvm_tier = tiers_[kNvmTier];
  auto it = nvm_tier.entries.find(key);
  if (it == nvm_tier.entries.end()) {
    return;
  }
  const Result<uint64_t> page = AllocateTierPage(kDramTier);
  if (!page.ok()) {
    return;  // DRAM budget dry: the block stays warm in NVM.
  }
  // Move the payload up by reference: a background NVM read (the migration
  // engine pulls the page) and a DRAM install. The NVM page returns to the
  // pool — tiers are exclusive.
  PayloadRef payload = storage_.ReadNvmPagePayloadRef(
      it->second.page, ForTenant(kCleanerIo, tenant_));
  storage_.InstallPagePayload(page.value(), std::move(payload));
  EraseCacheEntry(nvm_tier, it);
  CacheTier& dram_tier = tiers_[kDramTier];
  dram_tier.lru.push_back(key);
  CacheEntry entry;
  entry.page = page.value();
  entry.tenant = tenant_;
  entry.lru_it = std::prev(dram_tier.lru.end());
  dram_tier.entries.emplace(key, entry);
  stats_.nvm_to_dram_promotions.Add();
  stats_.promotions.Add();
  stats_.promoted_bytes.Add(storage_.page_bytes());
  TenantResidency& lane = stats_.by_tenant.For(tenant_);
  lane.promotions.Add();
  lane.promoted_bytes.Add(storage_.page_bytes());
  if (promote_heat_ != nullptr) {
    promote_heat_->Record(static_cast<uint64_t>(HeatOf(key, now) * 100.0));
  }
  if (obs_ != nullptr) {
    const SimTime t1 = storage_.dram().clock().now();
    obs_->tracer().Span(obs_track_, "promote-nvm-dram", now, t1 - now,
                        {"file", key.file_id}, {"block", key.block_index});
  }
}

Result<uint64_t> ResidencyManager::AllocateDramPage(ReclaimSource* requester) {
  Result<uint64_t> page = storage_.AllocateDramPage();
  // 1. The clean cache is the cheapest thing in DRAM: demote it first (with
  // an NVM tier the tail falls one tier rather than out of the hierarchy).
  while (!page.ok() && enabled() && DemoteOneClean(/*pressure=*/true)) {
    page = storage_.AllocateDramPage();
  }
  // 2. The requester's own reclaimable pages — exactly the historical VM
  // reclaim loop, so kWriteBufferOnly behavior is unchanged.
  while (!page.ok() && requester != nullptr && requester->TryReclaimOne()) {
    page = storage_.AllocateDramPage();
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
        page = storage_.AllocateDramPage();
      }
      if (page.ok()) {
        break;
      }
    }
  }
  return page;
}

void ResidencyManager::AttachObs(Obs* obs) {
  if (obs_ != nullptr && obs_ != obs) {
    obs_->metrics().FlushAndRemoveCollector("residency");
  }
  obs_ = obs;
  if (obs_ == nullptr) {
    promote_heat_ = nullptr;
    flush_heat_ = nullptr;
    return;
  }
  obs_track_ = obs_->tracer().RegisterTrack("residency");
  MetricsRegistry& m = obs_->metrics();
  promote_heat_ = m.AddHistogram("residency/promote_heat_x100");
  flush_heat_ = m.AddHistogram("residency/flush_heat_x100");
  Counter* touches = m.AddCounter("residency/touches");
  Counter* promotions = m.AddCounter("residency/promotions");
  Counter* promoted_bytes = m.AddCounter("residency/promoted_bytes");
  Counter* clean_hits = m.AddCounter("residency/clean_hits");
  Counter* clean_hit_bytes = m.AddCounter("residency/clean_hit_bytes");
  Counter* dem_pressure = m.AddCounter("residency/demotions_pressure");
  Counter* dem_invalid = m.AddCounter("residency/demotions_invalidated");
  Counter* cold_hints = m.AddCounter("residency/cold_stream_hints");
  Counter* vm_promotes = m.AddCounter("residency/vm_promote_faults");
  Gauge* clean_pages_g = m.AddGauge("residency/clean_pages");
  Gauge* heat_entries = m.AddGauge("residency/heat_entries");
  Counter* nvm_promotions = nullptr;
  Counter* nvm_promoted_bytes = nullptr;
  Counter* nvm_hits = nullptr;
  Counter* nvm_hit_bytes = nullptr;
  Counter* nvm_to_dram = nullptr;
  Counter* dem_to_nvm = nullptr;
  Gauge* nvm_pages_g = nullptr;
  if (has_nvm_tier()) {
    nvm_promotions = m.AddCounter("residency/nvm_promotions");
    nvm_promoted_bytes = m.AddCounter("residency/nvm_promoted_bytes");
    nvm_hits = m.AddCounter("residency/nvm_hits");
    nvm_hit_bytes = m.AddCounter("residency/nvm_hit_bytes");
    nvm_to_dram = m.AddCounter("residency/nvm_to_dram_promotions");
    dem_to_nvm = m.AddCounter("residency/demotions_to_nvm");
    nvm_pages_g = m.AddGauge("residency/nvm_pages");
  }
  m.AddCollector("residency", [=, this] {
    auto mirror = [](Counter* dst, const Counter& src) {
      dst->Reset();
      dst->Add(src.value());
    };
    mirror(touches, stats_.touches);
    mirror(promotions, stats_.promotions);
    mirror(promoted_bytes, stats_.promoted_bytes);
    mirror(clean_hits, stats_.clean_hits);
    mirror(clean_hit_bytes, stats_.clean_hit_bytes);
    mirror(dem_pressure, stats_.demotions_pressure);
    mirror(dem_invalid, stats_.demotions_invalidated);
    mirror(cold_hints, stats_.cold_stream_hints);
    mirror(vm_promotes, stats_.vm_promote_faults);
    clean_pages_g->Set(static_cast<int64_t>(clean_pages()));
    heat_entries->Set(static_cast<int64_t>(heat_.size()));
    if (nvm_promotions != nullptr) {
      mirror(nvm_promotions, stats_.nvm_promotions);
      mirror(nvm_promoted_bytes, stats_.nvm_promoted_bytes);
      mirror(nvm_hits, stats_.nvm_hits);
      mirror(nvm_hit_bytes, stats_.nvm_hit_bytes);
      mirror(nvm_to_dram, stats_.nvm_to_dram_promotions);
      mirror(dem_to_nvm, stats_.demotions_to_nvm);
      nvm_pages_g->Set(static_cast<int64_t>(nvm_pages()));
    }
    // Per-tenant DRAM share and promotion counters, registered lazily as
    // tenants appear (AddCounter/AddGauge are idempotent per name). The
    // clean-page split is recomputed at snapshot time: one scan of the
    // cache beats keeping counters consistent across every demote path.
    if (!stats_.by_tenant.empty()) {
      TenantTable<uint64_t> pages;
      for (const auto& [key, entry] : tiers_[kDramTier].entries) {
        pages.For(entry.tenant) += 1;
      }
      for (const auto& e : stats_.by_tenant.entries()) {
        const std::string base =
            "residency/tenant" + std::to_string(e.tenant) + "/";
        auto mirror_lane = [&](const char* key, const Counter& src) {
          Counter* dst = obs_->metrics().AddCounter(base + key);
          dst->Reset();
          dst->Add(src.value());
        };
        mirror_lane("promotions", e.value.promotions);
        mirror_lane("promoted_bytes", e.value.promoted_bytes);
        mirror_lane("clean_hits", e.value.clean_hits);
        mirror_lane("clean_hit_bytes", e.value.clean_hit_bytes);
        if (has_nvm_tier()) {
          mirror_lane("nvm_hits", e.value.nvm_hits);
          mirror_lane("nvm_hit_bytes", e.value.nvm_hit_bytes);
        }
        const uint64_t* share = pages.Find(e.tenant);
        obs_->metrics()
            .AddGauge(base + "clean_pages")
            ->Set(static_cast<int64_t>(share != nullptr ? *share : 0));
      }
    }
  });
}

}  // namespace ssmc
