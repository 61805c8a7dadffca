#include "src/vm/address_space.h"

#include <algorithm>
#include <cassert>

namespace ssmc {

AddressSpace::AddressSpace(StorageManager& storage)
    : storage_(storage), table_(storage.page_bytes(), &storage) {
  storage_.residency().RegisterSource(this);
}

AddressSpace::~AddressSpace() {
  storage_.residency().DropSource(this);
  while (!regions_.empty()) {
    (void)Unmap(regions_.front().start);
  }
}

const AddressSpace::Region* AddressSpace::FindRegion(uint64_t va) const {
  for (const Region& r : regions_) {
    if (va >= r.start && va < r.start + r.length) {
      return &r;
    }
  }
  return nullptr;
}

namespace {
// The storage manager tier behind a DRAM or NVM frame.
PageTier FrameTier(FrameBacking backing) {
  assert(backing != FrameBacking::kFlash);
  return backing == FrameBacking::kNvm ? PageTier::kNvm : PageTier::kDram;
}

uint64_t RoundUp(uint64_t v, uint64_t unit) {
  return (v + unit - 1) / unit * unit;
}
}  // namespace

Status AddressSpace::MapAnonymous(uint64_t va, uint64_t length,
                                  const std::string& name) {
  if (va % page_bytes() != 0 || length == 0) {
    return InvalidArgumentError("bad anonymous mapping");
  }
  length = RoundUp(length, page_bytes());
  for (const Region& r : regions_) {
    if (va < r.start + r.length && r.start < va + length) {
      return AlreadyExistsError("overlapping mapping");
    }
  }
  Region region;
  region.start = va;
  region.length = length;
  region.kind = RegionKind::kAnonymous;
  region.writable = true;
  region.name = name;
  regions_.push_back(std::move(region));
  storage_.ChargeMetadataWrite(64);  // Region descriptor.
  return Status::Ok();
}

Status AddressSpace::MapFileCow(uint64_t va, MemoryFileSystem& fs,
                                const std::string& path, bool writable) {
  if (va % page_bytes() != 0) {
    return InvalidArgumentError("unaligned mapping");
  }
  Result<FileInfo> info = fs.Stat(path);
  if (!info.ok()) {
    return info.status();
  }
  if (info.value().is_directory || info.value().size == 0) {
    return InvalidArgumentError("cannot map " + path);
  }
  const uint64_t length = RoundUp(info.value().size, page_bytes());
  for (const Region& r : regions_) {
    if (va < r.start + r.length && r.start < va + length) {
      return AlreadyExistsError("overlapping mapping");
    }
  }
  Region region;
  region.start = va;
  region.length = length;
  region.kind = RegionKind::kFileCow;
  region.writable = writable;
  region.name = path;
  region.fs = &fs;
  region.path = path;
  regions_.push_back(std::move(region));
  storage_.ChargeMetadataWrite(64);
  return Status::Ok();
}

Status AddressSpace::MapXip(uint64_t va, MemoryFileSystem& fs,
                            const std::string& path) {
  SSMC_RETURN_IF_ERROR(MapFileCow(va, fs, path, /*writable=*/false));
  regions_.back().kind = RegionKind::kXip;
  return Status::Ok();
}

Status AddressSpace::MapFileDemandCopy(uint64_t va, MemoryFileSystem& fs,
                                       const std::string& path,
                                       bool writable) {
  SSMC_RETURN_IF_ERROR(MapFileCow(va, fs, path, writable));
  regions_.back().kind = RegionKind::kFileDemandCopy;
  return Status::Ok();
}

Status AddressSpace::Unmap(uint64_t va) {
  auto it = std::find_if(regions_.begin(), regions_.end(),
                         [va](const Region& r) { return r.start == va; });
  if (it == regions_.end()) {
    return NotFoundError("no region at that address");
  }
  for (uint64_t page_va = it->start; page_va < it->start + it->length;
       page_va += page_bytes()) {
    PageTableEntry* pte = table_.Find(page_va);
    if (pte != nullptr && pte->present) {
      ReleaseFrame(*pte);
      table_.Remove(page_va);
    }
  }
  regions_.erase(it);
  return Status::Ok();
}

uint64_t& AddressSpace::ResidentPages(PageTier tier) {
  return tier == PageTier::kNvm ? resident_nvm_pages_ : resident_dram_pages_;
}

void AddressSpace::ReleaseFrame(const PageTableEntry& pte) {
  if (pte.backing == FrameBacking::kFlash) {
    return;  // The frame is a mapping into the store, not an allocation.
  }
  const PageTier tier = FrameTier(pte.backing);
  (void)storage_.FreePage(tier, pte.frame);
  assert(ResidentPages(tier) > 0);
  --ResidentPages(tier);
}

bool AddressSpace::ReclaimOnePage() {
  while (!reclaim_candidates_.empty()) {
    const uint64_t page_va = reclaim_candidates_.front();
    reclaim_candidates_.pop_front();
    PageTableEntry* pte = table_.Find(page_va);
    if (pte == nullptr || !pte->present ||
        pte->backing != FrameBacking::kDram || pte->dirty) {
      continue;  // Gone, relocated, or no longer clean.
    }
    const Region* region = FindRegion(page_va);
    if (region == nullptr || region->kind == RegionKind::kAnonymous) {
      continue;  // Not re-fetchable.
    }
    // Clean file-backed page: its content can always be re-fetched from the
    // file system (flash or the battery-backed write buffer), so drop it.
    ReleaseFrame(*pte);
    table_.MarkPresent(*pte, false);
    *pte = PageTableEntry{};
    stats_.reclaimed_pages.Add();
    return true;
  }
  return false;
}

Result<uint64_t> AddressSpace::AllocateDramPageWithReclaim() {
  return storage_.residency().AllocateDramPage(this);
}

Result<uint64_t> AddressSpace::CopyBlockToDram(const Region& region,
                                               uint64_t va) {
  const uint64_t page_va = va / page_bytes() * page_bytes();
  const uint64_t offset_in_file = page_va - region.start;
  std::vector<uint8_t> staging(page_bytes(), 0);
  // Reads through the file system: flash (or buffer) pays its access cost.
  Result<uint64_t> n = region.fs->Read(region.path, offset_in_file, staging);
  if (!n.ok()) {
    return n.status();
  }
  Result<uint64_t> page = AllocateDramPageWithReclaim();
  if (!page.ok()) {
    return page.status();
  }
  storage_.WritePagePayload(page.value(), 0, staging);
  return page.value();
}

Status AddressSpace::HandleFault(const Region& region, uint64_t va,
                                 bool for_write, PageTableEntry& pte) {
  stats_.faults.Add();
  const uint64_t page_va = va / page_bytes() * page_bytes();

  if (region.kind == RegionKind::kAnonymous) {
    Result<uint64_t> page = AllocateDramPageWithReclaim();
    if (!page.ok()) {
      return page.status();
    }
    // Zero-fill costs one DRAM page write; the frame aliases the shared
    // all-zeros extent until its first real write copies it.
    storage_.ZeroFillPagePayload(page.value());
    pte.backing = FrameBacking::kDram;
    pte.frame = page.value();
    pte.writable = true;
    table_.MarkPresent(pte, true);
    ++resident_dram_pages_;
    stats_.zero_fill_faults.Add();
    return Status::Ok();
  }

  // File-backed region.
  const uint64_t block_index = (page_va - region.start) / page_bytes();
  Result<std::vector<BlockLocation>> locations =
      region.fs->BlockLocations(region.path);
  if (!locations.ok()) {
    return locations.status();
  }
  const BlockLocation location =
      block_index < locations.value().size() ? locations.value()[block_index]
                                             : BlockLocation{};

  if (location.kind == BlockLocation::Kind::kFlash && !for_write &&
      region.kind != RegionKind::kFileDemandCopy) {
    // VM faults feed block heat too (migration policies only — the fs
    // walks the namespace to reach the block's state, and kWriteBufferOnly
    // must stay byte-identical). A block hot enough to promote is copied
    // into this space's DRAM instead of being mapped in place, so its
    // accesses run at DRAM speed.
    const bool promote_to_dram =
        storage_.residency().enabled() &&
        region.fs->NoteVmFault(region.path, block_index);
    if (!promote_to_dram) {
      // Map the flash block in place: no copy, no DRAM consumed. The PTE
      // holds the *logical* store block; accesses re-resolve the physical
      // address so cleaning cannot leave the mapping stale.
      pte.backing = FrameBacking::kFlash;
      pte.frame = location.flash_block;
      pte.writable = false;
      table_.MarkPresent(pte, true);
      stats_.flash_map_faults.Add();
      return Status::Ok();
    }
  }

  // Copy path: demand-copy regions, buffered or hole blocks, write faults.
  Result<uint64_t> page = CopyBlockToDram(region, va);
  if (!page.ok()) {
    return page.status();
  }
  pte.backing = FrameBacking::kDram;
  pte.frame = page.value();
  pte.writable = region.writable;
  table_.MarkPresent(pte, true);
  ++resident_dram_pages_;
  if (for_write) {
    stats_.cow_faults.Add();
  } else {
    if (region.kind == RegionKind::kFileDemandCopy) {
      stats_.demand_copies.Add();
    }
    // A clean file-backed copy can be dropped under memory pressure.
    reclaim_candidates_.push_back(page_va);
  }
  return Status::Ok();
}

Result<PageTableEntry*> AddressSpace::EnsurePresent(uint64_t va,
                                                    bool for_write) {
  const Region* region = FindRegion(va);
  if (region == nullptr) {
    return OutOfRangeError("unmapped address");
  }
  if (for_write && !region->writable) {
    stats_.protection_errors.Add();
    return PermissionDeniedError("write to read-only region " + region->name);
  }
  const uint64_t page_va = va / page_bytes() * page_bytes();
  PageTableEntry& pte = table_.FindOrCreate(page_va);
  if (!pte.present) {
    SSMC_RETURN_IF_ERROR(HandleFault(*region, va, for_write, pte));
  }
  if (for_write && !pte.writable) {
    // Copy-on-write: the page is mapped read-only into flash (or was
    // hardware-migrated into NVM or DRAM); the first write copies the
    // affected block to a fresh DRAM page (Section 3.1) and the old frame
    // is released.
    stats_.faults.Add();
    stats_.cow_faults.Add();
    Result<uint64_t> page = CopyBlockToDram(*region, va);
    if (!page.ok()) {
      return page.status();
    }
    // Allocating the copy can reclaim this very page (a clean DRAM frame),
    // which releases its frame and unmaps it.
    if (pte.present) {
      ReleaseFrame(pte);
    } else {
      table_.MarkPresent(pte, true);
    }
    pte.backing = FrameBacking::kDram;
    pte.frame = page.value();
    pte.writable = true;
    ++resident_dram_pages_;
  }
  pte.accessed = true;
  if (for_write) {
    pte.dirty = true;
  }
  return &pte;
}

Result<Duration> AddressSpace::FrameRead(const PageTableEntry& pte,
                                         uint64_t offset,
                                         std::span<uint8_t> out) {
  if (pte.backing == FrameBacking::kFlash) {
    return storage_.flash_store().ReadPartial(pte.frame, offset, out);
  }
  // A DRAM frame or a hardware-migrated NVM page: a byte-addressable access,
  // the caller blocks at the medium's (not flash) latency.
  return storage_.ReadPagePayload(FrameTier(pte.backing), pte.frame, offset,
                                  out, kForegroundIo);
}

Result<Duration> AddressSpace::FrameWrite(PageTableEntry& pte, uint64_t offset,
                                          std::span<const uint8_t> data) {
  assert(pte.backing == FrameBacking::kDram && "writes always land in DRAM");
  return storage_.WritePagePayload(pte.frame, offset, data);
}

void AddressSpace::NoteHwAccess(uint64_t page_va) {
  auto [it, inserted] = hw_access_counts_.emplace(page_va, 0);
  if (inserted) {
    hw_access_order_.push_back(page_va);
  }
  ++it->second;
  if (++hw_epoch_spent_ >= hw_migration_.epoch_accesses) {
    RunHwEpoch();
  }
}

void AddressSpace::RunHwEpoch() {
  stats_.hw_epochs.Add();
  const FrameBacking backing = storage_.total_pages(PageTier::kNvm) > 0
                                   ? FrameBacking::kNvm
                                   : FrameBacking::kDram;
  const PageTier tier = FrameTier(backing);
  for (const uint64_t page_va : hw_access_order_) {
    if (hw_access_counts_[page_va] < hw_migration_.promote_threshold) {
      continue;
    }
    PageTableEntry* pte = table_.Find(page_va);
    if (pte == nullptr || !pte->present ||
        pte->backing != FrameBacking::kFlash) {
      continue;  // Unmapped or already moved since it was counted.
    }
    // Hardware cannot ask the OS to reclaim: a plain allocation, and a hot
    // page simply stays flash-mapped when the pool is dry.
    Result<uint64_t> page = storage_.AllocatePage(tier);
    if (!page.ok()) {
      continue;
    }
    // The migration engine copies the block in the background (the CPU is
    // not blocked on it) and remaps the PTE. The PTE held the *logical*
    // store block, so the copy source re-resolves through the FTL — a
    // concurrent cleaner relocation cannot leave this stale.
    Result<PayloadRef> payload =
        storage_.flash_store().ReadRef(pte->frame, kCleanerIo);
    if (!payload.ok()) {
      (void)storage_.FreePage(tier, page.value());
      continue;
    }
    storage_.InstallPagePayload(tier, page.value(), std::move(payload.value()),
                                kCleanerIo);
    pte->backing = backing;
    pte->frame = page.value();
    ++ResidentPages(tier);
    // Migrated pages stay read-only: the first write still takes the normal
    // copy-on-write fault into DRAM.
    stats_.hw_migrations.Add();
    stats_.hw_migrated_bytes.Add(page_bytes());
  }
  hw_access_counts_.clear();
  hw_access_order_.clear();
  hw_epoch_spent_ = 0;
}

Result<Duration> AddressSpace::Read(uint64_t va, std::span<uint8_t> out) {
  Duration total = 0;
  uint64_t done = 0;
  while (done < out.size()) {
    const uint64_t pos = va + done;
    const uint64_t in_page = pos % page_bytes();
    const uint64_t chunk = std::min(page_bytes() - in_page,
                                    static_cast<uint64_t>(out.size()) - done);
    Result<PageTableEntry*> pte = EnsurePresent(pos, /*for_write=*/false);
    if (!pte.ok()) {
      return pte.status();
    }
    if (hw_migration_.enabled &&
        pte.value()->backing == FrameBacking::kFlash) {
      // The memory controller counts this access; the scan it may trigger
      // can migrate the page before the read below (which then runs at the
      // new tier's speed — exactly what transparent remap means).
      NoteHwAccess(pos / page_bytes() * page_bytes());
    }
    Result<Duration> r = FrameRead(
        *pte.value(), in_page, std::span<uint8_t>(out.data() + done, chunk));
    if (!r.ok()) {
      return r.status();
    }
    total += r.value();
    done += chunk;
  }
  stats_.reads.Add();
  return total;
}

Result<Duration> AddressSpace::Write(uint64_t va,
                                     std::span<const uint8_t> data) {
  Duration total = 0;
  uint64_t done = 0;
  while (done < data.size()) {
    const uint64_t pos = va + done;
    const uint64_t in_page = pos % page_bytes();
    const uint64_t chunk = std::min(page_bytes() - in_page,
                                    static_cast<uint64_t>(data.size()) - done);
    Result<PageTableEntry*> pte = EnsurePresent(pos, /*for_write=*/true);
    if (!pte.ok()) {
      return pte.status();
    }
    Result<Duration> r = FrameWrite(
        *pte.value(), in_page,
        std::span<const uint8_t>(data.data() + done, chunk));
    if (!r.ok()) {
      return r.status();
    }
    total += r.value();
    done += chunk;
  }
  stats_.writes.Add();
  return total;
}

Result<Duration> AddressSpace::Fetch(uint64_t va, uint64_t bytes) {
  std::vector<uint8_t> sink(bytes);
  return Read(va, sink);
}

Result<Duration> AddressSpace::Populate(uint64_t va) {
  const Region* region = FindRegion(va);
  if (region == nullptr) {
    return NotFoundError("no region at that address");
  }
  const SimTime before = storage_.flash_store().device().clock().now();
  for (uint64_t page_va = region->start;
       page_va < region->start + region->length; page_va += page_bytes()) {
    Result<PageTableEntry*> pte = EnsurePresent(page_va, /*for_write=*/false);
    if (!pte.ok()) {
      return pte.status();
    }
    if (pte.value()->backing == FrameBacking::kFlash) {
      // Force the copy the eager loader would have made.
      Result<uint64_t> page = CopyBlockToDram(*region, page_va);
      if (!page.ok()) {
        return page.status();
      }
      pte.value()->backing = FrameBacking::kDram;
      pte.value()->frame = page.value();
      pte.value()->writable = region->writable;
      ++resident_dram_pages_;
    }
  }
  return storage_.flash_store().device().clock().now() - before;
}

}  // namespace ssmc
