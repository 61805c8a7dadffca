#include "src/storage/storage_manager.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

namespace ssmc {

StorageManager::StorageManager(DramDevice& dram, FlashStore& flash_store,
                               uint64_t page_bytes,
                               ResidencyOptions residency, NvmDevice* nvm)
    : dram_(dram), flash_store_(flash_store), nvm_(nvm),
      page_bytes_(page_bytes),
      tiers_{TierPages{IndexPool(dram.capacity_bytes() / page_bytes), {}},
             TierPages{IndexPool(nvm != nullptr
                                     ? nvm->capacity_bytes() / page_bytes
                                     : 0),
                       {}}},
      flash_blocks_(flash_store.num_blocks()) {
  assert(page_bytes_ > 0);
  assert(page_bytes_ == flash_store_.block_bytes() &&
         "DRAM page size must match the flash store block size");
  // Built after the allocators so the residency manager can size its cache
  // tiers against total_pages().
  residency_ = std::make_unique<ResidencyManager>(*this, residency);
}

void StorageManager::AttachObs(Obs* obs) {
  residency_->AttachObs(obs);
  std::vector<StatsMirror::GaugeField> gauges = {
      {"free_dram_pages", [this] { return free_pages(PageTier::kDram); }},
      {"total_dram_pages", [this] { return total_pages(PageTier::kDram); }},
      {"free_flash_blocks", [this] { return free_flash_blocks(); }},
      {"total_flash_blocks", [this] { return total_flash_blocks(); }}};
  if (nvm_ != nullptr) {
    gauges.insert(
        gauges.end(),
        {{"free_nvm_pages", [this] { return free_pages(PageTier::kNvm); }},
         {"total_nvm_pages", [this] { return total_pages(PageTier::kNvm); }}});
  }
  mirror_.Attach(obs, {}, std::move(gauges));
}

uint64_t StorageManager::IndexPool::Take() {
  assert(free_ > 0);
  free_ -= 1;
  uint64_t i;
  if (!recycled_.empty()) {
    i = recycled_.back();
    recycled_.pop_back();
  } else {
    while (used(cursor_)) {
      ++cursor_;  // Claimed ahead of the cursor.
    }
    i = cursor_++;
  }
  MarkUsed(i);
  return i;
}

void StorageManager::IndexPool::MarkUsed(uint64_t i) {
  assert(i < capacity_);
  if (i >= used_.size()) {
    used_.resize(i + 1);  // Grows geometrically.
  }
  used_[i] = true;
}

void StorageManager::IndexPool::Claim(uint64_t i) {
  assert(!used(i));
  // A recycled index leaves the stack in place, keeping the rest in order;
  // any other unused index is still ahead of the cursor, which skips it.
  if (auto it = std::find(recycled_.begin(), recycled_.end(), i);
      it != recycled_.end()) {
    recycled_.erase(it);
  }
  MarkUsed(i);
  free_ -= 1;
}

Result<uint64_t> StorageManager::AllocatePage(PageTier tier) {
  TierPages& t = pages(tier);
  if (t.pool.free() == 0) {
    return ResourceExhaustedError(tier == PageTier::kDram
                                      ? "out of DRAM pages"
                                      : "out of NVM pages");
  }
  const uint64_t page = t.pool.Take();
  if (page >= t.payloads.size()) {
    t.payloads.resize(t.pool.high_water());
  }
  return page;
}

Status StorageManager::FreePageError(uint64_t page, uint64_t capacity) {
  if (page >= capacity) {
    return OutOfRangeError("no such page");
  }
  return FailedPreconditionError("double free of page " +
                                 std::to_string(page));
}

Duration StorageManager::Charge(PageTier tier, uint64_t page, uint64_t offset,
                                uint64_t bytes, bool is_write, IoIssue issue) {
  if (tier == PageTier::kDram) {
    return dram_.ChargeAccess(bytes, is_write);
  }
  assert(nvm_ != nullptr);
  const uint64_t addr = PageAddress(page) + offset;
  const Result<Duration> d = is_write ? nvm_->Write(addr, bytes, issue)
                                      : nvm_->Read(addr, bytes, issue);
  return d.value_or(0);
}

const PayloadRef& StorageManager::ZeroExtent() {
  if (!zero_extent_) {
    zero_extent_ = extent_pool().Allocate();
    std::memset(zero_extent_.MutableData(), 0, page_bytes_);
  }
  return zero_extent_;
}

Duration StorageManager::ReadPagePayload(PageTier tier, uint64_t page,
                                         uint64_t offset,
                                         std::span<uint8_t> out,
                                         IoIssue issue) {
  TierPages& t = pages(tier);
  assert(page < t.payloads.size() && offset + out.size() <= page_bytes_);
  const Duration d =
      Charge(tier, page, offset, out.size(), /*is_write=*/false, issue);
  const PayloadRef& ref = t.payloads[page];
  if (ref) {
    std::memcpy(out.data(), ref.data() + offset, out.size());
  } else {
    std::memset(out.data(), 0, out.size());
  }
  return d;
}

Duration StorageManager::InstallPagePayload(PageTier tier, uint64_t page,
                                            PayloadRef payload,
                                            IoIssue issue) {
  TierPages& t = pages(tier);
  assert(page < t.payloads.size() && payload.size() == page_bytes_);
  const Duration d =
      Charge(tier, page, 0, page_bytes_, /*is_write=*/true, issue);
  t.payloads[page] = std::move(payload);
  return d;
}

PayloadRef StorageManager::ReadPagePayloadRef(PageTier tier, uint64_t page,
                                              IoIssue issue) {
  TierPages& t = pages(tier);
  assert(page < t.payloads.size());
  Charge(tier, page, 0, page_bytes_, /*is_write=*/false, issue);
  PayloadRef& ref = t.payloads[page];
  if (!ref) {
    ref = ZeroExtent();
  }
  return ref;
}

Duration StorageManager::WritePagePayload(uint64_t page, uint64_t offset,
                                          std::span<const uint8_t> data) {
  std::vector<PayloadRef>& payloads = pages(PageTier::kDram).payloads;
  assert(page < payloads.size() && offset + data.size() <= page_bytes_);
  const Duration d = dram_.ChargeAccess(data.size(), /*is_write=*/true);
  PayloadRef& ref = payloads[page];
  if (!ref) {
    if (offset == 0 && data.size() == page_bytes_) {
      ref = extent_pool().AllocateCopy(data.data());
      return d;
    }
    ref = extent_pool().Allocate();
    std::memset(ref.MutableData(), 0, page_bytes_);
  }
  // MutableData clones the extent first when it is aliased (a flushed copy
  // programmed into flash, a shared zero page), so writers never disturb
  // other holders.
  std::memcpy(ref.MutableData() + offset, data.data(), data.size());
  return d;
}

Duration StorageManager::ZeroFillPagePayload(uint64_t page) {
  return InstallPagePayload(PageTier::kDram, page, ZeroExtent(), {});
}

void StorageManager::DropPagePayload(uint64_t page) {
  std::vector<PayloadRef>& payloads = pages(PageTier::kDram).payloads;
  assert(page < payloads.size());
  payloads[page].Reset();
}

void StorageManager::DropAllPagePayloads() {
  for (PayloadRef& ref : pages(PageTier::kDram).payloads) {
    ref.Reset();
  }
  zero_extent_.Reset();
}

Status StorageManager::ReserveFlashBlock(uint64_t block) {
  if (block >= flash_store_.num_blocks()) {
    return OutOfRangeError("no such flash block");
  }
  if (flash_blocks_.used(block)) {
    return AlreadyExistsError("flash block " + std::to_string(block) +
                              " is already in use");
  }
  flash_blocks_.Claim(block);
  return Status::Ok();
}

Result<uint64_t> StorageManager::AllocateFlashBlock() {
  if (flash_blocks_.free() == 0) {
    return NoSpaceError("out of flash blocks");
  }
  return flash_blocks_.Take();
}

Status StorageManager::FreeFlashBlock(uint64_t block) {
  if (block >= flash_store_.num_blocks()) {
    return OutOfRangeError("no such flash block");
  }
  if (!flash_blocks_.used(block)) {
    return FailedPreconditionError("double free of flash block " +
                                   std::to_string(block));
  }
  SSMC_RETURN_IF_ERROR(flash_store_.Trim(block));
  flash_blocks_.Put(block);
  return Status::Ok();
}

}  // namespace ssmc
