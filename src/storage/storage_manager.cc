#include "src/storage/storage_manager.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/obs/obs.h"

namespace ssmc {

StorageManager::StorageManager(DramDevice& dram, FlashStore& flash_store,
                               uint64_t page_bytes,
                               ResidencyOptions residency, NvmDevice* nvm)
    : dram_(dram), flash_store_(flash_store), nvm_(nvm),
      page_bytes_(page_bytes),
      dram_pages_(dram.capacity_bytes() / page_bytes),
      nvm_pages_(nvm != nullptr ? nvm->capacity_bytes() / page_bytes : 0),
      flash_blocks_(flash_store.num_blocks()) {
  assert(page_bytes_ > 0);
  assert(page_bytes_ == flash_store_.block_bytes() &&
         "DRAM page size must match the flash store block size");
  // Built after the allocators so the residency manager can size its clean
  // cache against total_dram_pages().
  residency_ = std::make_unique<ResidencyManager>(*this, residency);
}

StorageManager::~StorageManager() {
  if (obs_ != nullptr) {
    obs_->metrics().FlushAndRemoveCollector("storage");
  }
}

void StorageManager::AttachObs(Obs* obs) {
  if (obs_ != nullptr && obs_ != obs) {
    obs_->metrics().FlushAndRemoveCollector("storage");
  }
  obs_ = obs;
  residency_->AttachObs(obs);
  if (obs == nullptr) {
    return;
  }
  MetricsRegistry& m = obs->metrics();
  Gauge* free_dram = m.AddGauge("storage/free_dram_pages");
  Gauge* total_dram = m.AddGauge("storage/total_dram_pages");
  Gauge* free_flash = m.AddGauge("storage/free_flash_blocks");
  Gauge* total_flash = m.AddGauge("storage/total_flash_blocks");
  Gauge* free_nvm = nullptr;
  Gauge* total_nvm = nullptr;
  if (nvm_ != nullptr) {
    free_nvm = m.AddGauge("storage/free_nvm_pages");
    total_nvm = m.AddGauge("storage/total_nvm_pages");
  }
  m.AddCollector("storage", [=, this] {
    free_dram->Set(static_cast<int64_t>(free_dram_pages()));
    total_dram->Set(static_cast<int64_t>(total_dram_pages()));
    free_flash->Set(static_cast<int64_t>(free_flash_blocks()));
    total_flash->Set(static_cast<int64_t>(total_flash_blocks()));
    if (free_nvm != nullptr) {
      free_nvm->Set(static_cast<int64_t>(free_nvm_pages()));
      total_nvm->Set(static_cast<int64_t>(total_nvm_pages()));
    }
  });
}

uint64_t StorageManager::IndexPool::Take() {
  assert(free_ > 0);
  free_ -= 1;
  uint64_t i;
  if (!recycled_.empty()) {
    i = recycled_.back();
    recycled_.pop_back();
  } else {
    while (used_[cursor_]) {
      ++cursor_;  // Claimed ahead of the cursor.
    }
    i = cursor_++;
  }
  used_[i] = true;
  return i;
}

void StorageManager::IndexPool::Put(uint64_t i) {
  assert(used_[i]);
  used_[i] = false;
  recycled_.push_back(i);
  free_ += 1;
}

void StorageManager::IndexPool::Claim(uint64_t i) {
  assert(!used_[i]);
  // A recycled index leaves the stack in place, keeping the rest in order;
  // any other unused index is still ahead of the cursor, which skips it.
  if (auto it = std::find(recycled_.begin(), recycled_.end(), i);
      it != recycled_.end()) {
    recycled_.erase(it);
  }
  used_[i] = true;
  free_ -= 1;
}

Result<uint64_t> StorageManager::AllocateDramPage() {
  if (dram_pages_.free() == 0) {
    return ResourceExhaustedError("out of DRAM pages");
  }
  const uint64_t page = dram_pages_.Take();
  if (page >= page_payloads_.size()) {
    page_payloads_.resize(dram_pages_.high_water());
  }
  return page;
}

Status StorageManager::FreeDramPage(uint64_t page) {
  if (page >= total_dram_pages()) {
    return OutOfRangeError("no such DRAM page");
  }
  if (!dram_pages_.used(page)) {
    return FailedPreconditionError("double free of DRAM page " +
                                   std::to_string(page));
  }
  dram_pages_.Put(page);
  page_payloads_[page].Reset();
  return Status::Ok();
}

Result<uint64_t> StorageManager::AllocateNvmPage() {
  if (nvm_pages_.free() == 0) {
    return ResourceExhaustedError("out of NVM pages");
  }
  const uint64_t page = nvm_pages_.Take();
  if (page >= nvm_page_payloads_.size()) {
    nvm_page_payloads_.resize(nvm_pages_.high_water());
  }
  return page;
}

Status StorageManager::FreeNvmPage(uint64_t page) {
  if (page >= total_nvm_pages()) {
    return OutOfRangeError("no such NVM page");
  }
  if (!nvm_pages_.used(page)) {
    return FailedPreconditionError("double free of NVM page " +
                                   std::to_string(page));
  }
  nvm_pages_.Put(page);
  nvm_page_payloads_[page].Reset();
  return Status::Ok();
}

Duration StorageManager::ReadNvmPagePayload(uint64_t page, uint64_t offset,
                                            std::span<uint8_t> out,
                                            IoIssue issue) {
  assert(nvm_ != nullptr);
  assert(page < nvm_page_payloads_.size() &&
         offset + out.size() <= page_bytes_);
  const Result<Duration> d =
      nvm_->Read(NvmPageAddress(page) + offset, out.size(), issue);
  const PayloadRef& ref = nvm_page_payloads_[page];
  if (ref) {
    std::memcpy(out.data(), ref.data() + offset, out.size());
  } else {
    std::memset(out.data(), 0, out.size());
  }
  return d.value_or(0);
}

Duration StorageManager::InstallNvmPagePayload(uint64_t page,
                                               PayloadRef payload,
                                               IoIssue issue) {
  assert(nvm_ != nullptr);
  assert(page < nvm_page_payloads_.size() &&
         payload.size() == page_bytes_);
  const Result<Duration> d =
      nvm_->Write(NvmPageAddress(page), page_bytes_, issue);
  nvm_page_payloads_[page] = std::move(payload);
  return d.value_or(0);
}

PayloadRef StorageManager::ReadNvmPagePayloadRef(uint64_t page,
                                                 IoIssue issue) {
  assert(nvm_ != nullptr);
  assert(page < nvm_page_payloads_.size());
  (void)nvm_->Read(NvmPageAddress(page), page_bytes_, issue);
  PayloadRef& ref = nvm_page_payloads_[page];
  if (!ref) {
    if (!zero_extent_) {
      zero_extent_ = extent_pool().Allocate();
      std::memset(zero_extent_.MutableData(), 0, page_bytes_);
    }
    ref = zero_extent_;
  }
  return ref;
}

Duration StorageManager::ReadPagePayload(uint64_t page, uint64_t offset,
                                         std::span<uint8_t> out) {
  assert(page < page_payloads_.size() && offset + out.size() <= page_bytes_);
  const Duration d = dram_.ChargeAccess(out.size(), /*is_write=*/false);
  const PayloadRef& ref = page_payloads_[page];
  if (ref) {
    std::memcpy(out.data(), ref.data() + offset, out.size());
  } else {
    std::memset(out.data(), 0, out.size());
  }
  return d;
}

Duration StorageManager::WritePagePayload(uint64_t page, uint64_t offset,
                                          std::span<const uint8_t> data) {
  assert(page < page_payloads_.size() && offset + data.size() <= page_bytes_);
  const Duration d = dram_.ChargeAccess(data.size(), /*is_write=*/true);
  PayloadRef& ref = page_payloads_[page];
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

Duration StorageManager::InstallPagePayload(uint64_t page, PayloadRef payload) {
  assert(page < page_payloads_.size() && payload.size() == page_bytes_);
  const Duration d = dram_.ChargeAccess(page_bytes_, /*is_write=*/true);
  page_payloads_[page] = std::move(payload);
  return d;
}

Duration StorageManager::ZeroFillPagePayload(uint64_t page) {
  assert(page < page_payloads_.size());
  const Duration d = dram_.ChargeAccess(page_bytes_, /*is_write=*/true);
  if (!zero_extent_) {
    zero_extent_ = extent_pool().Allocate();
    std::memset(zero_extent_.MutableData(), 0, page_bytes_);
  }
  page_payloads_[page] = zero_extent_;
  return d;
}

PayloadRef StorageManager::ReadPagePayloadRef(uint64_t page) {
  assert(page < page_payloads_.size());
  dram_.ChargeAccess(page_bytes_, /*is_write=*/false);
  PayloadRef& ref = page_payloads_[page];
  if (!ref) {
    if (!zero_extent_) {
      zero_extent_ = extent_pool().Allocate();
      std::memset(zero_extent_.MutableData(), 0, page_bytes_);
    }
    ref = zero_extent_;
  }
  return ref;
}

void StorageManager::DropAllPagePayloads() {
  for (PayloadRef& ref : page_payloads_) {
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
