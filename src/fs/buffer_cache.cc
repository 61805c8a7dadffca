#include "src/fs/buffer_cache.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

namespace ssmc {

BufferCache::BufferCache(DiskDevice& disk, uint64_t block_bytes,
                         uint64_t capacity_blocks)
    : disk_(disk),
      block_bytes_(block_bytes),
      capacity_blocks_(capacity_blocks),
      pool_(block_bytes) {
  assert(block_bytes_ > 0 && block_bytes_ % disk_.sector_bytes() == 0);
  assert(capacity_blocks_ > 0);
}

Status BufferCache::WriteBack(uint64_t block, Entry& entry) {
  if (!entry.dirty) {
    return Status::Ok();
  }
  Result<Duration> r = disk_.WriteSectors(
      SectorOfBlock(block),
      std::span<const uint8_t>(entry.data.data(), block_bytes_));
  if (!r.ok()) {
    return r.status();
  }
  entry.dirty = false;
  stats_.writebacks.Add();
  stats_.writeback_bytes.Add(block_bytes_);
  return Status::Ok();
}

Status BufferCache::EvictOne() {
  assert(!lru_.empty());
  const uint64_t victim = lru_.front();
  auto it = entries_.find(victim);
  assert(it != entries_.end());
  SSMC_RETURN_IF_ERROR(WriteBack(victim, it->second));
  lru_.pop_front();
  entries_.erase(it);
  return Status::Ok();
}

Result<BufferCache::Entry*> BufferCache::GetEntry(uint64_t block, bool fill) {
  if (block >= num_blocks()) {
    return OutOfRangeError("cache block past end of disk");
  }
  auto it = entries_.find(block);
  if (it != entries_.end()) {
    stats_.hits.Add();
    lru_.splice(lru_.end(), lru_, it->second.lru_it);
    return &it->second;
  }
  stats_.misses.Add();
  while (entries_.size() >= capacity_blocks_) {
    SSMC_RETURN_IF_ERROR(EvictOne());
  }
  Entry entry;
  entry.data = pool_.Allocate();
  if (fill) {
    Result<Duration> r = disk_.ReadSectors(
        SectorOfBlock(block),
        std::span<uint8_t>(entry.data.MutableData(), block_bytes_));
    if (!r.ok()) {
      return r.status();
    }
  } else {
    std::memset(entry.data.MutableData(), 0, block_bytes_);
  }
  lru_.push_back(block);
  entry.lru_it = std::prev(lru_.end());
  auto [inserted, ok] = entries_.emplace(block, std::move(entry));
  (void)ok;
  return &inserted->second;
}

Status BufferCache::Read(uint64_t block, std::span<uint8_t> out) {
  if (out.size() != block_bytes_) {
    return InvalidArgumentError("cache reads are whole blocks");
  }
  Result<Entry*> entry = GetEntry(block, /*fill=*/true);
  if (!entry.ok()) {
    return entry.status();
  }
  std::memcpy(out.data(), entry.value()->data.data(), block_bytes_);
  stats_.read_bytes.Add(block_bytes_);
  return Status::Ok();
}

Status BufferCache::Write(uint64_t block, std::span<const uint8_t> data) {
  if (data.size() != block_bytes_) {
    return InvalidArgumentError("cache writes are whole blocks");
  }
  // Full overwrite: no need to read the old contents from disk.
  Result<Entry*> entry = GetEntry(block, /*fill=*/false);
  if (!entry.ok()) {
    return entry.status();
  }
  std::memcpy(entry.value()->data.MutableData(), data.data(), block_bytes_);
  entry.value()->dirty = true;
  return Status::Ok();
}

Status BufferCache::WritePartial(uint64_t block, uint64_t offset,
                                 std::span<const uint8_t> data) {
  if (offset + data.size() > block_bytes_) {
    return OutOfRangeError("partial write exceeds block bounds");
  }
  Result<Entry*> entry = GetEntry(block, /*fill=*/true);
  if (!entry.ok()) {
    return entry.status();
  }
  std::memcpy(entry.value()->data.MutableData() + offset, data.data(),
              data.size());
  entry.value()->dirty = true;
  return Status::Ok();
}

Status BufferCache::Sync() {
  // Ascending block order: the disk's seek pattern, and so every timing a
  // sync produces, depends only on which blocks are cached.
  std::vector<uint64_t> blocks;
  blocks.reserve(entries_.size());
  for (const auto& [block, entry] : entries_) {
    blocks.push_back(block);
  }
  std::sort(blocks.begin(), blocks.end());
  for (const uint64_t block : blocks) {
    SSMC_RETURN_IF_ERROR(WriteBack(block, entries_.find(block)->second));
  }
  return Status::Ok();
}

Status BufferCache::DropAll() {
  SSMC_RETURN_IF_ERROR(Sync());
  entries_.clear();
  lru_.clear();
  return Status::Ok();
}

Status BufferCache::FlushBlock(uint64_t block) {
  auto it = entries_.find(block);
  if (it == entries_.end()) {
    return Status::Ok();
  }
  return WriteBack(block, it->second);
}

void BufferCache::Invalidate(uint64_t block) {
  auto it = entries_.find(block);
  if (it == entries_.end()) {
    return;
  }
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

}  // namespace ssmc
