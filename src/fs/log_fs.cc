#include "src/fs/log_fs.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace ssmc {

namespace {
// Cleaning starts when the free-segment pool drops to this level.
constexpr uint64_t kFreeSegmentLowWater = 2;
}  // namespace

LogFileSystem::LogFileSystem(DiskDevice& disk, LogFsOptions options)
    : disk_(disk), options_(options) {
  assert(options_.block_bytes % disk_.sector_bytes() == 0);
  const uint64_t blocks = disk_.capacity_bytes() / options_.block_bytes;
  num_segments_ = blocks / options_.segment_blocks;
  assert(num_segments_ > kFreeSegmentLowWater + 2);
  usage_.assign(num_segments_, 0);
  summary_.assign(num_segments_,
                  std::vector<SlotOwner>(options_.segment_blocks));
  segment_free_.assign(num_segments_, true);
  free_segments_.reserve(num_segments_);
  for (uint64_t s = num_segments_; s > 0; --s) {
    free_segments_.push_back(s - 1);
  }
}

LogFileSystem::~LogFileSystem() = default;

// --- Namespace (memory-resident, mirroring Sprite LFS's cached metadata) ---

Status LogFileSystem::Create(const std::string& path) {
  return tree_.Insert(path, /*is_dir=*/false).status();
}

Status LogFileSystem::Mkdir(const std::string& path) {
  return tree_.Insert(path, /*is_dir=*/true).status();
}

void LogFileSystem::KillBlock(int64_t disk_block) {
  if (disk_block < 0) {
    return;
  }
  const uint64_t seg = SegmentOfBlock(static_cast<uint64_t>(disk_block));
  assert(usage_[seg] > 0);
  usage_[seg] -= 1;
  if (usage_[seg] == 0 && !segment_free_[seg]) {
    segment_free_[seg] = true;
    free_segments_.push_back(seg);
  }
}

void LogFileSystem::ReleaseFile(Inode& inode) {
  for (int64_t block : inode.blocks) {
    KillBlock(block);
  }
  inode.blocks.clear();
  // Drop every dirty block of this inode — including blocks staged beyond
  // the file size by a write that failed partway (NO_SPACE mid-write).
  for (auto it = dirty_.lower_bound(DirtyKey{inode.id, 0});
       it != dirty_.end() && it->first.first == inode.id;) {
    it = dirty_.erase(it);
  }
}

Status LogFileSystem::Unlink(const std::string& path) {
  Result<Tree::NodePtr> node =
      tree_.Remove(path, /*is_dir=*/false);
  if (!node.ok()) {
    return node.status();
  }
  ReleaseFile(node.value()->inode);
  return Status::Ok();
}

Status LogFileSystem::Rmdir(const std::string& path) {
  return tree_.Remove(path, /*is_dir=*/true).status();
}

// --- The log ---------------------------------------------------------------

Result<uint64_t> LogFileSystem::TakeFreeSegment() {
  if (free_segments_.size() <= kFreeSegmentLowWater &&
      !cleaning_) {
    SSMC_RETURN_IF_ERROR(CleanOne().status());
  }
  if (free_segments_.empty()) {
    return NoSpaceError("log out of segments");
  }
  const uint64_t seg = free_segments_.back();
  free_segments_.pop_back();
  segment_free_[seg] = false;
  return seg;
}

Result<bool> LogFileSystem::CleanOne() {
  if (cleaning_) {
    return false;
  }
  cleaning_ = true;
  const uint64_t seg_bytes = options_.segment_blocks * options_.block_bytes;
  bool made_progress = false;

  while (free_segments_.size() <= kFreeSegmentLowWater) {
    if (free_segments_.empty()) {
      break;  // Nothing to stage compaction into.
    }
    const size_t free_before = free_segments_.size();
    // Destination for compacted live data.
    const uint64_t dest = free_segments_.back();
    free_segments_.pop_back();
    segment_free_[dest] = false;

    std::vector<uint8_t> out;
    out.reserve(seg_bytes);
    uint64_t dest_slot = 0;

    // Pack victims (lowest utilization first) until the destination fills
    // or nothing cleanable remains. Moves are applied per victim, so a
    // fully drained victim frees immediately and cannot be re-picked.
    while (out.size() < seg_bytes) {
      int64_t victim = -1;
      for (uint64_t s = 0; s < num_segments_; ++s) {
        if (segment_free_[s] || s == dest || usage_[s] == 0 ||
            usage_[s] >= options_.segment_blocks) {
          continue;
        }
        if (victim < 0 || usage_[s] < usage_[static_cast<uint64_t>(victim)]) {
          victim = static_cast<int64_t>(s);
        }
      }
      if (victim < 0) {
        break;
      }
      // One sequential read of the whole victim segment.
      std::vector<uint8_t> seg_data(seg_bytes);
      Result<Duration> read = disk_.ReadSectors(
          SectorOfBlock(static_cast<uint64_t>(victim) *
                        options_.segment_blocks),
          seg_data);
      if (!read.ok()) {
        cleaning_ = false;
        return read.status();
      }
      bool victim_progress = false;
      for (uint64_t slot = 0;
           slot < options_.segment_blocks && out.size() < seg_bytes; ++slot) {
        const SlotOwner owner = summary_[static_cast<uint64_t>(victim)][slot];
        Inode* found = tree_.FindInode(owner.ino);
        if (found == nullptr) {
          continue;
        }
        Inode& inode = *found;
        const int64_t addr = static_cast<int64_t>(
            static_cast<uint64_t>(victim) * options_.segment_blocks + slot);
        if (owner.block_index >= inode.blocks.size() ||
            inode.blocks[owner.block_index] != addr) {
          continue;  // Dead slot.
        }
        // Stage the bytes and retarget the block at its new home.
        out.insert(out.end(),
                   seg_data.begin() +
                       static_cast<ptrdiff_t>(slot * options_.block_bytes),
                   seg_data.begin() + static_cast<ptrdiff_t>(
                                          (slot + 1) * options_.block_bytes));
        KillBlock(addr);
        inode.blocks[owner.block_index] = static_cast<int64_t>(
            dest * options_.segment_blocks + dest_slot);
        usage_[dest] += 1;
        summary_[dest][dest_slot] = owner;
        ++dest_slot;
        stats_.cleaner_live_blocks.Add();
        victim_progress = true;
      }
      if (!victim_progress) {
        break;  // Summary claims live data but every pointer disagrees.
      }
      stats_.cleaner_runs.Add();
    }

    if (dest_slot == 0) {
      // Nothing cleanable; hand the destination back.
      segment_free_[dest] = true;
      free_segments_.push_back(dest);
      break;
    }

    // One sequential write of the compacted data.
    Result<Duration> wrote = disk_.WriteSectors(
        SectorOfBlock(dest * options_.segment_blocks), out);
    if (!wrote.ok()) {
      cleaning_ = false;
      return wrote.status();
    }
    stats_.segment_writes.Add();
    stats_.blocks_written.Add(dest_slot);
    made_progress = true;
    if (free_segments_.size() <= free_before) {
      // The pass consumed as many segments as it freed (victims are nearly
      // full): further cleaning cannot gain space.
      break;
    }
  }
  cleaning_ = false;
  return made_progress;
}

Status LogFileSystem::FlushDirtyBuffer() {
  while (!dirty_.empty()) {
    Result<uint64_t> seg = TakeFreeSegment();
    if (!seg.ok()) {
      return seg.status();
    }
    const uint64_t n =
        std::min<uint64_t>(dirty_.size(), options_.segment_blocks);
    std::vector<uint8_t> out;
    out.reserve(n * options_.block_bytes);
    std::vector<DirtyKey> keys;
    keys.reserve(n);
    for (auto it = dirty_.begin(); keys.size() < n; ++it) {
      keys.push_back(it->first);
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
    // One big sequential write — the whole point of the log.
    Result<Duration> wrote = disk_.WriteSectors(
        SectorOfBlock(seg.value() * options_.segment_blocks), out);
    if (!wrote.ok()) {
      return wrote.status();
    }
    stats_.segment_writes.Add();
    stats_.blocks_written.Add(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      const auto [ino, block_index] = keys[i];
      Inode* found = tree_.FindInode(ino);
      if (found == nullptr) {
        // The file vanished while its block sat in the buffer; the slot in
        // the just-written segment is simply dead.
        dirty_.erase(keys[i]);
        continue;
      }
      Inode& inode = *found;
      if (inode.blocks.size() <= block_index) {
        inode.blocks.resize(block_index + 1, kHole);
      }
      KillBlock(inode.blocks[block_index]);
      inode.blocks[block_index] =
          static_cast<int64_t>(seg.value() * options_.segment_blocks + i);
      usage_[seg.value()] += 1;
      summary_[seg.value()][i] = SlotOwner{ino, block_index};
      dirty_.erase(keys[i]);
    }
  }
  return Status::Ok();
}

Status LogFileSystem::PutDirty(Inode& inode, uint64_t block_index,
                               std::vector<uint8_t> data) {
  assert(data.size() == options_.block_bytes);
  dirty_[DirtyKey{inode.id, block_index}] = std::move(data);
  ++user_blocks_written_;
  if (dirty_.size() >= options_.segment_blocks) {
    return FlushDirtyBuffer();
  }
  return Status::Ok();
}

// --- Read / write ------------------------------------------------------------

Result<uint64_t> LogFileSystem::Read(const std::string& path, uint64_t offset,
                                     std::span<uint8_t> out) {
  Result<Inode*> file = tree_.FindFile(path);
  if (!file.ok()) {
    return file.status();
  }
  Inode& inode = *file.value();
  if (offset >= inode.size) {
    return uint64_t{0};
  }
  const uint64_t bs = options_.block_bytes;
  const uint64_t n = std::min<uint64_t>(out.size(), inode.size - offset);
  std::vector<uint8_t> staging(bs);
  uint64_t done = 0;
  while (done < n) {
    const uint64_t pos = offset + done;
    const uint64_t block = pos / bs;
    const uint64_t in_block = pos % bs;
    const uint64_t chunk = std::min(bs - in_block, n - done);
    auto dirty_it = dirty_.find(DirtyKey{inode.id, block});
    if (dirty_it != dirty_.end()) {
      std::memcpy(out.data() + done, dirty_it->second.data() + in_block,
                  chunk);
      stats_.reads_from_buffer.Add();
    } else if (block < inode.blocks.size() && inode.blocks[block] >= 0) {
      Result<Duration> read = disk_.ReadSectors(
          SectorOfBlock(static_cast<uint64_t>(inode.blocks[block])), staging);
      if (!read.ok()) {
        return read.status();
      }
      std::memcpy(out.data() + done, staging.data() + in_block, chunk);
      stats_.reads_from_disk.Add();
    } else {
      std::memset(out.data() + done, 0, chunk);
    }
    done += chunk;
  }
  return n;
}

Result<uint64_t> LogFileSystem::Write(const std::string& path,
                                      uint64_t offset,
                                      std::span<const uint8_t> data) {
  Result<Inode*> file = tree_.FindFile(path);
  if (!file.ok()) {
    return file.status();
  }
  Inode& inode = *file.value();
  const uint64_t bs = options_.block_bytes;
  uint64_t done = 0;
  while (done < data.size()) {
    const uint64_t pos = offset + done;
    const uint64_t block = pos / bs;
    const uint64_t in_block = pos % bs;
    const uint64_t chunk = std::min(bs - in_block, data.size() - done);

    std::vector<uint8_t> staging(bs, 0);
    if (chunk < bs) {
      // Partial block: merge with the current contents.
      auto dirty_it = dirty_.find(DirtyKey{inode.id, block});
      if (dirty_it != dirty_.end()) {
        staging = dirty_it->second;
      } else if (block < inode.blocks.size() && inode.blocks[block] >= 0) {
        Result<Duration> read = disk_.ReadSectors(
            SectorOfBlock(static_cast<uint64_t>(inode.blocks[block])),
            staging);
        if (!read.ok()) {
          return read.status();
        }
      }
    }
    std::memcpy(staging.data() + in_block, data.data() + done, chunk);
    SSMC_RETURN_IF_ERROR(PutDirty(inode, block, std::move(staging)));
    done += chunk;
  }
  if (offset + data.size() > inode.size) {
    inode.size = offset + data.size();
  }
  return static_cast<uint64_t>(data.size());
}

Status LogFileSystem::Truncate(const std::string& path, uint64_t size) {
  Result<Inode*> file = tree_.FindFile(path);
  if (!file.ok()) {
    return file.status();
  }
  Inode& inode = *file.value();
  const uint64_t bs = options_.block_bytes;
  if (size < inode.size) {
    const uint64_t first_dead = (size + bs - 1) / bs;
    const uint64_t old_blocks = (inode.size + bs - 1) / bs;
    for (uint64_t b = first_dead; b < old_blocks; ++b) {
      dirty_.erase(DirtyKey{inode.id, b});
      if (b < inode.blocks.size()) {
        KillBlock(inode.blocks[b]);
        inode.blocks[b] = kHole;
      }
    }
    if (inode.blocks.size() > first_dead) {
      inode.blocks.resize(first_dead, kHole);
    }
    // Zero the cut-off tail of the surviving partial block.
    const uint64_t tail = size % bs;
    if (tail != 0) {
      std::vector<uint8_t> staging(bs, 0);
      auto dirty_it = dirty_.find(DirtyKey{inode.id, size / bs});
      if (dirty_it != dirty_.end()) {
        staging = dirty_it->second;
      } else if (size / bs < inode.blocks.size() &&
                 inode.blocks[size / bs] >= 0) {
        Result<Duration> read = disk_.ReadSectors(
            SectorOfBlock(static_cast<uint64_t>(inode.blocks[size / bs])),
            staging);
        if (!read.ok()) {
          return read.status();
        }
      }
      std::fill(staging.begin() + static_cast<ptrdiff_t>(tail), staging.end(),
                0);
      SSMC_RETURN_IF_ERROR(PutDirty(inode, size / bs, std::move(staging)));
    }
  }
  inode.size = size;
  return Status::Ok();
}

Result<FileInfo> LogFileSystem::Stat(const std::string& path) {
  return tree_.Stat(path);
}

Status LogFileSystem::Rename(const std::string& from, const std::string& to) {
  return tree_.Move(from, to);
}

Result<std::vector<std::string>> LogFileSystem::List(const std::string& path) {
  return tree_.List(path);
}

Status LogFileSystem::Sync() { return FlushDirtyBuffer(); }

double LogFileSystem::WriteAmplification() const {
  if (user_blocks_written_ == 0) {
    return 1.0;
  }
  return static_cast<double>(stats_.blocks_written.value()) /
         static_cast<double>(user_blocks_written_);
}

}  // namespace ssmc
