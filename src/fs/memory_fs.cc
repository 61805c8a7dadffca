#include "src/fs/memory_fs.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "src/journal/journal.h"
#include "src/obs/obs.h"
#include "src/support/little_endian.h"

namespace ssmc {

MemoryFileSystem::MemoryFileSystem(StorageManager& storage,
                                   MemoryFsOptions options)
    : storage_(storage),
      options_(options),
      buffer_(storage, options.write_buffer_pages,
              [this](const BlockKey& key, const PayloadRef& data,
                     TenantId tenant) {
                return FlushBlock(key, data, tenant);
              }),
      scratch_(storage.page_bytes()) {
  // The write buffer is the dirty side of the residency map; the manager
  // resolves kDirty through it.
  storage_.residency().BindDirtyBackend(&buffer_);
  // Logical block 0 stays out of the allocator although nothing is stored
  // there: handing it out would give every later allocation a different
  // block id, which moves simulated results (E9's archive rows). On a
  // recovery path the fresh storage manager has it free; reservation only
  // fails if two file systems share one manager, which is unsupported.
  Status reserved = storage_.ReserveFlashBlock(kReservedBlock);
  assert(reserved.ok() && "reserved block unavailable");
  (void)reserved;
}

MemoryFileSystem::BlockMap& MemoryFileSystem::BlockMap::operator=(
    BlockMap&& other) noexcept {
  if (this != &other) {
    delete[] heap_;
    heap_ = std::exchange(other.heap_, nullptr);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, kInline);
    std::copy_n(other.inline_, kInline, inline_);
  }
  return *this;
}

void MemoryFileSystem::BlockMap::resize(size_t n) {
  if (n > UINT32_MAX) {
    throw std::length_error("block map too long");
  }
  if (n > capacity_) {
    // Geometric, so a map grown one block at a time (appends, flushes,
    // journal replay) stays amortized.
    const size_t grown_capacity = std::min<size_t>(
        UINT32_MAX, std::max<size_t>(n, 2 * size_t{capacity_}));
    BlockEntry* grown = new BlockEntry[grown_capacity];
    std::copy_n(data(), size_, grown);
    delete[] heap_;
    heap_ = grown;
    capacity_ = static_cast<uint32_t>(grown_capacity);
  }
  if (n > size_) {
    std::fill(data() + size_, data() + n, BlockEntry{});
  }
  size_ = static_cast<uint32_t>(n);
}

void MemoryFileSystem::set_current_tenant(TenantId tenant) {
  tenant_ = tenant;
  // Promotions triggered by this tenant's reads are billed to it.
  storage_.residency().set_current_tenant(tenant);
}

MemoryFileSystem::~MemoryFileSystem() {
  // Clean-cache keys and heat die with the namespace; unbind the buffer
  // before it is destroyed.
  storage_.residency().DetachFilesystem();
}

Status MemoryFileSystem::JournalAppend(JournalRecord record) {
  assert(journaled());
  Result<uint64_t> lsn = options_.journal->Append(std::move(record));
  return lsn.ok() ? Status::Ok() : lsn.status();
}

void MemoryFileSystem::MaybeCompact() {
  if (!journaled() || !options_.journal->NeedsCompaction()) {
    return;
  }
  (void)CheckpointMetadata();
}

Status MemoryFileSystem::JournalPathOp(JournalRecordType type,
                                       const std::string& path,
                                       const std::string& path2) {
  if (!journaled()) {
    return Status::Ok();
  }
  JournalRecord rec;
  rec.type = type;
  rec.path = path;
  rec.path2 = path2;
  return JournalAppend(std::move(rec));
}

Status MemoryFileSystem::Create(const std::string& path) {
  Result<Tree::Node*> node =
      tree_.Insert(path, /*is_dir=*/false, ChargeDirEntry(), [&] {
        if (!journaled()) {
          return Status::Ok();
        }
        JournalRecord rec;
        rec.type = JournalRecordType::kCreate;
        rec.file_id = tree_.next_id();
        rec.tenant = tenant_;
        rec.path = path;
        return JournalAppend(std::move(rec));
      });
  if (!node.ok()) {
    return node.status();
  }
  node.value()->inode.last_writer = tenant_;
  storage_.ChargeMetadataWrite(kDirEntryBytes + kInodeBytes);
  stats_.creates.Add();
  MaybeCompact();
  return Status::Ok();
}

Status MemoryFileSystem::Mkdir(const std::string& path) {
  Result<Tree::Node*> node =
      tree_.Insert(path, /*is_dir=*/true, ChargeDirEntry(), [&] {
        return JournalPathOp(JournalRecordType::kMkdir, path);
      });
  if (!node.ok()) {
    return node.status();
  }
  storage_.ChargeMetadataWrite(kDirEntryBytes);
  MaybeCompact();
  return Status::Ok();
}

SlotId MemoryFileSystem::AcquireSlot(Inode& inode, uint64_t b) {
  if (b >= inode.blocks.size()) {
    inode.blocks.resize(b + 1);
  }
  SlotId& slot = inode.blocks[b].slot;
  slot = storage_.residency().blocks().Acquire(slot, BlockKey{inode.id, b});
  return slot;
}

void MemoryFileSystem::DropBlockState(Inode& inode, uint64_t b) {
  const SlotId slot = FindSlot(inode, b);
  if (slot == kNoSlot) {
    return;
  }
  ResidencyManager& res = storage_.residency();
  buffer_.Drop(slot);
  res.InvalidateClean(slot);
  res.ForgetHeat(slot);
  inode.blocks[b].slot = kNoSlot;
}

void MemoryFileSystem::ReleaseBlock(Inode& inode, uint64_t block_index) {
  DropBlockState(inode, block_index);
  if (block_index < inode.blocks.size() &&
      inode.blocks[block_index].flash != BlockEntry::kNoFlash) {
    (void)storage_.FreeFlashBlock(inode.blocks[block_index].flash);
    inode.blocks[block_index].flash = BlockEntry::kNoFlash;
  }
}

Status MemoryFileSystem::Unlink(const std::string& path) {
  Result<Tree::NodePtr> node =
      tree_.Remove(path, /*is_dir=*/false, ChargeDirEntry(), [&] {
        return JournalPathOp(JournalRecordType::kUnlink, path);
      });
  if (!node.ok()) {
    return node.status();
  }
  Inode& inode = node.value()->inode;
  // The block map covers every block with state, including buffered
  // blocks past the last flushed one.
  for (uint64_t b = 0; b < inode.blocks.size(); ++b) {
    ReleaseBlock(inode, b);
  }
  storage_.ChargeMetadataWrite(kDirEntryBytes + kInodeBytes);
  stats_.unlinks.Add();
  MaybeCompact();
  return Status::Ok();
}

Status MemoryFileSystem::Rmdir(const std::string& path) {
  Result<Tree::NodePtr> node =
      tree_.Remove(path, /*is_dir=*/true, ChargeDirEntry(), [&] {
        return JournalPathOp(JournalRecordType::kRmdir, path);
      });
  if (!node.ok()) {
    return node.status();
  }
  storage_.ChargeMetadataWrite(kDirEntryBytes);
  MaybeCompact();
  return Status::Ok();
}

void MemoryFileSystem::AttachObs(Obs* obs) {
  obs_ = obs;
  buffer_.AttachObs(obs);
  mirror_.Attach(
      obs,
      {{"creates", &stats_.creates}, {"unlinks", &stats_.unlinks},
       {"reads", &stats_.reads}, {"read_bytes", &stats_.read_bytes},
       {"writes", &stats_.writes}, {"written_bytes", &stats_.written_bytes},
       {"flash_direct_read_bytes", &stats_.flash_direct_read_bytes},
       {"buffered_read_bytes", &stats_.buffered_read_bytes},
       {"clean_cached_read_bytes", &stats_.clean_cached_read_bytes},
       {"nvm_cached_read_bytes", &stats_.nvm_cached_read_bytes},
       {"cow_block_copies", &stats_.cow_block_copies}},
      {},
      // Per-tenant fs-boundary traffic, registered as tenants appear.
      [this](MetricsRegistry& m) {
        for (const auto& e : stats_.by_tenant.entries()) {
          const std::string base = TenantPrefix("fs", e.tenant);
          MirrorCounter(m, base + "reads", e.value.reads);
          MirrorCounter(m, base + "read_bytes", e.value.read_bytes);
          MirrorCounter(m, base + "writes", e.value.writes);
          MirrorCounter(m, base + "written_bytes", e.value.written_bytes);
        }
      });
  if (obs_ != nullptr) {
    obs_track_ = obs_->tracer().RegisterTrack("memory-fs");
  }
}

Result<uint64_t> MemoryFileSystem::Read(const std::string& path,
                                        uint64_t offset,
                                        std::span<uint8_t> out) {
  const SimTime obs_t0 =
      obs_ != nullptr ? storage_.flash_store().device().clock().now() : 0;
  Result<Inode*> file = tree_.FindFile(path, ChargeDirEntry());
  if (!file.ok()) {
    return file.status();
  }
  Inode& inode = *file.value();
  if (offset >= inode.size) {
    return uint64_t{0};
  }
  const uint64_t n = std::min<uint64_t>(out.size(), inode.size - offset);
  const uint64_t bs = block_bytes();
  const std::span<uint8_t> staging(scratch_);
  ResidencyManager& res = storage_.residency();

  uint64_t done = 0;
  while (done < n) {
    const uint64_t pos = offset + done;
    const uint64_t block = pos / bs;
    const uint64_t in_block = pos % bs;
    const uint64_t chunk = std::min(bs - in_block, n - done);
    const SlotId slot = FindSlot(inode, block);
    const int64_t flash = inode.flash(block);
    const Residency where = res.Resolve(slot, flash);
    const SimTime now = storage_.flash_store().device().clock().now();

    switch (where) {
      case Residency::kDirty: {
        // Dirty block: serve from the DRAM buffer.
        SSMC_RETURN_IF_ERROR(buffer_.Get(slot, staging));
        std::memcpy(out.data() + done, staging.data() + in_block, chunk);
        stats_.buffered_read_bytes.Add(chunk);
        res.TouchRead(slot, now);
        break;
      }
      case Residency::kClean:
      case Residency::kNvm: {
        // Promoted block: serve from its cache tier, the clean DRAM cache
        // (hot) or the byte-addressable NVM tier (warm). The touch may climb
        // an NVM block one tier up into DRAM.
        SSMC_RETURN_IF_ERROR(res.ReadCached(
            slot, in_block, std::span<uint8_t>(out.data() + done, chunk)));
        (where == Residency::kNvm ? stats_.nvm_cached_read_bytes
                                  : stats_.clean_cached_read_bytes)
            .Add(chunk);
        res.TouchRead(slot, now);
        break;
      }
      case Residency::kFlash: {
        // Clean block: read directly from flash, byte-granular. The heat
        // update may promote the block for future reads.
        Result<Duration> r = storage_.flash_store().ReadPartial(
            static_cast<uint64_t>(flash), in_block,
            std::span<uint8_t>(out.data() + done, chunk),
            ForTenant(kForegroundIo, tenant_));
        if (!r.ok()) {
          return r.status();
        }
        stats_.flash_direct_read_bytes.Add(chunk);
        if (res.enabled()) {
          res.OnFlashRead(AcquireSlot(inode, block),
                          static_cast<uint64_t>(flash), now);
        }
        break;
      }
      case Residency::kHole: {
        // Hole: zero fill.
        std::memset(out.data() + done, 0, chunk);
        break;
      }
    }
    done += chunk;
  }
  stats_.reads.Add();
  stats_.read_bytes.Add(n);
  TenantIoStats& lane = stats_.by_tenant.For(tenant_);
  lane.reads.Add();
  lane.read_bytes.Add(n);
  if (obs_ != nullptr) {
    const SimTime t1 = storage_.flash_store().device().clock().now();
    obs_->tracer().Span(obs_track_, "fs-read", obs_t0, t1 - obs_t0,
                        {"bytes", n});
  }
  return n;
}

Status MemoryFileSystem::StageBlockWrite(Inode& inode, uint64_t block_index,
                                         uint64_t offset_in_block,
                                         std::span<const uint8_t> data) {
  const uint64_t bs = block_bytes();
  assert(offset_in_block + data.size() <= bs);
  ResidencyManager& res = storage_.residency();
  const SimTime now = storage_.flash_store().device().clock().now();
  // The write needs the slot from here on. Until Put dirties it, a fresh
  // slot holds nothing (under kWriteBufferOnly the touch is a no-op);
  // Put releases it again if it fails, and so does the one early return.
  const SlotId slot = AcquireSlot(inode, block_index);
  res.TouchWrite(slot, now);

  if (offset_in_block == 0 && data.size() == bs) {
    // Whole-block write: no need to know the old contents. Any clean-cached
    // copy is stale the moment the block dirties.
    res.InvalidateClean(slot);
    return buffer_.Put(slot, data, now, tenant_);
  }

  // Holes copy-on-write as zeros.
  const std::span<uint8_t> staging(scratch_);
  std::memset(staging.data(), 0, bs);
  const int64_t flash = inode.flash(block_index);
  switch (res.Resolve(slot, flash)) {
    case Residency::kDirty:
      SSMC_RETURN_IF_ERROR(buffer_.Get(slot, staging));
      break;
    case Residency::kClean:
    case Residency::kNvm:
      // The promoted copy doubles as a DRAM- or NVM-speed copy-on-write
      // source; either is cheaper than a flash read.
      SSMC_RETURN_IF_ERROR(res.ReadCached(slot, 0, staging));
      break;
    case Residency::kFlash: {
      // Copy-on-write: "when a write operation occurs, the affected block
      // can be copied to DRAM, where it is left in a write buffer."
      Result<Duration> r = storage_.flash_store().Read(
          static_cast<uint64_t>(flash), staging,
          ForTenant(kForegroundIo, tenant_));
      if (!r.ok()) {
        res.ReleaseIfIdle(slot);
        return r.status();
      }
      stats_.cow_block_copies.Add();
      break;
    }
    case Residency::kHole:
      break;
  }
  std::memcpy(staging.data() + offset_in_block, data.data(), data.size());
  res.InvalidateClean(slot);
  return buffer_.Put(slot, staging, now, tenant_);
}

Status MemoryFileSystem::ReleaseTail(Inode& inode, uint64_t size,
                                     uint64_t end) {
  const uint64_t bs = block_bytes();
  const uint64_t first_dead = (size + bs - 1) / bs;
  for (uint64_t b = first_dead; b < inode.blocks.size(); ++b) {
    ReleaseBlock(inode, b);
  }
  if (inode.blocks.size() > first_dead) {
    inode.blocks.resize(first_dead);
  }
  inode.mapped = std::min(inode.mapped, first_dead);
  // Zero the tail of the surviving partial block: if the file is later
  // extended, the cut-off bytes must read back as zeros, not stale data.
  const uint64_t tail = size % bs;
  if (tail == 0) {
    return Status::Ok();
  }
  const std::vector<uint8_t> zeros(std::min(end - size, bs - tail), 0);
  return StageBlockWrite(inode, size / bs, tail, zeros);
}

void MemoryFileSystem::AbandonWrite(Inode& inode, uint64_t end) {
  if (end <= inode.size) {
    return;
  }
  if (journaled()) {
    // Replay trims the block map to this size, so extents the write flushed
    // past EOF are forgotten along with the blocks freed below.
    JournalRecord rec;
    rec.type = JournalRecordType::kSetSize;
    rec.file_id = inode.id;
    rec.size = inode.size;
    if (!JournalAppend(std::move(rec)).ok()) {
      // The journal still names those extents, so their flash blocks stay
      // mapped (Unlink and Truncate free them); only buffered blocks go.
      const uint64_t bs = block_bytes();
      for (uint64_t b = (inode.size + bs - 1) / bs; b < (end + bs - 1) / bs;
           ++b) {
        DropBlockState(inode, b);
      }
      return;
    }
  }
  // Best effort: the write has already failed, and any block this cannot
  // zero lies inside the file, where Unlink and Truncate still reach it.
  (void)ReleaseTail(inode, inode.size, end);
}

Result<uint64_t> MemoryFileSystem::Write(const std::string& path,
                                         uint64_t offset,
                                         std::span<const uint8_t> data) {
  const SimTime obs_t0 =
      obs_ != nullptr ? storage_.flash_store().device().clock().now() : 0;
  Result<Inode*> file = tree_.FindFile(path, ChargeDirEntry());
  if (!file.ok()) {
    return file.status();
  }
  Inode& inode = *file.value();
  const uint64_t bs = block_bytes();
  if (inode.last_writer != tenant_) {
    // The eventual flush of these blocks is billed to this tenant; the
    // journal must agree after a remount.
    if (journaled()) {
      JournalRecord rec;
      rec.type = JournalRecordType::kTenantStamp;
      rec.file_id = inode.id;
      rec.tenant = tenant_;
      SSMC_RETURN_IF_ERROR(JournalAppend(std::move(rec)));
    }
    inode.last_writer = tenant_;
  }

  uint64_t done = 0;
  while (done < data.size()) {
    const uint64_t pos = offset + done;
    const uint64_t block = pos / bs;
    const uint64_t in_block = pos % bs;
    const uint64_t chunk = std::min(bs - in_block, data.size() - done);
    const Status staged = StageBlockWrite(
        inode, block, in_block,
        std::span<const uint8_t>(data.data() + done, chunk));
    if (!staged.ok()) {
      AbandonWrite(inode, pos + chunk);
      return staged;
    }
    done += chunk;
  }
  if (offset + data.size() > inode.size) {
    if (journaled()) {
      JournalRecord rec;
      rec.type = JournalRecordType::kSetSize;
      rec.file_id = inode.id;
      rec.size = offset + data.size();
      const Status logged = JournalAppend(std::move(rec));
      if (!logged.ok()) {
        AbandonWrite(inode, offset + data.size());
        return logged;
      }
    }
    inode.size = offset + data.size();
  }
  storage_.ChargeMetadataWrite(kInodeBytes);
  stats_.writes.Add();
  stats_.written_bytes.Add(data.size());
  TenantIoStats& lane = stats_.by_tenant.For(tenant_);
  lane.writes.Add();
  lane.written_bytes.Add(data.size());
  if (obs_ != nullptr) {
    const SimTime t1 = storage_.flash_store().device().clock().now();
    obs_->tracer().Span(obs_track_, "fs-write", obs_t0, t1 - obs_t0,
                        {"bytes", data.size()});
  }
  MaybeCompact();
  return static_cast<uint64_t>(data.size());
}

Status MemoryFileSystem::Truncate(const std::string& path, uint64_t size) {
  Result<Inode*> file = tree_.FindFile(path, ChargeDirEntry());
  if (!file.ok()) {
    return file.status();
  }
  Inode& inode = *file.value();
  if (journaled()) {
    JournalRecord rec;
    rec.type = JournalRecordType::kSetSize;
    rec.file_id = inode.id;
    rec.size = size;
    SSMC_RETURN_IF_ERROR(JournalAppend(std::move(rec)));
  }
  if (size < inode.size) {
    SSMC_RETURN_IF_ERROR(ReleaseTail(inode, size, inode.size));
  }
  inode.size = size;
  storage_.ChargeMetadataWrite(kInodeBytes);
  MaybeCompact();
  return Status::Ok();
}

Result<FileInfo> MemoryFileSystem::Stat(const std::string& path) {
  return tree_.Stat(path, ChargeDirEntry());
}

Status MemoryFileSystem::Rename(const std::string& from,
                                const std::string& to) {
  SSMC_RETURN_IF_ERROR(tree_.Move(from, to, ChargeDirEntry(), [&] {
    return JournalPathOp(JournalRecordType::kRename, from, to);
  }));
  storage_.ChargeMetadataWrite(2 * kDirEntryBytes);
  MaybeCompact();
  return Status::Ok();
}

Result<std::vector<std::string>> MemoryFileSystem::List(
    const std::string& path) {
  return tree_.List(path, ChargeDirEntry());
}

Status MemoryFileSystem::Sync() {
  SSMC_RETURN_IF_ERROR(buffer_.FlushAll());
  // A big drain emits one kExtent per block; this is the natural point to
  // fold the burst into a checkpoint.
  MaybeCompact();
  return Status::Ok();
}

Status MemoryFileSystem::TickFlush(SimTime now) {
  return buffer_.FlushOlderThan(now, options_.flush_age);
}

Status MemoryFileSystem::FlushBlock(const BlockKey& key,
                                    const PayloadRef& data, TenantId tenant) {
  Inode* found = tree_.FindInode(key.file_id);
  if (found == nullptr) {
    // The file vanished with a dirty block still queued; nothing to persist.
    return InternalError("flush for unlinked inode " +
                         std::to_string(key.file_id));
  }
  Inode& inode = *found;
  const uint64_t b = key.block_index;
  if (inode.blocks.size() <= b) {
    inode.blocks.resize(b + 1);
  }
  inode.mapped = std::max(inode.mapped, b + 1);
  uint32_t& flash = inode.blocks[b].flash;
  if (flash == BlockEntry::kNoFlash) {
    Result<uint64_t> block = storage_.AllocateFlashBlock();
    if (!block.ok()) {
      return block.status();
    }
    if (block.value() >= BlockEntry::kNoFlash) {
      // The block map stores 32-bit flash block numbers.
      (void)storage_.FreeFlashBlock(block.value());
      return ResourceExhaustedError("flash block number exceeds 32 bits");
    }
    flash = static_cast<uint32_t>(block.value());
  }
  // This is the write buffer draining: flush-class traffic, never cleaner,
  // never foreground (whether it blocks still follows the store's
  // background_writes mode). The residency manager picks the write stream:
  // kAggressive routes heat-cold blocks onto the relocation (cold-bank)
  // stream; every other policy flushes kUser exactly as before.
  const WriteStream stream = storage_.residency().FlushStream(
      FindSlot(inode, b), storage_.flash_store().device().clock().now());
  // Zero-copy drain: the store programs the buffer's own extent into flash
  // (one more ref on it), so the flush moves no payload bytes.
  Result<Duration> written = storage_.flash_store().WriteRef(
      flash, data, stream, IoPriority::kFlush, tenant);
  if (!written.ok()) {
    return written.status();
  }
  // Record AFTER the data program: a durable kExtent implies the block it
  // names holds the flushed bytes. On append failure the flush reports
  // failure, the buffer keeps the block dirty, and the retry re-writes the
  // same slot and re-emits the record.
  if (!journaled()) {
    return Status::Ok();
  }
  JournalRecord rec;
  rec.type = JournalRecordType::kExtent;
  rec.file_id = key.file_id;
  rec.size = key.block_index;
  rec.flash_block = flash;
  rec.tenant = tenant;
  return JournalAppend(std::move(rec));
}

Result<uint64_t> MemoryFileSystem::FileId(const std::string& path) {
  Tree::Node* node = tree_.Find(path, ChargeDirEntry());
  if (node == nullptr || node->is_dir) {
    return NotFoundError(path);
  }
  return node->inode.id;
}

// --- Dense snapshot (journal checkpoints) ----------------------------------
// Layout: u64 next_inode_id, u64 node_count, then one preorder record per
// node: u32 parent_index (0 = root; nodes are numbered 1.. in emission
// order), u8 is_dir, u16 name_len + basename, and for files u64 inode id,
// u64 size, u16 last_writer, u64 block count, u64 per block (int64 cast —
// ~0 encodes the -1 hole). Parent indices make deserialization straight
// array indexing: no per-record path splitting or tree walks.

Status MemoryFileSystem::CheckpointMetadata() {
  if (options_.journal == nullptr) {
    return FailedPreconditionError(
        "metadata checkpoints need a journal (MemoryFsOptions::journal)");
  }
  const SimTime t0 = storage_.flash_store().device().clock().now();
  std::vector<uint8_t> dense;
  AppendLe<uint64_t>(dense, tree_.next_id());
  const size_t count_at = dense.size();
  AppendLe<uint64_t>(dense, 0);  // Node count, patched below.
  uint64_t count = 0;
  tree_.Walk([&](const Tree::Node& node, std::string_view name,
                 uint32_t parent) {
    AppendLe<uint32_t>(dense, parent);
    dense.push_back(node.is_dir ? 1 : 0);
    AppendLe<uint16_t>(dense, static_cast<uint16_t>(name.size()));
    dense.insert(dense.end(), name.begin(), name.end());
    if (!node.is_dir) {
      const Inode& inode = node.inode;
      AppendLe<uint64_t>(dense, inode.id);
      AppendLe<uint64_t>(dense, inode.size);
      AppendLe<uint16_t>(dense, inode.last_writer);
      AppendLe<uint64_t>(dense, inode.mapped);
      for (uint64_t b = 0; b < inode.mapped; ++b) {
        AppendLe<uint64_t>(dense, static_cast<uint64_t>(inode.flash(b)));
      }
    }
    ++count;
  });
  StoreLe<uint64_t>(dense, count_at, count);
  SSMC_RETURN_IF_ERROR(options_.journal->WriteCheckpoint(dense));
  if (obs_ != nullptr) {
    const SimTime t1 = storage_.flash_store().device().clock().now();
    obs_->tracer().Span(obs_track_, "journal-checkpoint", t0, t1 - t0,
                        {"bytes", dense.size()});
  }
  return Status::Ok();
}

// --- Journal-based recovery ------------------------------------------------

Status MemoryFileSystem::ReplayRecord(const JournalRecord& record) {
  switch (record.type) {
    case JournalRecordType::kMkdir:
      return Mkdir(record.path);
    case JournalRecordType::kCreate: {
      if (tree_.FindInode(record.file_id) != nullptr) {
        return DataLossError("journal replay: create reuses live inode " +
                             std::to_string(record.file_id));
      }
      // Reuse the public path (it never touches the allocator), then pin
      // the journaled inode id over the locally assigned one.
      SSMC_RETURN_IF_ERROR(Create(record.path));
      Tree::Node* node = tree_.Find(record.path, ChargeDirEntry());
      assert(node != nullptr && !node->is_dir);
      tree_.Renumber(node->inode, record.file_id);
      node->inode.last_writer = record.tenant;
      return Status::Ok();
    }
    case JournalRecordType::kUnlink: {
      // Only the namespace changes: the original Unlink already freed the
      // file's flash blocks pre-crash, and some of those ids may since
      // belong to the journal itself — replay must not touch the allocator.
      SSMC_RETURN_IF_ERROR(
          tree_.Remove(record.path, /*is_dir=*/false, ChargeDirEntry())
              .status());
      storage_.ChargeMetadataWrite(kDirEntryBytes + kInodeBytes);
      return Status::Ok();
    }
    case JournalRecordType::kRmdir:
      return Rmdir(record.path);
    case JournalRecordType::kRename:
      return Rename(record.path, record.path2);
    case JournalRecordType::kSetSize: {
      Inode* found = tree_.FindInode(record.file_id);
      if (found == nullptr) {
        return InternalError("journal replay: setsize for unknown inode " +
                             std::to_string(record.file_id));
      }
      Inode& inode = *found;
      const uint64_t bs = block_bytes();
      // The original truncate (or failed write) freed the blocks past the
      // new size; here only the map shrinks (see kUnlink for why the
      // allocator stays untouched).
      const uint64_t first_dead = (record.size + bs - 1) / bs;
      if (inode.blocks.size() > first_dead) {
        inode.blocks.resize(first_dead);
      }
      inode.mapped = std::min(inode.mapped, first_dead);
      inode.size = record.size;
      storage_.ChargeMetadataWrite(kInodeBytes);
      return Status::Ok();
    }
    case JournalRecordType::kExtent: {
      Inode* found = tree_.FindInode(record.file_id);
      if (found == nullptr) {
        return InternalError("journal replay: extent for unknown inode " +
                             std::to_string(record.file_id));
      }
      Inode& inode = *found;
      const uint64_t index = record.size;
      if (inode.blocks.size() <= index) {
        inode.blocks.resize(index + 1);
      }
      inode.mapped = std::max(inode.mapped, index + 1);
      inode.blocks[index].flash =
          record.flash_block == kNoFlashBlock
              ? BlockEntry::kNoFlash
              : static_cast<uint32_t>(record.flash_block);
      return Status::Ok();
    }
    case JournalRecordType::kTenantStamp: {
      Inode* inode = tree_.FindInode(record.file_id);
      if (inode == nullptr) {
        return InternalError("journal replay: stamp for unknown inode " +
                             std::to_string(record.file_id));
      }
      inode->last_writer = record.tenant;
      return Status::Ok();
    }
    case JournalRecordType::kCheckpoint:
      return Status::Ok();  // Informational marker, nothing to apply.
  }
  return InternalError("journal replay: unknown record type");
}

Result<std::unique_ptr<MemoryFileSystem>> MemoryFileSystem::RecoverFromJournal(
    MetadataJournal& journal, StorageManager& storage, MemoryFsOptions options,
    RecoveryReport* report) {
  Result<MetadataJournal::MountState> mount = journal.Recover();
  if (!mount.ok()) {
    return mount.status();
  }
  options.journal = &journal;
  auto fs = std::make_unique<MemoryFileSystem>(storage, options);
  FlashStore& store = storage.flash_store();
  const uint64_t bs = store.block_bytes();
  fs->replaying_ = true;

  RecoveryReport result;
  // 1. Install the dense checkpoint: array-indexed construction, one pass,
  // no path walks.
  if (!mount.value().checkpoint.empty()) {
    LeReader reader(mount.value().checkpoint);
    uint64_t next_id = 0;
    uint64_t node_count = 0;
    if (!reader.Read(&next_id) || !reader.Read(&node_count)) {
      return DataLossError("journal checkpoint header is truncated");
    }
    // Every count is bounded by the bytes left to hold its records before
    // anything is sized from it: a node record takes at least a parent
    // index, a kind and a name length, a block entry 8 bytes.
    constexpr size_t kMinNodeRecordBytes = 4 + 1 + 2;
    if (node_count > reader.remaining() / kMinNodeRecordBytes) {
      return DataLossError(
          "journal checkpoint counts more nodes than it holds");
    }
    std::vector<Tree::Node*> nodes;
    nodes.reserve(node_count + 1);
    nodes.push_back(&fs->tree_.root());
    for (uint64_t n = 0; n < node_count; ++n) {
      uint32_t parent_index = 0;
      uint8_t is_dir = 0;
      uint16_t name_len = 0;
      std::string name;
      if (!reader.Read(&parent_index) || !reader.Read(&is_dir) ||
          !reader.Read(&name_len) || !reader.ReadString(name_len, &name) ||
          parent_index >= nodes.size() || !nodes[parent_index]->is_dir) {
        return DataLossError("journal checkpoint record is malformed");
      }
      Inode inode;
      if (is_dir == 0) {
        uint64_t nblocks = 0;
        uint16_t last_writer = 0;
        if (!reader.Read(&inode.id) || !reader.Read(&inode.size) ||
            !reader.Read(&last_writer) || !reader.Read(&nblocks)) {
          return DataLossError("journal checkpoint record is malformed");
        }
        if (nblocks > reader.remaining() / sizeof(uint64_t)) {
          return DataLossError("journal checkpoint counts more blocks than "
                               "it holds");
        }
        // Two files sharing an id would share their blocks' keys, and an
        // id at or past next_id would be handed out again.
        if (fs->tree_.FindInode(inode.id) != nullptr) {
          return DataLossError("journal checkpoint gives inode " +
                               std::to_string(inode.id) + " to two files");
        }
        if (inode.id >= next_id) {
          return DataLossError("journal checkpoint inode " +
                               std::to_string(inode.id) +
                               " is not below its next inode id");
        }
        inode.last_writer = last_writer;
        inode.blocks.resize(nblocks);
        inode.mapped = nblocks;
        for (BlockEntry& entry : inode.blocks) {
          uint64_t raw = 0;
          if (!reader.Read(&raw)) {
            return DataLossError("journal checkpoint record is malformed");
          }
          // ~0 (the serialized -1) and any other out-of-range number is a
          // hole; the claim pass below drops unmapped blocks too.
          if (raw < BlockEntry::kNoFlash) {
            entry.flash = static_cast<uint32_t>(raw);
          }
        }
      }
      Tree::Node* node = fs->tree_.Insert(*nodes[parent_index], name,
                                          is_dir != 0, std::move(inode));
      if (node == nullptr) {
        return DataLossError("journal checkpoint names " + name + " twice");
      }
      nodes.push_back(node);
    }
    fs->tree_.set_next_id(next_id);
    // The dense image installs as ONE streaming DRAM write of the snapshot
    // bytes — avoiding a per-node random-access charge (a per-path
    // re-creation) is exactly what the dense format is for.
    storage.ChargeMetadataWrite(mount.value().checkpoint.size());
  }

  // 2. Replay the log tail on top of the checkpoint.
  for (const JournalRecord& rec : mount.value().records) {
    SSMC_RETURN_IF_ERROR(fs->ReplayRecord(rec));
    result.journal_records_replayed += 1;
  }
  fs->replaying_ = false;

  // 3. One preorder walk of the tree (each directory's entries in name
  // order, so the order depends only on the namespace) counts the census
  // and claims live extents with the fresh allocator. A block unmapped or
  // already taken (reused before the crash, or now journal-owned) is stale:
  // it becomes a hole rather than resurrect someone else's data. If two
  // inodes name one block, the one the walk reaches first — the smaller
  // path, comparing component by component — keeps it.
  fs->tree_.Walk([&](Tree::Node& node, std::string_view, uint32_t) {
    if (node.is_dir) {
      result.directories_recovered += 1;
      return;
    }
    result.files_recovered += 1;
    for (BlockEntry& entry : node.inode.blocks) {
      if (entry.flash == BlockEntry::kNoFlash) {
        continue;
      }
      const uint64_t block = entry.flash;
      if (!store.IsMapped(block) || !storage.ReserveFlashBlock(block).ok()) {
        entry.flash = BlockEntry::kNoFlash;
      } else {
        result.bytes_recovered += bs;
      }
    }
  });

  if (report != nullptr) {
    result.checkpoint_age =
        store.device().clock().now() - mount.value().checkpoint_time;
    *report = result;
  }
  return fs;
}

Result<std::vector<BlockLocation>> MemoryFileSystem::BlockLocations(
    const std::string& path) {
  Tree::Node* node = tree_.Find(path, ChargeDirEntry());
  if (node == nullptr || node->is_dir) {
    return NotFoundError(path);
  }
  const Inode& inode = node->inode;
  const uint64_t blocks = (inode.size + block_bytes() - 1) / block_bytes();
  std::vector<BlockLocation> locations(blocks);
  // Clean-cached blocks deliberately report kFlash: the flash copy stays
  // authoritative and the cache page can be demoted at any moment, so the
  // VM must never map it.
  for (uint64_t b = 0; b < blocks; ++b) {
    BlockLocation& loc = locations[b];
    if (buffer_.Contains(FindSlot(inode, b))) {
      loc.kind = BlockLocation::Kind::kBuffered;
    } else if (inode.flash(b) >= 0) {
      loc.kind = BlockLocation::Kind::kFlash;
      loc.flash_block = static_cast<uint64_t>(inode.flash(b));
    } else {
      loc.kind = BlockLocation::Kind::kHole;
    }
  }
  return locations;
}

bool MemoryFileSystem::NoteVmFault(const std::string& path,
                                   uint64_t block_index) {
  Tree::Node* node = tree_.Find(path, ChargeDirEntry());
  if (node == nullptr || node->is_dir) {
    return false;
  }
  return storage_.residency().NoteVmFault(
      AcquireSlot(node->inode, block_index),
      storage_.flash_store().device().clock().now());
}

}  // namespace ssmc
