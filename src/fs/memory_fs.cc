#include "src/fs/memory_fs.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "src/fs/path.h"
#include "src/journal/journal.h"
#include "src/obs/obs.h"

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
      root_(std::make_unique<Node>()),
      scratch_(storage.page_bytes()) {
  root_->is_dir = true;
  // The write buffer is the dirty side of the residency map; the manager
  // resolves kDirty through it.
  storage_.residency().BindDirtyBackend(&buffer_);
  // Claim the fixed superblock that anchors metadata checkpoints. On a
  // recovery path the fresh storage manager has it free; reservation only
  // fails if two file systems share one manager, which is unsupported.
  Status reserved = storage_.ReserveFlashBlock(kSuperblock);
  assert(reserved.ok() && "superblock unavailable");
  (void)reserved;
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
  if (obs_ != nullptr) {
    obs_->metrics().FlushAndRemoveCollector("fs");
  }
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

MemoryFileSystem::Node* MemoryFileSystem::Lookup(std::string_view path) {
  if (!IsValidPath(path)) {
    return nullptr;
  }
  Node* node = root_.get();
  for (const std::string_view component : PathComponents(path)) {
    if (!node->is_dir) {
      return nullptr;
    }
    storage_.ChargeMetadataRead(kDirEntryBytes);
    auto it = node->children.find(component);
    if (it == node->children.end()) {
      return nullptr;
    }
    node = it->second.get();
  }
  return node;
}

MemoryFileSystem::Node* MemoryFileSystem::LookupParent(std::string_view path) {
  if (!IsValidPath(path) || path == "/") {
    return nullptr;
  }
  Node* parent = Lookup(ParentPathView(path));
  if (parent == nullptr || !parent->is_dir) {
    return nullptr;
  }
  return parent;
}

Status MemoryFileSystem::Create(const std::string& path) {
  Node* parent = LookupParent(path);
  if (parent == nullptr) {
    return NotFoundError("no parent directory for " + path);
  }
  const std::string base = BaseName(path);
  if (parent->children.find(base) != parent->children.end()) {
    return AlreadyExistsError(path);
  }
  if (journaled()) {
    JournalRecord rec;
    rec.type = JournalRecordType::kCreate;
    rec.file_id = next_inode_id_;
    rec.tenant = tenant_;
    rec.path = path;
    SSMC_RETURN_IF_ERROR(JournalAppend(std::move(rec)));
  }
  auto node = std::make_unique<Node>();
  node->is_dir = false;
  node->inode.id = next_inode_id_++;
  node->inode.last_writer = tenant_;
  inode_index_[node->inode.id] = &node->inode;
  storage_.ChargeMetadataWrite(kDirEntryBytes + kInodeBytes);
  parent->children.emplace(base, std::move(node));
  stats_.creates.Add();
  MaybeCompact();
  return Status::Ok();
}

Status MemoryFileSystem::Mkdir(const std::string& path) {
  Node* parent = LookupParent(path);
  if (parent == nullptr) {
    return NotFoundError("no parent directory for " + path);
  }
  const std::string base = BaseName(path);
  if (parent->children.find(base) != parent->children.end()) {
    return AlreadyExistsError(path);
  }
  if (journaled()) {
    JournalRecord rec;
    rec.type = JournalRecordType::kMkdir;
    rec.path = path;
    SSMC_RETURN_IF_ERROR(JournalAppend(std::move(rec)));
  }
  auto node = std::make_unique<Node>();
  node->is_dir = true;
  storage_.ChargeMetadataWrite(kDirEntryBytes);
  parent->children.emplace(base, std::move(node));
  MaybeCompact();
  return Status::Ok();
}

void MemoryFileSystem::ReleaseBlock(Inode& inode, uint64_t block_index) {
  const BlockKey key{inode.id, block_index};
  buffer_.Drop(key);
  storage_.residency().InvalidateClean(key);
  storage_.residency().ForgetHeat(key);
  if (block_index < inode.flash_blocks.size() &&
      inode.flash_blocks[block_index] >= 0) {
    (void)storage_.FreeFlashBlock(
        static_cast<uint64_t>(inode.flash_blocks[block_index]));
    inode.flash_blocks[block_index] = -1;
  }
}

Status MemoryFileSystem::Unlink(const std::string& path) {
  Node* parent = LookupParent(path);
  if (parent == nullptr) {
    return NotFoundError("no parent directory for " + path);
  }
  auto it = parent->children.find(BaseNameView(path));
  if (it == parent->children.end()) {
    return NotFoundError(path);
  }
  if (it->second->is_dir) {
    return FailedPreconditionError(path + " is a directory");
  }
  if (journaled()) {
    JournalRecord rec;
    rec.type = JournalRecordType::kUnlink;
    rec.path = path;
    SSMC_RETURN_IF_ERROR(JournalAppend(std::move(rec)));
  }
  Inode& inode = it->second->inode;
  const uint64_t blocks = inode.flash_blocks.size();
  for (uint64_t b = 0; b < blocks; ++b) {
    ReleaseBlock(inode, b);
  }
  // Also drop buffered blocks beyond the flash map (never-flushed tail).
  const uint64_t total_blocks =
      (inode.size + block_bytes() - 1) / block_bytes();
  for (uint64_t b = blocks; b < total_blocks; ++b) {
    const BlockKey key{inode.id, b};
    buffer_.Drop(key);
    storage_.residency().ForgetHeat(key);
  }
  inode_index_.erase(inode.id);
  storage_.ChargeMetadataWrite(kDirEntryBytes + kInodeBytes);
  parent->children.erase(it);
  stats_.unlinks.Add();
  MaybeCompact();
  return Status::Ok();
}

Status MemoryFileSystem::Rmdir(const std::string& path) {
  Node* parent = LookupParent(path);
  if (parent == nullptr) {
    return NotFoundError("no parent directory for " + path);
  }
  auto it = parent->children.find(BaseNameView(path));
  if (it == parent->children.end()) {
    return NotFoundError(path);
  }
  if (!it->second->is_dir) {
    return FailedPreconditionError(path + " is not a directory");
  }
  if (!it->second->children.empty()) {
    return FailedPreconditionError(path + " is not empty");
  }
  if (journaled()) {
    JournalRecord rec;
    rec.type = JournalRecordType::kRmdir;
    rec.path = path;
    SSMC_RETURN_IF_ERROR(JournalAppend(std::move(rec)));
  }
  storage_.ChargeMetadataWrite(kDirEntryBytes);
  parent->children.erase(it);
  MaybeCompact();
  return Status::Ok();
}

void MemoryFileSystem::AttachObs(Obs* obs) {
  if (obs_ != nullptr && obs_ != obs) {
    obs_->metrics().FlushAndRemoveCollector("fs");
  }
  obs_ = obs;
  buffer_.AttachObs(obs);
  if (obs_ == nullptr) {
    return;
  }
  obs_track_ = obs_->tracer().RegisterTrack("memory-fs");
  MetricsRegistry& m = obs_->metrics();
  Counter* creates = m.AddCounter("fs/creates");
  Counter* unlinks = m.AddCounter("fs/unlinks");
  Counter* reads = m.AddCounter("fs/reads");
  Counter* read_bytes = m.AddCounter("fs/read_bytes");
  Counter* writes = m.AddCounter("fs/writes");
  Counter* written_bytes = m.AddCounter("fs/written_bytes");
  Counter* flash_direct = m.AddCounter("fs/flash_direct_read_bytes");
  Counter* buffered = m.AddCounter("fs/buffered_read_bytes");
  Counter* clean_cached = m.AddCounter("fs/clean_cached_read_bytes");
  Counter* nvm_cached = m.AddCounter("fs/nvm_cached_read_bytes");
  Counter* cow_copies = m.AddCounter("fs/cow_block_copies");
  m.AddCollector("fs", [=, this] {
    auto mirror = [](Counter* dst, const Counter& src) {
      dst->Reset();
      dst->Add(src.value());
    };
    mirror(creates, stats_.creates);
    mirror(unlinks, stats_.unlinks);
    mirror(reads, stats_.reads);
    mirror(read_bytes, stats_.read_bytes);
    mirror(writes, stats_.writes);
    mirror(written_bytes, stats_.written_bytes);
    mirror(flash_direct, stats_.flash_direct_read_bytes);
    mirror(buffered, stats_.buffered_read_bytes);
    mirror(clean_cached, stats_.clean_cached_read_bytes);
    mirror(nvm_cached, stats_.nvm_cached_read_bytes);
    mirror(cow_copies, stats_.cow_block_copies);
    // Per-tenant fs-boundary traffic, registered lazily as tenants appear
    // (AddCounter is idempotent per name).
    for (const auto& e : stats_.by_tenant.entries()) {
      const std::string base = "fs/tenant" + std::to_string(e.tenant) + "/";
      auto mirror_lane = [&](const char* key, const Counter& src) {
        Counter* dst = obs_->metrics().AddCounter(base + key);
        dst->Reset();
        dst->Add(src.value());
      };
      mirror_lane("reads", e.value.reads);
      mirror_lane("read_bytes", e.value.read_bytes);
      mirror_lane("writes", e.value.writes);
      mirror_lane("written_bytes", e.value.written_bytes);
    }
  });
}

Result<uint64_t> MemoryFileSystem::Read(const std::string& path,
                                        uint64_t offset,
                                        std::span<uint8_t> out) {
  const SimTime obs_t0 =
      obs_ != nullptr ? storage_.flash_store().device().clock().now() : 0;
  Node* node = Lookup(path);
  if (node == nullptr) {
    return NotFoundError(path);
  }
  if (node->is_dir) {
    return FailedPreconditionError(path + " is a directory");
  }
  Inode& inode = node->inode;
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
    const BlockKey key{inode.id, block};
    const int64_t slot = block < inode.flash_blocks.size()
                             ? inode.flash_blocks[block]
                             : -1;
    const Residency where = res.Resolve(key, slot);
    const SimTime now = storage_.flash_store().device().clock().now();

    switch (where) {
      case Residency::kDirty: {
        // Dirty block: serve from the DRAM buffer.
        SSMC_RETURN_IF_ERROR(buffer_.Get(key, staging));
        std::memcpy(out.data() + done, staging.data() + in_block, chunk);
        stats_.buffered_read_bytes.Add(chunk);
        res.TouchRead(key, now);
        break;
      }
      case Residency::kClean: {
        // Promoted hot block: serve from the clean DRAM cache.
        SSMC_RETURN_IF_ERROR(res.ReadClean(
            key, in_block, std::span<uint8_t>(out.data() + done, chunk)));
        stats_.clean_cached_read_bytes.Add(chunk);
        res.TouchRead(key, now);
        break;
      }
      case Residency::kNvm: {
        // Warm block: serve from the byte-addressable NVM tier. The touch
        // may climb it one tier up into the DRAM clean cache.
        SSMC_RETURN_IF_ERROR(res.ReadNvm(
            key, in_block, std::span<uint8_t>(out.data() + done, chunk)));
        stats_.nvm_cached_read_bytes.Add(chunk);
        res.OnNvmRead(key, now);
        break;
      }
      case Residency::kFlash: {
        // Clean block: read directly from flash, byte-granular. The heat
        // update may promote the block for future reads.
        Result<Duration> r = storage_.flash_store().ReadPartial(
            static_cast<uint64_t>(slot), in_block,
            std::span<uint8_t>(out.data() + done, chunk),
            ForTenant(kForegroundIo, tenant_));
        if (!r.ok()) {
          return r.status();
        }
        stats_.flash_direct_read_bytes.Add(chunk);
        res.OnFlashRead(key, static_cast<uint64_t>(slot), now);
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
  const BlockKey key{inode.id, block_index};
  ResidencyManager& res = storage_.residency();
  const SimTime now = storage_.flash_store().device().clock().now();
  res.TouchWrite(key, now);

  if (offset_in_block == 0 && data.size() == bs) {
    // Whole-block write: no need to know the old contents. Any clean-cached
    // copy is stale the moment the block dirties.
    res.InvalidateClean(key);
    return buffer_.Put(key, data, now, tenant_);
  }

  // Holes copy-on-write as zeros.
  const std::span<uint8_t> staging(scratch_);
  std::memset(staging.data(), 0, bs);
  const int64_t slot = block_index < inode.flash_blocks.size()
                           ? inode.flash_blocks[block_index]
                           : -1;
  const Residency where = res.Resolve(key, slot);
  switch (where) {
    case Residency::kDirty:
      SSMC_RETURN_IF_ERROR(buffer_.Get(key, staging));
      break;
    case Residency::kClean:
      // The promoted copy doubles as a DRAM-speed copy-on-write source.
      SSMC_RETURN_IF_ERROR(res.ReadClean(key, 0, staging));
      break;
    case Residency::kNvm:
      // NVM-speed copy-on-write source; still cheaper than a flash read.
      SSMC_RETURN_IF_ERROR(res.ReadNvm(key, 0, staging));
      break;
    case Residency::kFlash: {
      // Copy-on-write: "when a write operation occurs, the affected block
      // can be copied to DRAM, where it is left in a write buffer."
      Result<Duration> r = storage_.flash_store().Read(
          static_cast<uint64_t>(slot), staging,
          ForTenant(kForegroundIo, tenant_));
      if (!r.ok()) {
        return r.status();
      }
      stats_.cow_block_copies.Add();
      break;
    }
    case Residency::kHole:
      break;
  }
  std::memcpy(staging.data() + offset_in_block, data.data(), data.size());
  res.InvalidateClean(key);
  return buffer_.Put(key, staging, now, tenant_);
}

Status MemoryFileSystem::ReleaseTail(Inode& inode, uint64_t size,
                                     uint64_t end) {
  const uint64_t bs = block_bytes();
  const uint64_t first_dead = (size + bs - 1) / bs;
  const uint64_t old_blocks = std::max<uint64_t>((end + bs - 1) / bs,
                                                 inode.flash_blocks.size());
  for (uint64_t b = first_dead; b < old_blocks; ++b) {
    ReleaseBlock(inode, b);
  }
  if (inode.flash_blocks.size() > first_dead) {
    inode.flash_blocks.resize(first_dead, -1);
  }
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
        buffer_.Drop(BlockKey{inode.id, b});
        storage_.residency().ForgetHeat(BlockKey{inode.id, b});
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
  Node* node = Lookup(path);
  if (node == nullptr) {
    return NotFoundError(path);
  }
  if (node->is_dir) {
    return FailedPreconditionError(path + " is a directory");
  }
  Inode& inode = node->inode;
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
  Node* node = Lookup(path);
  if (node == nullptr) {
    return NotFoundError(path);
  }
  if (node->is_dir) {
    return FailedPreconditionError(path + " is a directory");
  }
  Inode& inode = node->inode;
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
  Node* node = Lookup(path);
  if (node == nullptr) {
    return NotFoundError(path);
  }
  FileInfo info;
  info.is_directory = node->is_dir;
  info.size = node->is_dir ? 0 : node->inode.size;
  return info;
}

Status MemoryFileSystem::Rename(const std::string& from,
                                const std::string& to) {
  if (IsSameOrUnder(to, from)) {
    return InvalidArgumentError("cannot move " + from + " into itself");
  }
  Node* from_parent = LookupParent(from);
  if (from_parent == nullptr) {
    return NotFoundError(from);
  }
  auto it = from_parent->children.find(BaseNameView(from));
  if (it == from_parent->children.end()) {
    return NotFoundError(from);
  }
  Node* to_parent = LookupParent(to);
  if (to_parent == nullptr) {
    return NotFoundError("no parent directory for " + to);
  }
  const std::string to_base = BaseName(to);
  if (to_parent->children.find(to_base) != to_parent->children.end()) {
    return AlreadyExistsError(to);
  }
  if (journaled()) {
    JournalRecord rec;
    rec.type = JournalRecordType::kRename;
    rec.path = from;
    rec.path2 = to;
    SSMC_RETURN_IF_ERROR(JournalAppend(std::move(rec)));
  }
  storage_.ChargeMetadataWrite(2 * kDirEntryBytes);
  to_parent->children.emplace(to_base, std::move(it->second));
  from_parent->children.erase(it);
  MaybeCompact();
  return Status::Ok();
}

Result<std::vector<std::string>> MemoryFileSystem::List(
    const std::string& path) {
  Node* node = Lookup(path);
  if (node == nullptr) {
    return NotFoundError(path);
  }
  if (!node->is_dir) {
    return FailedPreconditionError(path + " is not a directory");
  }
  std::vector<std::string> names;
  names.reserve(node->children.size());
  for (const auto& [name, child] : node->children) {
    storage_.ChargeMetadataRead(kDirEntryBytes);
    names.push_back(name);
  }
  return names;
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
  auto it = inode_index_.find(key.file_id);
  if (it == inode_index_.end()) {
    // The file vanished with a dirty block still queued; nothing to persist.
    return InternalError("flush for unlinked inode " +
                         std::to_string(key.file_id));
  }
  Inode& inode = *it->second;
  if (inode.flash_blocks.size() <= key.block_index) {
    inode.flash_blocks.resize(key.block_index + 1, -1);
  }
  int64_t& slot = inode.flash_blocks[key.block_index];
  if (slot < 0) {
    Result<uint64_t> block = storage_.AllocateFlashBlock();
    if (!block.ok()) {
      return block.status();
    }
    slot = static_cast<int64_t>(block.value());
  }
  // This is the write buffer draining: flush-class traffic, never cleaner,
  // never foreground (whether it blocks still follows the store's
  // background_writes mode). The residency manager picks the write stream:
  // kAggressive routes heat-cold blocks onto the relocation (cold-bank)
  // stream; every other policy flushes kUser exactly as before.
  const WriteStream stream = storage_.residency().FlushStream(
      key, storage_.flash_store().device().clock().now());
  // Zero-copy drain: the store programs the buffer's own extent into flash
  // (one more ref on it), so the flush moves no payload bytes.
  Result<Duration> written = storage_.flash_store().WriteRef(
      static_cast<uint64_t>(slot), data, stream, IoPriority::kFlush, tenant);
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
  rec.flash_block = static_cast<uint64_t>(slot);
  rec.tenant = tenant;
  return JournalAppend(std::move(rec));
}

Result<uint64_t> MemoryFileSystem::FileId(const std::string& path) {
  Node* node = Lookup(path);
  if (node == nullptr || node->is_dir) {
    return NotFoundError(path);
  }
  return node->inode.id;
}

// --- Metadata checkpointing ------------------------------------------------

namespace {

constexpr uint64_t kCheckpointMagic = 0x53534D43434B5031ULL;  // "SSMCCKP1"
constexpr uint64_t kNoBlock = ~uint64_t{0};

void AppendU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void AppendU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

void AppendU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

// Bounds-checked little-endian reader over a blob.
class BlobReader {
 public:
  explicit BlobReader(std::span<const uint8_t> data) : data_(data) {}

  bool ReadU64(uint64_t* v) {
    if (pos_ + 8 > data_.size()) {
      return false;
    }
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) {
      return false;
    }
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return true;
  }
  bool ReadU16(uint16_t* v) {
    if (pos_ + 2 > data_.size()) {
      return false;
    }
    *v = static_cast<uint16_t>(data_[pos_] |
                               (static_cast<uint16_t>(data_[pos_ + 1]) << 8));
    pos_ += 2;
    return true;
  }
  bool ReadU8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) {
      return false;
    }
    *v = data_[pos_++];
    return true;
  }
  bool ReadString(size_t n, std::string* out) {
    if (pos_ + n > data_.size()) {
      return false;
    }
    out->assign(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return true;
  }
  bool AtEnd() const { return pos_ >= data_.size(); }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace

void MemoryFileSystem::SerializeTree(const Node& node, const std::string& path,
                                     std::vector<uint8_t>& out) const {
  if (&node != root_.get()) {
    AppendU16(out, static_cast<uint16_t>(path.size()));
    out.insert(out.end(), path.begin(), path.end());
    out.push_back(node.is_dir ? 1 : 0);
    if (!node.is_dir) {
      AppendU64(out, node.inode.size);
      AppendU64(out, node.inode.flash_blocks.size());
      for (const int64_t block : node.inode.flash_blocks) {
        AppendU64(out, static_cast<uint64_t>(block));
      }
    }
  }
  if (node.is_dir) {
    for (const auto& [name, child] : node.children) {
      SerializeTree(*child, path == "/" ? "/" + name : path + "/" + name, out);
    }
  }
}

// --- Dense snapshot (journal checkpoints) ----------------------------------
// Layout: u64 next_inode_id, u64 node_count, then one preorder record per
// node: u32 parent_index (0 = root; nodes are numbered 1.. in emission
// order), u8 is_dir, u16 name_len + basename, and for files u64 inode id,
// u64 size, u16 last_writer, u64 block count, u64 per block (int64 cast —
// ~0 encodes the -1 hole). Parent indices make deserialization straight
// array indexing: no per-record path splitting or tree walks.

uint32_t MemoryFileSystem::SerializeDenseChildren(
    const Node& dir, uint32_t dir_index, uint32_t next_index, uint64_t* count,
    std::vector<uint8_t>& out) const {
  for (const auto& [name, child] : dir.children) {
    const uint32_t my_index = next_index++;
    AppendU32(out, dir_index);
    out.push_back(child->is_dir ? 1 : 0);
    AppendU16(out, static_cast<uint16_t>(name.size()));
    out.insert(out.end(), name.begin(), name.end());
    if (!child->is_dir) {
      AppendU64(out, child->inode.id);
      AppendU64(out, child->inode.size);
      AppendU16(out, child->inode.last_writer);
      AppendU64(out, child->inode.flash_blocks.size());
      for (const int64_t block : child->inode.flash_blocks) {
        AppendU64(out, static_cast<uint64_t>(block));
      }
    }
    ++*count;
    if (child->is_dir) {
      next_index =
          SerializeDenseChildren(*child, my_index, next_index, count, out);
    }
  }
  return next_index;
}

void MemoryFileSystem::SerializeDense(std::vector<uint8_t>& out) const {
  AppendU64(out, next_inode_id_);
  const size_t count_at = out.size();
  AppendU64(out, 0);  // Node count, patched below.
  uint64_t count = 0;
  (void)SerializeDenseChildren(*root_, 0, 1, &count, out);
  for (int i = 0; i < 8; ++i) {
    out[count_at + i] = static_cast<uint8_t>(count >> (8 * i));
  }
}

void MemoryFileSystem::ReleaseCheckpointBlocks(std::vector<uint64_t> blocks) {
  for (const uint64_t block : blocks) {
    // Skip blocks this manager does not hold: after a crash recovery the
    // fresh StorageManager never re-reserved them (or a previous release
    // already returned them), and freeing would fail closed.
    if (!storage_.IsFlashBlockUsed(block)) {
      continue;
    }
    (void)storage_.FreeFlashBlock(block);
  }
}

void MemoryFileSystem::ReleaseOldCheckpoint() {
  // Detach the list before touching the allocator so a re-entrant call (a
  // recovery path replacing state mid-release) sees an empty list instead
  // of double-freeing.
  ReleaseCheckpointBlocks(std::exchange(checkpoint_blocks_, {}));
}

Status MemoryFileSystem::CheckpointMetadata() {
  if (options_.journal != nullptr) {
    const SimTime j0 = storage_.flash_store().device().clock().now();
    std::vector<uint8_t> dense;
    SerializeDense(dense);
    const uint64_t dense_bytes = dense.size();
    SSMC_RETURN_IF_ERROR(options_.journal->WriteCheckpoint(dense));
    last_checkpoint_at_ = j0;
    if (obs_ != nullptr) {
      const SimTime t1 = storage_.flash_store().device().clock().now();
      obs_->tracer().Span(obs_track_, "journal-checkpoint", j0, t1 - j0,
                          {"bytes", dense_bytes});
    }
    if (!options_.journal_oracle) {
      return Status::Ok();
    }
    // Oracle mode: fall through and also take the legacy block-0 checkpoint
    // so both recovery paths stay comparable.
  }
  const uint64_t bs = block_bytes();
  const SimTime now = storage_.flash_store().device().clock().now();

  // 1. Serialize the namespace.
  std::vector<uint8_t> blob;
  SerializeTree(*root_, "/", blob);
  const uint64_t blob_size = blob.size();
  blob.resize((blob.size() + bs - 1) / bs * bs, 0);

  // 2. Write the data blocks into freshly allocated flash blocks.
  std::vector<uint64_t> new_blocks;
  auto fail_cleanup = [&](const Status& status) {
    for (const uint64_t block : new_blocks) {
      (void)storage_.FreeFlashBlock(block);
    }
    return status;
  };
  std::vector<uint64_t> data_ids;
  for (uint64_t off = 0; off < blob.size(); off += bs) {
    Result<uint64_t> block = storage_.AllocateFlashBlock();
    if (!block.ok()) {
      return fail_cleanup(block.status());
    }
    new_blocks.push_back(block.value());
    data_ids.push_back(block.value());
    Result<Duration> wrote = storage_.flash_store().Write(
        block.value(), std::span<const uint8_t>(blob.data() + off, bs),
        WriteStream::kRelocation);
    if (!wrote.ok()) {
      return fail_cleanup(wrote.status());
    }
  }

  // 3. Build the index chain. Every index block (including the fixed
  // superblock) holds: magic, checkpoint time, blob size, total data
  // blocks, ids-in-this-block, next-index-block, then the ids.
  const uint64_t ids_per_index = (bs - 48) / 8;
  // Chain blocks after the first are allocated; write them back to front so
  // each knows its successor.
  std::vector<std::pair<uint64_t, std::pair<uint64_t, uint64_t>>> chain;
  for (uint64_t start = ids_per_index; start < data_ids.size();
       start += ids_per_index) {
    Result<uint64_t> block = storage_.AllocateFlashBlock();
    if (!block.ok()) {
      return fail_cleanup(block.status());
    }
    new_blocks.push_back(block.value());
    chain.emplace_back(
        block.value(),
        std::make_pair(start,
                       std::min<uint64_t>(start + ids_per_index,
                                          data_ids.size())));
  }
  auto write_index = [&](uint64_t block, uint64_t id_begin, uint64_t id_end,
                         uint64_t next) -> Status {
    std::vector<uint8_t> index;
    index.reserve(bs);
    AppendU64(index, kCheckpointMagic);
    AppendU64(index, static_cast<uint64_t>(now));
    AppendU64(index, blob_size);
    AppendU64(index, data_ids.size());
    AppendU64(index, id_end - id_begin);
    AppendU64(index, next);
    for (uint64_t i = id_begin; i < id_end; ++i) {
      AppendU64(index, data_ids[i]);
    }
    index.resize(bs, 0);
    Result<Duration> wrote = storage_.flash_store().Write(
        block, index, WriteStream::kRelocation);
    return wrote.ok() ? Status::Ok() : wrote.status();
  };
  uint64_t next = kNoBlock;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    SSMC_RETURN_IF_ERROR(
        write_index(it->first, it->second.first, it->second.second, next));
    next = it->first;
  }
  // 4. The superblock goes last: until it lands, the old checkpoint is the
  // valid one (FlashStore rewrites it out of place).
  SSMC_RETURN_IF_ERROR(write_index(
      kSuperblock, 0, std::min<uint64_t>(ids_per_index, data_ids.size()),
      next));

  // 5. Retire the previous checkpoint's blocks — installing the new list
  // first, so the fs never points at freed ids if the release is
  // interrupted by recovery.
  std::vector<uint64_t> old_blocks =
      std::exchange(checkpoint_blocks_, std::move(new_blocks));
  ReleaseCheckpointBlocks(std::move(old_blocks));
  last_checkpoint_at_ = now;
  if (obs_ != nullptr) {
    const SimTime t1 = storage_.flash_store().device().clock().now();
    obs_->tracer().Span(obs_track_, "checkpoint", now, t1 - now,
                        {"blocks", data_ids.size()}, {"bytes", blob_size});
  }
  return Status::Ok();
}

Result<std::unique_ptr<MemoryFileSystem>>
MemoryFileSystem::RecoverFromCheckpoint(StorageManager& storage,
                                        MemoryFsOptions options,
                                        RecoveryReport* report) {
  auto fs = std::make_unique<MemoryFileSystem>(storage, options);
  FlashStore& store = storage.flash_store();
  const uint64_t bs = store.block_bytes();

  // Walk the index chain from the fixed superblock.
  std::vector<uint64_t> data_ids;
  uint64_t blob_size = 0;
  uint64_t total_data_blocks = 0;
  SimTime checkpoint_time = 0;
  uint64_t index_block = kSuperblock;
  while (index_block != kNoBlock) {
    std::vector<uint8_t> raw(bs);
    Result<Duration> read = store.Read(index_block, raw);
    if (!read.ok()) {
      return FailedPreconditionError("no metadata checkpoint found: " +
                                     read.status().message());
    }
    if (index_block != kSuperblock) {
      SSMC_RETURN_IF_ERROR(storage.ReserveFlashBlock(index_block));
      fs->checkpoint_blocks_.push_back(index_block);
    }
    BlobReader reader(raw);
    uint64_t magic = 0;
    uint64_t time = 0;
    uint64_t count = 0;
    uint64_t next = 0;
    if (!reader.ReadU64(&magic) || magic != kCheckpointMagic) {
      return DataLossError("checkpoint superblock is corrupt");
    }
    if (!reader.ReadU64(&time) || !reader.ReadU64(&blob_size) ||
        !reader.ReadU64(&total_data_blocks) || !reader.ReadU64(&count) ||
        !reader.ReadU64(&next)) {
      return DataLossError("checkpoint index header is truncated");
    }
    checkpoint_time = static_cast<SimTime>(time);
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t id = 0;
      if (!reader.ReadU64(&id)) {
        return DataLossError("checkpoint index is truncated");
      }
      data_ids.push_back(id);
    }
    index_block = next;
  }
  if (data_ids.size() != total_data_blocks) {
    return DataLossError("checkpoint index is incomplete");
  }

  // Read the blob.
  std::vector<uint8_t> blob;
  blob.reserve(data_ids.size() * bs);
  std::vector<uint8_t> chunk(bs);
  for (const uint64_t id : data_ids) {
    Result<Duration> read = store.Read(id, chunk);
    if (!read.ok()) {
      return DataLossError("checkpoint data block unreadable: " +
                           read.status().message());
    }
    SSMC_RETURN_IF_ERROR(storage.ReserveFlashBlock(id));
    fs->checkpoint_blocks_.push_back(id);
    blob.insert(blob.end(), chunk.begin(), chunk.end());
  }
  if (blob_size > blob.size()) {
    return DataLossError("checkpoint blob is truncated");
  }
  blob.resize(blob_size);

  // Rebuild the tree. Records are depth-first, parents before children.
  RecoveryReport result;
  BlobReader reader(blob);
  while (!reader.AtEnd()) {
    uint16_t path_len = 0;
    std::string path;
    uint8_t is_dir = 0;
    if (!reader.ReadU16(&path_len) || !reader.ReadString(path_len, &path) ||
        !reader.ReadU8(&is_dir)) {
      return DataLossError("checkpoint record is malformed");
    }
    if (is_dir != 0) {
      SSMC_RETURN_IF_ERROR(fs->Mkdir(path));
      result.directories_recovered += 1;
      continue;
    }
    uint64_t size = 0;
    uint64_t nblocks = 0;
    if (!reader.ReadU64(&size) || !reader.ReadU64(&nblocks)) {
      return DataLossError("checkpoint record is malformed");
    }
    SSMC_RETURN_IF_ERROR(fs->Create(path));
    Node* node = fs->Lookup(path);
    assert(node != nullptr && !node->is_dir);
    node->inode.size = size;
    node->inode.flash_blocks.reserve(nblocks);
    for (uint64_t i = 0; i < nblocks; ++i) {
      uint64_t raw_block = 0;
      if (!reader.ReadU64(&raw_block)) {
        return DataLossError("checkpoint record is malformed");
      }
      int64_t block = static_cast<int64_t>(raw_block);
      if (block >= 0) {
        // A block freed and reused since the checkpoint is stale: treat it
        // as a hole rather than resurrect someone else's data.
        if (!store.IsMapped(static_cast<uint64_t>(block)) ||
            !storage.ReserveFlashBlock(static_cast<uint64_t>(block)).ok()) {
          block = -1;
        } else {
          result.bytes_recovered += bs;
        }
      }
      node->inode.flash_blocks.push_back(block);
    }
    result.files_recovered += 1;
  }

  fs->last_checkpoint_at_ = checkpoint_time;
  if (report != nullptr) {
    result.checkpoint_age =
        store.device().clock().now() - checkpoint_time;
    *report = result;
  }
  return fs;
}

// --- Journal-based recovery ------------------------------------------------

Status MemoryFileSystem::ReplayRecord(const JournalRecord& record) {
  switch (record.type) {
    case JournalRecordType::kMkdir:
      return Mkdir(record.path);
    case JournalRecordType::kCreate: {
      // Reuse the public path (it never touches the allocator), then pin
      // the journaled inode id over the locally assigned one.
      SSMC_RETURN_IF_ERROR(Create(record.path));
      Node* node = Lookup(record.path);
      assert(node != nullptr && !node->is_dir);
      inode_index_.erase(node->inode.id);
      node->inode.id = record.file_id;
      node->inode.last_writer = record.tenant;
      inode_index_[record.file_id] = &node->inode;
      next_inode_id_ = std::max(next_inode_id_, record.file_id + 1);
      return Status::Ok();
    }
    case JournalRecordType::kUnlink: {
      // Direct removal: the original Unlink already freed the file's flash
      // blocks pre-crash, and some of those ids may since belong to the
      // journal itself — replay must not touch the allocator.
      Node* parent = LookupParent(record.path);
      if (parent == nullptr) {
        return InternalError("journal replay: no parent for unlink " +
                             record.path);
      }
      auto it = parent->children.find(BaseNameView(record.path));
      if (it == parent->children.end() || it->second->is_dir) {
        return InternalError("journal replay: bad unlink target " +
                             record.path);
      }
      inode_index_.erase(it->second->inode.id);
      storage_.ChargeMetadataWrite(kDirEntryBytes + kInodeBytes);
      parent->children.erase(it);
      return Status::Ok();
    }
    case JournalRecordType::kRmdir: {
      Node* parent = LookupParent(record.path);
      if (parent == nullptr) {
        return InternalError("journal replay: no parent for rmdir " +
                             record.path);
      }
      auto it = parent->children.find(BaseNameView(record.path));
      if (it == parent->children.end() || !it->second->is_dir ||
          !it->second->children.empty()) {
        return InternalError("journal replay: bad rmdir target " +
                             record.path);
      }
      storage_.ChargeMetadataWrite(kDirEntryBytes);
      parent->children.erase(it);
      return Status::Ok();
    }
    case JournalRecordType::kRename:
      return Rename(record.path, record.path2);
    case JournalRecordType::kSetSize: {
      auto it = inode_index_.find(record.file_id);
      if (it == inode_index_.end()) {
        return InternalError("journal replay: setsize for unknown inode " +
                             std::to_string(record.file_id));
      }
      Inode& inode = *it->second;
      const uint64_t bs = block_bytes();
      // The original truncate (or failed write) freed the blocks past the
      // new size; here only the map shrinks (see kUnlink for why the
      // allocator stays untouched).
      const uint64_t first_dead = (record.size + bs - 1) / bs;
      if (inode.flash_blocks.size() > first_dead) {
        inode.flash_blocks.resize(first_dead, -1);
      }
      inode.size = record.size;
      storage_.ChargeMetadataWrite(kInodeBytes);
      return Status::Ok();
    }
    case JournalRecordType::kExtent: {
      auto it = inode_index_.find(record.file_id);
      if (it == inode_index_.end()) {
        return InternalError("journal replay: extent for unknown inode " +
                             std::to_string(record.file_id));
      }
      Inode& inode = *it->second;
      const uint64_t index = record.size;
      if (inode.flash_blocks.size() <= index) {
        inode.flash_blocks.resize(index + 1, -1);
      }
      inode.flash_blocks[index] =
          record.flash_block == kNoFlashBlock
              ? -1
              : static_cast<int64_t>(record.flash_block);
      return Status::Ok();
    }
    case JournalRecordType::kTenantStamp: {
      auto it = inode_index_.find(record.file_id);
      if (it == inode_index_.end()) {
        return InternalError("journal replay: stamp for unknown inode " +
                             std::to_string(record.file_id));
      }
      it->second->last_writer = record.tenant;
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
    BlobReader reader(mount.value().checkpoint);
    uint64_t next_id = 0;
    uint64_t node_count = 0;
    if (!reader.ReadU64(&next_id) || !reader.ReadU64(&node_count)) {
      return DataLossError("journal checkpoint header is truncated");
    }
    std::vector<Node*> nodes;
    nodes.reserve(node_count + 1);
    nodes.push_back(fs->root_.get());
    for (uint64_t n = 0; n < node_count; ++n) {
      uint32_t parent_index = 0;
      uint8_t is_dir = 0;
      uint16_t name_len = 0;
      std::string name;
      if (!reader.ReadU32(&parent_index) || !reader.ReadU8(&is_dir) ||
          !reader.ReadU16(&name_len) || !reader.ReadString(name_len, &name) ||
          parent_index >= nodes.size() || !nodes[parent_index]->is_dir) {
        return DataLossError("journal checkpoint record is malformed");
      }
      auto node = std::make_unique<Node>();
      node->is_dir = is_dir != 0;
      if (!node->is_dir) {
        uint64_t nblocks = 0;
        uint16_t last_writer = 0;
        if (!reader.ReadU64(&node->inode.id) ||
            !reader.ReadU64(&node->inode.size) ||
            !reader.ReadU16(&last_writer) || !reader.ReadU64(&nblocks)) {
          return DataLossError("journal checkpoint record is malformed");
        }
        node->inode.last_writer = last_writer;
        node->inode.flash_blocks.reserve(nblocks);
        for (uint64_t i = 0; i < nblocks; ++i) {
          uint64_t raw = 0;
          if (!reader.ReadU64(&raw)) {
            return DataLossError("journal checkpoint record is malformed");
          }
          node->inode.flash_blocks.push_back(static_cast<int64_t>(raw));
        }
        fs->inode_index_[node->inode.id] = &node->inode;
      }
      Node* raw_node = node.get();
      nodes[parent_index]->children.emplace(std::move(name), std::move(node));
      nodes.push_back(raw_node);
    }
    fs->next_inode_id_ = next_id;
    // The dense image installs as ONE streaming DRAM write of the snapshot
    // bytes — avoiding a per-node random-access charge is exactly what the
    // dense format is for (the legacy path pays per-path re-creation).
    storage.ChargeMetadataWrite(mount.value().checkpoint.size());
  }

  // 2. Replay the log tail on top of the checkpoint.
  for (const JournalRecord& rec : mount.value().records) {
    SSMC_RETURN_IF_ERROR(fs->ReplayRecord(rec));
    result.journal_records_replayed += 1;
  }
  fs->replaying_ = false;

  // 3. Claim live extents with the fresh allocator. A block unmapped or
  // already taken (reused before the crash, or now journal-owned) is stale:
  // it becomes a hole rather than resurrect someone else's data.
  for (auto& [id, inode_ptr] : fs->inode_index_) {
    for (int64_t& slot : inode_ptr->flash_blocks) {
      if (slot < 0) {
        continue;
      }
      const uint64_t block = static_cast<uint64_t>(slot);
      if (!store.IsMapped(block) || !storage.ReserveFlashBlock(block).ok()) {
        slot = -1;
      } else {
        result.bytes_recovered += bs;
      }
    }
  }

  // Final namespace census (replay may have added or removed nodes).
  std::vector<const Node*> stack = {fs->root_.get()};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    for (const auto& [name, child] : n->children) {
      if (child->is_dir) {
        result.directories_recovered += 1;
        stack.push_back(child.get());
      } else {
        result.files_recovered += 1;
      }
    }
  }

  fs->last_checkpoint_at_ = mount.value().checkpoint_time;
  if (report != nullptr) {
    result.checkpoint_age =
        store.device().clock().now() - mount.value().checkpoint_time;
    *report = result;
  }
  return fs;
}

Result<std::vector<BlockLocation>> MemoryFileSystem::BlockLocations(
    const std::string& path) {
  Node* node = Lookup(path);
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
    if (buffer_.Contains(BlockKey{inode.id, b})) {
      loc.kind = BlockLocation::Kind::kBuffered;
    } else if (b < inode.flash_blocks.size() && inode.flash_blocks[b] >= 0) {
      loc.kind = BlockLocation::Kind::kFlash;
      loc.flash_block = static_cast<uint64_t>(inode.flash_blocks[b]);
    } else {
      loc.kind = BlockLocation::Kind::kHole;
    }
  }
  return locations;
}

}  // namespace ssmc
