#include "src/fs/disk_fs.h"

#include <array>

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/fs/path.h"

namespace ssmc {

namespace {
constexpr uint32_t kRootIno = 1;
constexpr uint32_t kModeFree = 0;
constexpr uint32_t kModeFile = 1;
constexpr uint32_t kModeDir = 2;
constexpr char kMagic[8] = {'s', 's', 'm', 'c', 'd', 'f', 's', '1'};

uint64_t DivCeil(uint64_t a, uint64_t b) { return (a + b - 1) / b; }
}  // namespace

DiskFileSystem::DiskFileSystem(DiskDevice& disk, DiskFsOptions options)
    : disk_(disk),
      options_(options),
      cache_(disk, options.block_bytes, options.cache_blocks) {
  const uint64_t bits_per_block = options_.block_bytes * 8;
  layout_.total_blocks = disk_.capacity_bytes() / options_.block_bytes;
  layout_.inode_bitmap_start = 1;
  layout_.inode_bitmap_blocks = DivCeil(options_.inode_count, bits_per_block);
  layout_.data_bitmap_start =
      layout_.inode_bitmap_start + layout_.inode_bitmap_blocks;
  layout_.data_bitmap_blocks = DivCeil(layout_.total_blocks, bits_per_block);
  layout_.inode_table_start =
      layout_.data_bitmap_start + layout_.data_bitmap_blocks;
  layout_.inode_table_blocks =
      DivCeil(options_.inode_count * kInodeBytes, options_.block_bytes);
  layout_.data_start = layout_.inode_table_start + layout_.inode_table_blocks;
  assert(layout_.data_start < layout_.total_blocks && "disk too small");
  Mkfs();
}

void DiskFileSystem::Mkfs() {
  // Superblock.
  std::vector<uint8_t> block(options_.block_bytes, 0);
  std::memcpy(block.data(), kMagic, sizeof(kMagic));
  std::memcpy(block.data() + 8, &layout_.total_blocks, 8);
  (void)cache_.Write(0, block);

  // Mark all metadata blocks (and block 0) used in the data bitmap.
  for (uint64_t b = 0; b < layout_.data_start; ++b) {
    (void)SetBitmapBit(layout_.data_bitmap_start, b, true);
  }
  // Inode 0 is reserved so 0 can mean "no inode" in directory entries.
  (void)SetBitmapBit(layout_.inode_bitmap_start, 0, true);

  // Root directory.
  (void)SetBitmapBit(layout_.inode_bitmap_start, kRootIno, true);
  DiskInode root;
  root.mode = kModeDir;
  (void)WriteInode(kRootIno, root);
  (void)cache_.Sync();
}

uint64_t DiskFileSystem::GroupOfBlock(uint64_t block) const {
  const uint64_t data_blocks = layout_.total_blocks - layout_.data_start;
  const uint64_t group_size =
      std::max<uint64_t>(1, data_blocks / options_.allocation_groups);
  if (block < layout_.data_start) {
    return 0;
  }
  return std::min(options_.allocation_groups - 1,
                  (block - layout_.data_start) / group_size);
}

// --- Bitmaps --------------------------------------------------------------

Status DiskFileSystem::MetaWrite(uint64_t block, uint64_t offset,
                                 std::span<const uint8_t> data) {
  SSMC_RETURN_IF_ERROR(cache_.WritePartial(block, offset, data));
  if (options_.sync_metadata) {
    return cache_.FlushBlock(block);
  }
  return Status::Ok();
}

Status DiskFileSystem::SetBitmapBit(uint64_t bitmap_start, uint64_t index,
                                    bool value) {
  const uint64_t block = bitmap_start + index / (options_.block_bytes * 8);
  const uint64_t byte = (index / 8) % options_.block_bytes;
  std::vector<uint8_t> data(options_.block_bytes);
  SSMC_RETURN_IF_ERROR(cache_.Read(block, data));
  uint8_t b = data[byte];
  if (value) {
    b |= static_cast<uint8_t>(1u << (index % 8));
  } else {
    b &= static_cast<uint8_t>(~(1u << (index % 8)));
  }
  return MetaWrite(block, byte, std::span<const uint8_t>(&b, 1));
}

Result<bool> DiskFileSystem::GetBitmapBit(uint64_t bitmap_start,
                                          uint64_t index) {
  const uint64_t block = bitmap_start + index / (options_.block_bytes * 8);
  const uint64_t byte = (index / 8) % options_.block_bytes;
  std::vector<uint8_t> data(options_.block_bytes);
  SSMC_RETURN_IF_ERROR(cache_.Read(block, data));
  return (data[byte] >> (index % 8) & 1) != 0;
}

// --- Inodes ---------------------------------------------------------------

Result<DiskFileSystem::DiskInode> DiskFileSystem::ReadInode(uint32_t ino) {
  if (ino == 0 || ino >= options_.inode_count) {
    return OutOfRangeError("bad inode number");
  }
  const uint64_t byte_offset = static_cast<uint64_t>(ino) * kInodeBytes;
  const uint64_t block =
      layout_.inode_table_start + byte_offset / options_.block_bytes;
  const uint64_t offset = byte_offset % options_.block_bytes;
  std::vector<uint8_t> data(options_.block_bytes);
  SSMC_RETURN_IF_ERROR(cache_.Read(block, data));
  DiskInode inode;
  std::memcpy(&inode, data.data() + offset, sizeof(inode));
  return inode;
}

Status DiskFileSystem::WriteInode(uint32_t ino, const DiskInode& inode) {
  if (ino == 0 || ino >= options_.inode_count) {
    return OutOfRangeError("bad inode number");
  }
  const uint64_t byte_offset = static_cast<uint64_t>(ino) * kInodeBytes;
  const uint64_t block =
      layout_.inode_table_start + byte_offset / options_.block_bytes;
  const uint64_t offset = byte_offset % options_.block_bytes;
  return MetaWrite(block, offset,
                   std::span<const uint8_t>(
                       reinterpret_cast<const uint8_t*>(&inode),
                       sizeof(inode)));
}

Result<uint32_t> DiskFileSystem::AllocateInode(uint32_t mode) {
  for (uint32_t ino = 1; ino < options_.inode_count; ++ino) {
    Result<bool> used = GetBitmapBit(layout_.inode_bitmap_start, ino);
    if (!used.ok()) {
      return used.status();
    }
    if (!used.value()) {
      SSMC_RETURN_IF_ERROR(SetBitmapBit(layout_.inode_bitmap_start, ino, true));
      DiskInode inode;
      inode.mode = mode;
      SSMC_RETURN_IF_ERROR(WriteInode(ino, inode));
      return ino;
    }
  }
  return NoSpaceError("out of inodes");
}

Status DiskFileSystem::FreeInode(uint32_t ino) {
  DiskInode empty;
  SSMC_RETURN_IF_ERROR(WriteInode(ino, empty));
  return SetBitmapBit(layout_.inode_bitmap_start, ino, false);
}

// --- Data blocks ------------------------------------------------------------

Result<uint32_t> DiskFileSystem::AllocateDataBlock(uint32_t hint_block) {
  const uint64_t data_blocks = layout_.total_blocks - layout_.data_start;
  const uint64_t group_size =
      std::max<uint64_t>(1, data_blocks / options_.allocation_groups);
  const uint64_t start_group = hint_block != 0 ? GroupOfBlock(hint_block) : 0;
  const uint64_t start = layout_.data_start + start_group * group_size;

  // Scan forward from the preferred group, wrapping around.
  for (uint64_t i = 0; i < data_blocks; ++i) {
    uint64_t candidate = start + i;
    if (candidate >= layout_.total_blocks) {
      candidate = layout_.data_start + (candidate - layout_.total_blocks);
    }
    Result<bool> used = GetBitmapBit(layout_.data_bitmap_start, candidate);
    if (!used.ok()) {
      return used.status();
    }
    if (!used.value()) {
      SSMC_RETURN_IF_ERROR(
          SetBitmapBit(layout_.data_bitmap_start, candidate, true));
      return static_cast<uint32_t>(candidate);
    }
  }
  return NoSpaceError("disk full");
}

Status DiskFileSystem::FreeDataBlock(uint32_t block) {
  cache_.Invalidate(block);
  return SetBitmapBit(layout_.data_bitmap_start, block, false);
}

// --- File block mapping ------------------------------------------------------

Result<uint32_t> DiskFileSystem::GetFileBlock(uint32_t ino, DiskInode& inode,
                                              uint64_t index, bool allocate) {
  const uint32_t ppb = PointersPerBlock();
  const uint32_t hint = inode.direct[0] != 0
                            ? inode.direct[0]
                            : static_cast<uint32_t>(
                                  layout_.data_start +
                                  (ino % options_.allocation_groups) *
                                      ((layout_.total_blocks -
                                        layout_.data_start) /
                                       options_.allocation_groups));

  // Allocates a fresh, zeroed data block. Zeroing matters: the block may
  // have been freed from another file, and its stale on-disk contents must
  // never leak into the holes of its new owner.
  auto alloc_data = [&]() -> Result<uint32_t> {
    Result<uint32_t> fresh = AllocateDataBlock(hint);
    if (!fresh.ok()) {
      return fresh.status();
    }
    std::vector<uint8_t> zeros(options_.block_bytes, 0);
    SSMC_RETURN_IF_ERROR(cache_.Write(fresh.value(), zeros));
    return fresh.value();
  };

  // Reads (or allocates) the pointer at `slot` inside indirect block `blk`.
  auto pointer_at = [&](uint32_t blk, uint32_t slot,
                        bool alloc) -> Result<uint32_t> {
    std::vector<uint8_t> data(options_.block_bytes);
    SSMC_RETURN_IF_ERROR(cache_.Read(blk, data));
    stats_.indirect_fetches.Add();
    uint32_t ptr;
    std::memcpy(&ptr, data.data() + slot * 4, 4);
    if (ptr == 0 && alloc) {
      Result<uint32_t> fresh = alloc_data();
      if (!fresh.ok()) {
        return fresh.status();
      }
      ptr = fresh.value();
      SSMC_RETURN_IF_ERROR(MetaWrite(
          blk, slot * 4,
          std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(&ptr),
                                   4)));
    }
    return ptr;
  };

  // Allocates a zero-filled indirect block.
  auto alloc_indirect = [&]() -> Result<uint32_t> {
    Result<uint32_t> blk = AllocateDataBlock(hint);
    if (!blk.ok()) {
      return blk.status();
    }
    std::vector<uint8_t> zeros(options_.block_bytes, 0);
    SSMC_RETURN_IF_ERROR(cache_.Write(blk.value(), zeros));
    return blk.value();
  };

  if (index < kDirect) {
    if (inode.direct[index] == 0 && allocate) {
      Result<uint32_t> fresh = alloc_data();
      if (!fresh.ok()) {
        return fresh.status();
      }
      inode.direct[index] = fresh.value();
    }
    return inode.direct[index];
  }
  index -= kDirect;

  if (index < ppb) {
    if (inode.indirect == 0) {
      if (!allocate) {
        return uint32_t{0};
      }
      Result<uint32_t> blk = alloc_indirect();
      if (!blk.ok()) {
        return blk.status();
      }
      inode.indirect = blk.value();
    }
    return pointer_at(inode.indirect, static_cast<uint32_t>(index), allocate);
  }
  index -= ppb;

  if (index < static_cast<uint64_t>(ppb) * ppb) {
    if (inode.double_indirect == 0) {
      if (!allocate) {
        return uint32_t{0};
      }
      Result<uint32_t> blk = alloc_indirect();
      if (!blk.ok()) {
        return blk.status();
      }
      inode.double_indirect = blk.value();
    }
    Result<uint32_t> level1 = pointer_at(
        inode.double_indirect, static_cast<uint32_t>(index / ppb), false);
    if (!level1.ok()) {
      return level1.status();
    }
    uint32_t l1 = level1.value();
    if (l1 == 0) {
      if (!allocate) {
        return uint32_t{0};
      }
      Result<uint32_t> blk = alloc_indirect();
      if (!blk.ok()) {
        return blk.status();
      }
      l1 = blk.value();
      const uint32_t slot = static_cast<uint32_t>(index / ppb);
      SSMC_RETURN_IF_ERROR(MetaWrite(
          inode.double_indirect, slot * 4,
          std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(&l1), 4)));
    }
    return pointer_at(l1, static_cast<uint32_t>(index % ppb), allocate);
  }
  return OutOfRangeError("file exceeds maximum size");
}

Status DiskFileSystem::FreeFileBlocks(DiskInode& inode,
                                      uint64_t first_dead_index) {
  const uint32_t ppb = PointersPerBlock();
  const uint64_t total =
      DivCeil(inode.size, options_.block_bytes);

  // Data blocks.
  for (uint64_t i = first_dead_index; i < total; ++i) {
    Result<uint32_t> blk = GetFileBlock(0, inode, i, /*allocate=*/false);
    if (!blk.ok()) {
      return blk.status();
    }
    if (blk.value() != 0) {
      SSMC_RETURN_IF_ERROR(FreeDataBlock(blk.value()));
    }
  }
  for (uint64_t i = first_dead_index; i < std::min<uint64_t>(total, kDirect);
       ++i) {
    inode.direct[i] = 0;
  }

  // Indirect structures that are now entirely dead.
  if (inode.indirect != 0 && first_dead_index <= kDirect) {
    SSMC_RETURN_IF_ERROR(FreeDataBlock(inode.indirect));
    inode.indirect = 0;
  }
  if (inode.double_indirect != 0 &&
      first_dead_index <= kDirect + static_cast<uint64_t>(ppb)) {
    // Free the level-1 blocks first.
    std::vector<uint8_t> data(options_.block_bytes);
    SSMC_RETURN_IF_ERROR(cache_.Read(inode.double_indirect, data));
    for (uint32_t slot = 0; slot < ppb; ++slot) {
      uint32_t ptr;
      std::memcpy(&ptr, data.data() + slot * 4, 4);
      if (ptr != 0) {
        SSMC_RETURN_IF_ERROR(FreeDataBlock(ptr));
      }
    }
    SSMC_RETURN_IF_ERROR(FreeDataBlock(inode.double_indirect));
    inode.double_indirect = 0;
  }
  return Status::Ok();
}

// --- Read / write -----------------------------------------------------------

Result<uint64_t> DiskFileSystem::ReadAt(uint32_t ino, DiskInode& inode,
                                        uint64_t offset,
                                        std::span<uint8_t> out) {
  if (offset >= inode.size) {
    return uint64_t{0};
  }
  const uint64_t bs = options_.block_bytes;
  const uint64_t n = std::min<uint64_t>(out.size(), inode.size - offset);
  std::vector<uint8_t> staging(bs);
  uint64_t done = 0;
  while (done < n) {
    const uint64_t pos = offset + done;
    const uint64_t index = pos / bs;
    const uint64_t in_block = pos % bs;
    const uint64_t chunk = std::min(bs - in_block, n - done);
    Result<uint32_t> blk = GetFileBlock(ino, inode, index, /*allocate=*/false);
    if (!blk.ok()) {
      return blk.status();
    }
    if (blk.value() == 0) {
      std::memset(out.data() + done, 0, chunk);
    } else {
      SSMC_RETURN_IF_ERROR(cache_.Read(blk.value(), staging));
      std::memcpy(out.data() + done, staging.data() + in_block, chunk);
    }
    done += chunk;
  }
  return n;
}

Result<uint64_t> DiskFileSystem::WriteAt(uint32_t ino, DiskInode& inode,
                                         uint64_t offset,
                                         std::span<const uint8_t> data) {
  const uint64_t bs = options_.block_bytes;
  uint64_t done = 0;
  while (done < data.size()) {
    const uint64_t pos = offset + done;
    const uint64_t index = pos / bs;
    const uint64_t in_block = pos % bs;
    const uint64_t chunk = std::min(bs - in_block, data.size() - done);
    Result<uint32_t> blk = GetFileBlock(ino, inode, index, /*allocate=*/true);
    if (!blk.ok()) {
      return blk.status();
    }
    const std::span<const uint8_t> piece(data.data() + done, chunk);
    if (chunk == bs) {
      SSMC_RETURN_IF_ERROR(cache_.Write(blk.value(), piece));
    } else {
      SSMC_RETURN_IF_ERROR(cache_.WritePartial(blk.value(), in_block, piece));
    }
    done += chunk;
  }
  if (offset + data.size() > inode.size) {
    inode.size = offset + data.size();
  }
  return static_cast<uint64_t>(data.size());
}

// --- Directories --------------------------------------------------------------

Result<uint32_t> DiskFileSystem::DirLookup(uint32_t dir_ino,
                                           std::string_view name) {
  Result<DiskInode> dir = ReadInode(dir_ino);
  if (!dir.ok()) {
    return dir.status();
  }
  if (dir.value().mode != kModeDir) {
    return FailedPreconditionError("not a directory");
  }
  if (name.size() > kNameMax) {
    return NotFoundError(std::string(name));
  }
  // Entries are written zero-padded (DirAdd), so a fixed-width compare
  // against a zero-padded key matches exactly the names strncmp accepted.
  std::array<char, kNameMax> key = {};
  std::memcpy(key.data(), name.data(), name.size());
  const uint64_t entries = dir.value().size / kDirEntryBytes;
  std::array<uint8_t, kDirEntryBytes> entry;
  for (uint64_t i = 0; i < entries; ++i) {
    Result<uint64_t> n =
        ReadAt(dir_ino, dir.value(), i * kDirEntryBytes, entry);
    if (!n.ok()) {
      return n.status();
    }
    stats_.dir_scans.Add();
    uint32_t ino;
    std::memcpy(&ino, entry.data(), 4);
    if (ino != 0 &&
        std::memcmp(entry.data() + 4, key.data(), kNameMax) == 0) {
      return ino;
    }
  }
  return NotFoundError(std::string(name));
}

Status DiskFileSystem::DirAdd(uint32_t dir_ino, std::string_view name,
                              uint32_t ino) {
  if (name.size() > kNameMax) {
    return InvalidArgumentError("name too long");
  }
  Result<DiskInode> dir = ReadInode(dir_ino);
  if (!dir.ok()) {
    return dir.status();
  }
  DiskInode inode = dir.value();
  // Find a free slot, else append.
  const uint64_t entries = inode.size / kDirEntryBytes;
  std::vector<uint8_t> entry(kDirEntryBytes);
  uint64_t slot = entries;
  for (uint64_t i = 0; i < entries; ++i) {
    Result<uint64_t> n = ReadAt(dir_ino, inode, i * kDirEntryBytes, entry);
    if (!n.ok()) {
      return n.status();
    }
    uint32_t existing;
    std::memcpy(&existing, entry.data(), 4);
    if (existing == 0) {
      slot = i;
      break;
    }
  }
  std::fill(entry.begin(), entry.end(), 0);
  std::memcpy(entry.data(), &ino, 4);
  std::memcpy(entry.data() + 4, name.data(), name.size());
  Result<uint64_t> wrote = WriteAt(dir_ino, inode, slot * kDirEntryBytes,
                                   entry);
  if (!wrote.ok()) {
    return wrote.status();
  }
  SSMC_RETURN_IF_ERROR(WriteInode(dir_ino, inode));
  if (options_.sync_metadata) {
    // Directory data is metadata: push it to disk for consistency.
    Result<uint32_t> blk = GetFileBlock(
        dir_ino, inode, slot * kDirEntryBytes / options_.block_bytes, false);
    if (blk.ok() && blk.value() != 0) {
      SSMC_RETURN_IF_ERROR(cache_.FlushBlock(blk.value()));
    }
  }
  return Status::Ok();
}

Status DiskFileSystem::DirRemove(uint32_t dir_ino, std::string_view name) {
  Result<DiskInode> dir = ReadInode(dir_ino);
  if (!dir.ok()) {
    return dir.status();
  }
  DiskInode inode = dir.value();
  if (name.size() > kNameMax) {
    return NotFoundError(std::string(name));
  }
  std::array<char, kNameMax> key = {};
  std::memcpy(key.data(), name.data(), name.size());
  const uint64_t entries = inode.size / kDirEntryBytes;
  std::array<uint8_t, kDirEntryBytes> entry;
  for (uint64_t i = 0; i < entries; ++i) {
    Result<uint64_t> n = ReadAt(dir_ino, inode, i * kDirEntryBytes, entry);
    if (!n.ok()) {
      return n.status();
    }
    uint32_t ino;
    std::memcpy(&ino, entry.data(), 4);
    if (ino != 0 &&
        std::memcmp(entry.data() + 4, key.data(), kNameMax) == 0) {
      std::fill(entry.begin(), entry.end(), 0);
      Result<uint64_t> wrote =
          WriteAt(dir_ino, inode, i * kDirEntryBytes, entry);
      if (!wrote.ok()) {
        return wrote.status();
      }
      return WriteInode(dir_ino, inode);
    }
  }
  return NotFoundError(std::string(name));
}

Result<bool> DiskFileSystem::DirEmpty(uint32_t dir_ino) {
  Result<DiskInode> dir = ReadInode(dir_ino);
  if (!dir.ok()) {
    return dir.status();
  }
  const uint64_t entries = dir.value().size / kDirEntryBytes;
  std::vector<uint8_t> entry(kDirEntryBytes);
  for (uint64_t i = 0; i < entries; ++i) {
    Result<uint64_t> n =
        ReadAt(dir_ino, dir.value(), i * kDirEntryBytes, entry);
    if (!n.ok()) {
      return n.status();
    }
    uint32_t ino;
    std::memcpy(&ino, entry.data(), 4);
    if (ino != 0) {
      return false;
    }
  }
  return true;
}

Result<std::vector<std::pair<std::string, uint32_t>>>
DiskFileSystem::DirEntries(uint32_t dir_ino) {
  Result<DiskInode> dir = ReadInode(dir_ino);
  if (!dir.ok()) {
    return dir.status();
  }
  if (dir.value().mode != kModeDir) {
    return FailedPreconditionError("not a directory");
  }
  std::vector<std::pair<std::string, uint32_t>> result;
  const uint64_t entries = dir.value().size / kDirEntryBytes;
  std::vector<uint8_t> entry(kDirEntryBytes);
  for (uint64_t i = 0; i < entries; ++i) {
    Result<uint64_t> n =
        ReadAt(dir_ino, dir.value(), i * kDirEntryBytes, entry);
    if (!n.ok()) {
      return n.status();
    }
    uint32_t ino;
    std::memcpy(&ino, entry.data(), 4);
    if (ino != 0) {
      result.emplace_back(
          std::string(reinterpret_cast<const char*>(entry.data() + 4)), ino);
    }
  }
  return result;
}

// --- Path resolution ----------------------------------------------------------

Result<uint32_t> DiskFileSystem::Resolve(std::string_view path) {
  if (!IsValidPath(path)) {
    return InvalidArgumentError("bad path: " + std::string(path));
  }
  uint32_t ino = kRootIno;
  for (const std::string_view component : PathComponents(path)) {
    Result<uint32_t> next = DirLookup(ino, component);
    if (!next.ok()) {
      return next.status();
    }
    ino = next.value();
  }
  return ino;
}

Result<uint32_t> DiskFileSystem::ResolveParent(std::string_view path) {
  if (!IsValidPath(path) || path == "/") {
    return InvalidArgumentError("bad path: " + std::string(path));
  }
  return Resolve(ParentPathView(path));
}

// --- FileSystem interface -------------------------------------------------------

Status DiskFileSystem::Create(const std::string& path) {
  Result<uint32_t> parent = ResolveParent(path);
  if (!parent.ok()) {
    return parent.status();
  }
  if (DirLookup(parent.value(), BaseNameView(path)).ok()) {
    return AlreadyExistsError(path);
  }
  Result<uint32_t> ino = AllocateInode(kModeFile);
  if (!ino.ok()) {
    return ino.status();
  }
  SSMC_RETURN_IF_ERROR(DirAdd(parent.value(), BaseNameView(path), ino.value()));
  stats_.creates.Add();
  return Status::Ok();
}

Status DiskFileSystem::Mkdir(const std::string& path) {
  Result<uint32_t> parent = ResolveParent(path);
  if (!parent.ok()) {
    return parent.status();
  }
  if (DirLookup(parent.value(), BaseNameView(path)).ok()) {
    return AlreadyExistsError(path);
  }
  Result<uint32_t> ino = AllocateInode(kModeDir);
  if (!ino.ok()) {
    return ino.status();
  }
  return DirAdd(parent.value(), BaseNameView(path), ino.value());
}

Status DiskFileSystem::Unlink(const std::string& path) {
  Result<uint32_t> parent = ResolveParent(path);
  if (!parent.ok()) {
    return parent.status();
  }
  Result<uint32_t> ino = DirLookup(parent.value(), BaseNameView(path));
  if (!ino.ok()) {
    return ino.status();
  }
  Result<DiskInode> inode = ReadInode(ino.value());
  if (!inode.ok()) {
    return inode.status();
  }
  if (inode.value().mode == kModeDir) {
    return FailedPreconditionError(path + " is a directory");
  }
  SSMC_RETURN_IF_ERROR(FreeFileBlocks(inode.value(), 0));
  SSMC_RETURN_IF_ERROR(FreeInode(ino.value()));
  SSMC_RETURN_IF_ERROR(DirRemove(parent.value(), BaseNameView(path)));
  stats_.unlinks.Add();
  return Status::Ok();
}

Status DiskFileSystem::Rmdir(const std::string& path) {
  Result<uint32_t> parent = ResolveParent(path);
  if (!parent.ok()) {
    return parent.status();
  }
  Result<uint32_t> ino = DirLookup(parent.value(), BaseNameView(path));
  if (!ino.ok()) {
    return ino.status();
  }
  Result<DiskInode> inode = ReadInode(ino.value());
  if (!inode.ok()) {
    return inode.status();
  }
  if (inode.value().mode != kModeDir) {
    return FailedPreconditionError(path + " is not a directory");
  }
  Result<bool> empty = DirEmpty(ino.value());
  if (!empty.ok()) {
    return empty.status();
  }
  if (!empty.value()) {
    return FailedPreconditionError(path + " is not empty");
  }
  SSMC_RETURN_IF_ERROR(FreeFileBlocks(inode.value(), 0));
  SSMC_RETURN_IF_ERROR(FreeInode(ino.value()));
  return DirRemove(parent.value(), BaseNameView(path));
}

Result<uint64_t> DiskFileSystem::Read(const std::string& path, uint64_t offset,
                                      std::span<uint8_t> out) {
  Result<uint32_t> ino = Resolve(path);
  if (!ino.ok()) {
    return ino.status();
  }
  Result<DiskInode> inode = ReadInode(ino.value());
  if (!inode.ok()) {
    return inode.status();
  }
  if (inode.value().mode != kModeFile) {
    return FailedPreconditionError(path + " is not a regular file");
  }
  Result<uint64_t> n = ReadAt(ino.value(), inode.value(), offset, out);
  if (n.ok()) {
    stats_.reads.Add();
    stats_.read_bytes.Add(n.value());
  }
  return n;
}

Result<uint64_t> DiskFileSystem::Write(const std::string& path,
                                       uint64_t offset,
                                       std::span<const uint8_t> data) {
  Result<uint32_t> ino = Resolve(path);
  if (!ino.ok()) {
    return ino.status();
  }
  Result<DiskInode> inode = ReadInode(ino.value());
  if (!inode.ok()) {
    return inode.status();
  }
  if (inode.value().mode != kModeFile) {
    return FailedPreconditionError(path + " is not a regular file");
  }
  Result<uint64_t> n = WriteAt(ino.value(), inode.value(), offset, data);
  if (!n.ok()) {
    return n.status();
  }
  SSMC_RETURN_IF_ERROR(WriteInode(ino.value(), inode.value()));
  stats_.writes.Add();
  stats_.written_bytes.Add(n.value());
  return n;
}

Status DiskFileSystem::Truncate(const std::string& path, uint64_t size) {
  Result<uint32_t> ino = Resolve(path);
  if (!ino.ok()) {
    return ino.status();
  }
  Result<DiskInode> inode = ReadInode(ino.value());
  if (!inode.ok()) {
    return inode.status();
  }
  DiskInode node = inode.value();
  if (node.mode != kModeFile) {
    return FailedPreconditionError(path + " is not a regular file");
  }
  if (size < node.size) {
    const uint64_t first_dead = DivCeil(size, options_.block_bytes);
    SSMC_RETURN_IF_ERROR(FreeFileBlocks(node, first_dead));
    // Zero the cut-off tail of the surviving partial block so a later
    // extension reads zeros, not stale data.
    const uint64_t tail = size % options_.block_bytes;
    if (tail != 0) {
      Result<uint32_t> blk =
          GetFileBlock(ino.value(), node, size / options_.block_bytes,
                       /*allocate=*/false);
      if (!blk.ok()) {
        return blk.status();
      }
      if (blk.value() != 0) {
        const uint64_t zero_len =
            std::min(node.size - size, options_.block_bytes - tail);
        const std::vector<uint8_t> zeros(zero_len, 0);
        SSMC_RETURN_IF_ERROR(cache_.WritePartial(blk.value(), tail, zeros));
      }
    }
  }
  node.size = size;
  return WriteInode(ino.value(), node);
}

Result<FileInfo> DiskFileSystem::Stat(const std::string& path) {
  Result<uint32_t> ino = Resolve(path);
  if (!ino.ok()) {
    return ino.status();
  }
  Result<DiskInode> inode = ReadInode(ino.value());
  if (!inode.ok()) {
    return inode.status();
  }
  FileInfo info;
  info.is_directory = inode.value().mode == kModeDir;
  info.size = inode.value().size;
  return info;
}

Status DiskFileSystem::Rename(const std::string& from, const std::string& to) {
  if (IsSameOrUnder(to, from)) {
    return InvalidArgumentError("cannot move " + from + " into itself");
  }
  Result<uint32_t> from_parent = ResolveParent(from);
  if (!from_parent.ok()) {
    return from_parent.status();
  }
  Result<uint32_t> ino = DirLookup(from_parent.value(), BaseNameView(from));
  if (!ino.ok()) {
    return ino.status();
  }
  Result<uint32_t> to_parent = ResolveParent(to);
  if (!to_parent.ok()) {
    return to_parent.status();
  }
  if (DirLookup(to_parent.value(), BaseNameView(to)).ok()) {
    return AlreadyExistsError(to);
  }
  SSMC_RETURN_IF_ERROR(DirAdd(to_parent.value(), BaseNameView(to), ino.value()));
  return DirRemove(from_parent.value(), BaseNameView(from));
}

Result<std::vector<std::string>> DiskFileSystem::List(
    const std::string& path) {
  Result<uint32_t> ino = Resolve(path);
  if (!ino.ok()) {
    return ino.status();
  }
  Result<std::vector<std::pair<std::string, uint32_t>>> entries =
      DirEntries(ino.value());
  if (!entries.ok()) {
    return entries.status();
  }
  std::vector<std::string> names;
  names.reserve(entries.value().size());
  for (const auto& [name, entry_ino] : entries.value()) {
    names.push_back(name);
  }
  return names;
}

Status DiskFileSystem::Sync() { return cache_.Sync(); }

}  // namespace ssmc
