// DiskFileSystem — the conventional organization the paper argues mobile
// computers will abandon. A classical UNIX-style file system over a
// simulated magnetic disk, complete with everything the memory-resident
// file system gets to delete:
//  * on-disk inodes with direct, single-indirect and double-indirect block
//    pointers;
//  * allocation bitmaps and an inode table occupying disk blocks;
//  * directory contents stored in file data blocks and scanned linearly;
//  * an LRU buffer cache hiding disk latency, write-back for data and
//    write-through for metadata (the classical consistency compromise);
//  * allocation-group placement that tries to cluster a file's blocks near
//    each other to shorten seeks.
//
// On-disk layout (cache blocks of block_bytes, default 4 KiB):
//   [0]                superblock
//   [1 .. ib]          inode bitmap
//   [ib+1 .. db]       data bitmap (covers the whole device)
//   [db+1 .. it]       inode table (128 B per inode)
//   [it+1 .. end]      data blocks

#ifndef SSMC_SRC_FS_DISK_FS_H_
#define SSMC_SRC_FS_DISK_FS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/device/disk_device.h"
#include "src/fs/buffer_cache.h"
#include "src/fs/file_system.h"
#include "src/sim/stats.h"
#include "src/support/status.h"

namespace ssmc {

struct DiskFsOptions {
  uint64_t block_bytes = 4096;
  uint64_t cache_blocks = 64;       // 256 KiB cache at 4 KiB blocks.
  uint64_t inode_count = 1024;
  // Classical UNIX semantics: metadata (inodes, bitmaps, directories) is
  // written through to disk for crash consistency; file data is write-back.
  bool sync_metadata = true;
};

class DiskFileSystem : public FileSystem {
 public:
  // Formats the disk (mkfs) and mounts it.
  DiskFileSystem(DiskDevice& disk, DiskFsOptions options);

  std::string name() const override { return "disk-fs"; }

  Status Create(const std::string& path) override;
  Status Unlink(const std::string& path) override;
  Status Mkdir(const std::string& path) override;
  Status Rmdir(const std::string& path) override;
  Result<uint64_t> Read(const std::string& path, uint64_t offset,
                        std::span<uint8_t> out) override;
  Result<uint64_t> Write(const std::string& path, uint64_t offset,
                         std::span<const uint8_t> data) override;
  Status Truncate(const std::string& path, uint64_t size) override;
  Result<FileInfo> Stat(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Result<std::vector<std::string>> List(const std::string& path) override;
  Status Sync() override;

  const BufferCache& cache() const { return cache_; }

  // Flushes and empties the buffer cache — simulates a cold start (reboot)
  // for launch-latency measurements.
  Status DropCaches() { return cache_.DropAll(); }

  struct Stats {
    Counter creates;
    Counter unlinks;
    Counter reads;
    Counter read_bytes;
    Counter writes;
    Counter written_bytes;
    Counter dir_scans;          // Directory-block scans during lookups.
    Counter indirect_fetches;   // Indirect-block loads.
  };
  const Stats& stats() const { return stats_; }

  // Capacity facts derived from the layout (exposed for tests).
  uint64_t data_block_start() const { return layout_.data_start; }
  uint64_t total_blocks() const { return layout_.total_blocks; }

 private:
  // 128-byte on-disk inode. kDirect * 4 KiB direct + one indirect (1024
  // pointers) + one double indirect — the multi-level structure Section 3.1
  // says a single-level store eliminates.
  static constexpr uint32_t kDirect = 12;
  static constexpr uint32_t kInodeBytes = 128;
  static constexpr uint32_t kDirEntryBytes = 64;
  static constexpr uint32_t kNameMax = kDirEntryBytes - 4 - 1;

  struct DiskInode {
    uint32_t mode = 0;  // 0 free, 1 file, 2 directory.
    uint32_t reserved = 0;
    uint64_t size = 0;
    uint32_t direct[kDirect] = {};
    uint32_t indirect = 0;
    uint32_t double_indirect = 0;
    uint8_t padding[kInodeBytes - 4 - 4 - 8 - 4 * kDirect - 4 - 4] = {};
  };
  static_assert(sizeof(DiskInode) == kInodeBytes);

  struct Layout {
    uint64_t total_blocks = 0;
    uint64_t inode_bitmap_start = 0;
    uint64_t inode_bitmap_blocks = 0;
    uint64_t data_bitmap_start = 0;
    uint64_t data_bitmap_blocks = 0;
    uint64_t inode_table_start = 0;
    uint64_t inode_table_blocks = 0;
    uint64_t data_start = 0;
  };

  void Mkfs();

  // --- Inode access -------------------------------------------------------
  Result<DiskInode> ReadInode(uint32_t ino);
  Status WriteInode(uint32_t ino, const DiskInode& inode);
  Result<uint32_t> AllocateInode(uint32_t mode);
  Status FreeInode(uint32_t ino);

  // --- Block allocation ---------------------------------------------------
  // Allocates a data block, preferring the allocation group of `hint_block`
  // (0 = derive from the inode number) — FFS-style clustering.
  Result<uint32_t> AllocateDataBlock(uint32_t hint_block);
  Status FreeDataBlock(uint32_t block);
  Status SetBitmapBit(uint64_t bitmap_start, uint64_t index, bool value);
  Result<bool> GetBitmapBit(uint64_t bitmap_start, uint64_t index);

  // --- File block mapping -------------------------------------------------
  // Maps file block `index` to a disk block. With allocate=true missing
  // blocks (and missing indirect blocks) are allocated. Returns 0 for holes
  // when allocate=false.
  Result<uint32_t> GetFileBlock(uint32_t ino, DiskInode& inode, uint64_t index,
                                bool allocate);
  // Frees every data and indirect block of the inode beyond
  // `first_dead_index`.
  Status FreeFileBlocks(DiskInode& inode, uint64_t first_dead_index);

  // --- Directories --------------------------------------------------------
  // Scans directory `dir_ino` for `name`; returns the inode or NOT_FOUND.
  Result<uint32_t> DirLookup(uint32_t dir_ino, std::string_view name);
  Status DirAdd(uint32_t dir_ino, std::string_view name, uint32_t ino);
  Status DirRemove(uint32_t dir_ino, std::string_view name);
  Result<bool> DirEmpty(uint32_t dir_ino);
  Result<std::vector<std::pair<std::string, uint32_t>>> DirEntries(
      uint32_t dir_ino);

  // Resolves a path to an inode number.
  Result<uint32_t> Resolve(std::string_view path);
  // Resolves the parent directory of `path`.
  Result<uint32_t> ResolveParent(std::string_view path);

  // Metadata write helper honoring sync_metadata.
  Status MetaWrite(uint64_t block, uint64_t offset,
                   std::span<const uint8_t> data);

  Result<uint64_t> ReadAt(uint32_t ino, DiskInode& inode, uint64_t offset,
                          std::span<uint8_t> out);
  Result<uint64_t> WriteAt(uint32_t ino, DiskInode& inode, uint64_t offset,
                           std::span<const uint8_t> data);

  uint32_t PointersPerBlock() const {
    return static_cast<uint32_t>(options_.block_bytes / 4);
  }
  uint64_t GroupOfBlock(uint64_t block) const;

  DiskDevice& disk_;
  DiskFsOptions options_;
  BufferCache cache_;
  Layout layout_;
  Stats stats_;
};

}  // namespace ssmc

#endif  // SSMC_SRC_FS_DISK_FS_H_
