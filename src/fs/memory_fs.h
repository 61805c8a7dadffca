// MemoryFileSystem — the paper's file system (Section 3.1).
//
// Everything the paper calls for:
//  * metadata is entirely memory-resident: the namespace is a
//    NamespaceTree (namespace_tree.h) in battery-backed DRAM, looked up at
//    DRAM speed (no metadata I/O); its per-component hook charges one DRAM
//    directory-entry read per component;
//  * no block clustering — flash has no seeks, so placement is whatever the
//    flash store's log gives us;
//  * no indirect blocks — a file's block map is one flat extent vector;
//  * no traditional buffer cache — reads resolve through the residency
//    manager (src/storage/residency.h): dirty blocks come from the DRAM
//    write buffer, promoted hot blocks from its clean cache (migration
//    policies only), everything else directly from flash at byte
//    granularity;
//  * writes go to the DRAM write buffer (copy-on-write from flash for
//    partial-block updates) and reach flash only when flushed — short-lived
//    data is dropped before it ever costs a flash program;
//  * deletes drop buffered blocks (write avoidance) and trim flash blocks.
//
// The file system is also the flush destination: when the write buffer
// evicts or ages out a dirty block, the callback here allocates a flash
// block (first write) or overwrites the existing one out-of-place.

#ifndef SSMC_SRC_FS_MEMORY_FS_H_
#define SSMC_SRC_FS_MEMORY_FS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/fs/file_system.h"
#include "src/fs/namespace_tree.h"
#include "src/obs/stats_mirror.h"
#include "src/sim/io_stats.h"
#include "src/sim/stats.h"
#include "src/storage/storage_manager.h"
#include "src/storage/write_buffer.h"
#include "src/support/status.h"

namespace ssmc {

class MetadataJournal;
struct JournalRecord;
enum class JournalRecordType : uint8_t;

struct MemoryFsOptions {
  // Write buffer capacity in pages (pages are storage.page_bytes() each).
  // 2048 pages of 512 B = 1 MiB, the size Baker et al. showed absorbs
  // 40-50% of write traffic. 0 = unbuffered write-through baseline.
  uint64_t write_buffer_pages = 2048;
  // Dirty blocks older than this are flushed by TickFlush().
  Duration flush_age = 30 * kSecond;
  // Durable metadata journal (ROADMAP E13), the only way the namespace
  // survives a total power failure. When set, every namespace mutation
  // appends a record to the journal before the operation is acked,
  // CheckpointMetadata() compacts through the journal's dense snapshot, and
  // the log is bounded by the journal's compaction advisory. Null = no
  // durable metadata: the namespace lives only in battery-backed DRAM.
  MetadataJournal* journal = nullptr;
};

// Where a mapped file block currently lives (consumed by the VM layer for
// copy-on-write file mappings and execute-in-place).
struct BlockLocation {
  enum class Kind { kHole, kBuffered, kFlash };
  Kind kind = Kind::kHole;
  uint64_t flash_block = 0;  // Valid when kind == kFlash.
};

// Outcome of remounting a file system from its journal after the
// battery-backed metadata was lost.
struct RecoveryReport {
  uint64_t directories_recovered = 0;
  uint64_t files_recovered = 0;
  uint64_t bytes_recovered = 0;  // File bytes whose blocks are in flash.
  SimTime checkpoint_age = 0;    // Age of the dense checkpoint under the log.
  uint64_t journal_records_replayed = 0;  // Log-tail records applied on top
                                          // of the checkpoint.
};

class MemoryFileSystem : public FileSystem {
 public:
  MemoryFileSystem(StorageManager& storage, MemoryFsOptions options);
  ~MemoryFileSystem() override;

  // --- Crash safety (Section 3.1) ----------------------------------------
  // The namespace and inodes live in battery-backed DRAM; flash must also
  // hold a recoverable copy or a total battery failure loses every file.
  // That copy is the metadata journal (MemoryFsOptions::journal).
  // CheckpointMetadata compacts it: the namespace is serialized into the
  // journal's dense checkpoint chain and the log is truncated. Fails with
  // FAILED_PRECONDITION on an unjournaled file system.
  Status CheckpointMetadata();

  // Journal-based remount (ROADMAP E13): mounts `journal` from flash (the
  // newest valid superblock), installs its dense namespace checkpoint, and
  // replays the log tail so every mutation the journal acked before the
  // crash is restored. Used after a total battery failure: the caller
  // constructs a fresh StorageManager over the surviving FlashStore (the
  // FTL's mapping is recoverable from per-sector summaries on real
  // hardware). Mount work scales with checkpoint size + log-tail length,
  // never with a per-path walk of the namespace. Buffered data that never
  // reached flash is gone; its blocks read as holes. `options.journal` is
  // overwritten to point at `journal`; the returned fs keeps journaling.
  static Result<std::unique_ptr<MemoryFileSystem>> RecoverFromJournal(
      MetadataJournal& journal, StorageManager& storage,
      MemoryFsOptions options, RecoveryReport* report);

  std::string name() const override { return "memory-fs"; }

  // The issuing tenant for subsequent operations: stamped onto every flash
  // read this fs issues, onto buffered dirty blocks (the eventual flush is
  // billed to the last writer), and onto per-tenant fs stats. Journal I/O
  // is billed to kJournalTenant instead. Also steers the residency
  // manager's promotion attribution.
  void set_current_tenant(TenantId tenant) override;
  TenantId current_tenant() const override { return tenant_; }

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

  // Periodic age-based flush; the machine's flush daemon calls this.
  Status TickFlush(SimTime now);

  // Stable identifier of a file: the file_id of its blocks' BlockKeys.
  Result<uint64_t> FileId(const std::string& path);

  // Current location of each block of the file; blocks beyond EOF excluded.
  // VM mappings re-resolve through this after faults because the cleaner
  // relocates flash blocks.
  Result<std::vector<BlockLocation>> BlockLocations(const std::string& path);

  // A VM fault is about to map block `block_index` of `path` from flash:
  // feeds the block's heat and returns true when the residency manager
  // wants it copied to DRAM instead (ResidencyManager::NoteVmFault). Walks
  // the path like FileId; false if it names no file.
  bool NoteVmFault(const std::string& path, uint64_t block_index);

  // Simulates total battery failure: every dirty buffered block is lost,
  // and the (battery-backed DRAM) clean cache evaporates with it — though
  // the latter costs nothing, its flash copies being authoritative.
  // Returns the number of lost dirty bytes. Flash contents survive.
  uint64_t LoseBufferedData() {
    storage_.residency().InvalidateAllClean();
    return buffer_.DropAllUnflushed();
  }

  const WriteBuffer& write_buffer() const { return buffer_; }
  WriteBuffer& write_buffer() { return buffer_; }
  StorageManager& storage() { return storage_; }
  uint64_t block_bytes() const { return storage_.page_bytes(); }

  struct Stats {
    Counter creates;
    Counter unlinks;
    Counter reads;
    Counter read_bytes;
    Counter writes;
    Counter written_bytes;
    Counter flash_direct_read_bytes;  // Bytes served straight from flash.
    Counter buffered_read_bytes;      // Bytes served from the write buffer.
    Counter clean_cached_read_bytes;  // Bytes served from the residency
                                      // manager's clean DRAM cache.
    Counter nvm_cached_read_bytes;    // Bytes served from the NVM tier.
    Counter cow_block_copies;         // Flash->DRAM copies for partial writes.
    // Per-tenant op/byte attribution at the fs boundary (reads include
    // bytes served from DRAM; the flash-only split lives in FlashStore).
    TenantIoTable by_tenant;
  };
  const Stats& stats() const { return stats_; }

  // Observability (nullable; null detaches): a "memory-fs" trace track with
  // data-op and checkpoint spans plus a Stats mirror collector. Also attaches
  // the embedded write buffer. The machine re-attaches after crash recovery
  // (the fs and buffer are rebuilt); track registration and collector keys
  // dedupe, so re-attachment is safe.
  void AttachObs(Obs* obs);

 private:
  // One block-map entry, 8 bytes: the block's flash logical block and its
  // residency state slot (block_state.h), each optional.
  struct BlockEntry {
    static constexpr uint32_t kNoFlash = ~uint32_t{0};
    uint32_t flash = kNoFlash;
    SlotId slot = kNoSlot;
  };
  static_assert(sizeof(BlockEntry) == 8);

  // A file's block map: block index -> entry. Deliberately flat: "the
  // complexity of multiple levels of indirect blocks may also be
  // eliminated." Most files are a block or two (the trace studies' small
  // files; 52-79% of the block maps the office, nvm and fleet workloads
  // build end at two entries or fewer), so up to kInline entries live in
  // the map itself, next to the inode, and only a larger file's entries
  // take a heap array.
  class BlockMap {
   public:
    BlockMap() = default;
    BlockMap(BlockMap&& other) noexcept { *this = std::move(other); }
    BlockMap& operator=(BlockMap&& other) noexcept;
    ~BlockMap() { delete[] heap_; }

    size_t size() const { return size_; }
    BlockEntry& operator[](size_t b) { return data()[b]; }
    const BlockEntry& operator[](size_t b) const { return data()[b]; }
    BlockEntry* begin() { return data(); }
    BlockEntry* end() { return data() + size_; }

    // Entries past the old size start empty (no flash block, no slot); the
    // storage never shrinks.
    void resize(size_t n);

   private:
    static constexpr uint32_t kInline = 2;

    BlockEntry* data() { return heap_ != nullptr ? heap_ : inline_; }
    const BlockEntry* data() const {
      return heap_ != nullptr ? heap_ : inline_;
    }

    BlockEntry* heap_ = nullptr;  // Owned; null while the map fits inline.
    uint32_t size_ = 0;
    uint32_t capacity_ = kInline;
    BlockEntry inline_[kInline];
  };

  struct Inode {
    uint64_t id = 0;
    uint64_t size = 0;
    BlockMap blocks;
    // Length of the flash block map the journal records. Entries at or past
    // it never hold a flash block, only a state slot (a block dirtied past
    // the last flushed one).
    uint64_t mapped = 0;
    // Last tenant to write this file; journaled (kTenantStamp) so post-crash
    // flush attribution survives remount.
    TenantId last_writer = kDefaultTenant;

    // Block `b`'s flash logical block, or -1 if not (yet) in flash.
    int64_t flash(uint64_t b) const {
      return b < blocks.size() && blocks[b].flash != BlockEntry::kNoFlash
                 ? int64_t{blocks[b].flash}
                 : int64_t{-1};
    }
  };

  using Tree = NamespaceTree<Inode>;

  // Per-component metadata costs (bytes charged to DRAM per operation).
  static constexpr uint64_t kDirEntryBytes = 48;
  static constexpr uint64_t kInodeBytes = 64;
  // Flash logical block the file system keeps out of the allocator (see
  // the constructor).
  static constexpr uint64_t kReservedBlock = 0;

  // True when mutations must be logged: a journal is attached and this is
  // not a replay. Call sites check it before building a record, so an
  // unjournaled file system never constructs one.
  bool journaled() const { return options_.journal != nullptr && !replaying_; }
  // Appends `record` durably; only valid when journaled(). The caller must
  // not have applied the mutation yet: a failed append fails the operation
  // with the namespace unchanged.
  Status JournalAppend(JournalRecord record);
  // The commit step of a path-named mutation (the tree runs it after its
  // checks): appends a `type` record for `path` (and rename target `path2`)
  // when journaled.
  Status JournalPathOp(JournalRecordType type, const std::string& path,
                       const std::string& path2 = {});
  // Compacts the journal (through CheckpointMetadata) once its log passes
  // the configured bound. Advisory: failures are swallowed, the log just
  // stays long until the next opportunity.
  void MaybeCompact();
  // Applies one recovered log record to the in-memory state. Never touches
  // the block allocator (extents are reserved in one pass after replay).
  Status ReplayRecord(const JournalRecord& record);

  // The tree's per-component hook: every directory entry a walk looks up
  // or List returns is one DRAM metadata read.
  auto ChargeDirEntry() {
    return [this] { storage_.ChargeMetadataRead(kDirEntryBytes); };
  }

  // The write buffer's flush destination. `tenant` is whoever last dirtied
  // the block (recorded by the buffer), not whoever triggered the drain.
  Status FlushBlock(const BlockKey& key, const PayloadRef& data,
                    TenantId tenant);

  // Block `b`'s state slot, or kNoSlot if it has none.
  SlotId FindSlot(const Inode& inode, uint64_t b) const {
    return b < inode.blocks.size()
               ? storage_.residency().blocks().Find(inode.blocks[b].slot,
                                                    BlockKey{inode.id, b})
               : kNoSlot;
  }
  // Block `b`'s state slot, allocating one (and the map entry) if needed.
  SlotId AcquireSlot(Inode& inode, uint64_t b);

  // Drops block `b`'s buffered data, cached copy and heat.
  void DropBlockState(Inode& inode, uint64_t b);
  // Releases one file block everywhere (buffer, caches, heat, flash).
  void ReleaseBlock(Inode& inode, uint64_t block_index);

  // Releases every block from the one after byte `size` to the end of the
  // block map (which covers bytes up to `end` and any flash block or state
  // past them), and zeroes the rest of the block holding byte `size`, so a
  // later extension reads zeros. The inode's size is the caller's to set.
  Status ReleaseTail(Inode& inode, uint64_t size, uint64_t end);

  // Undoes what a failed Write left past the file's end (it ran to byte
  // `end`): Unlink and Truncate only reach blocks below the size, so
  // anything staged beyond it would outlive the inode in the write buffer.
  void AbandonWrite(Inode& inode, uint64_t end);

  // Stages a block into the write buffer, performing copy-on-write from
  // flash (or the clean cache, at DRAM speed) when the write does not cover
  // the whole block. Assembles the block in scratch_.
  Status StageBlockWrite(Inode& inode, uint64_t block_index,
                         uint64_t offset_in_block,
                         std::span<const uint8_t> data);

  StorageManager& storage_;
  MemoryFsOptions options_;
  WriteBuffer buffer_;
  Tree tree_;
  // One block of staging for Read's dirty blocks and StageBlockWrite's
  // copy-on-write. Neither nests: nothing under buffer_.Put (eviction ->
  // FlushBlock -> flash) calls back into the file system.
  std::vector<uint8_t> scratch_;
  // True while RecoverFromJournal replays records: suppresses journal
  // emission from the mutation paths replay reuses.
  bool replaying_ = false;
  TenantId tenant_ = kDefaultTenant;
  Stats stats_;
  Obs* obs_ = nullptr;
  int obs_track_ = 0;
  StatsMirror mirror_{"fs"};  // Last: its destructor runs the collector.
};

}  // namespace ssmc

#endif  // SSMC_SRC_FS_MEMORY_FS_H_
