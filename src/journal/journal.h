// MetadataJournal — durable metadata persistence for the memory-resident
// file system (ROADMAP E13).
//
// The paper keeps the namespace in battery-backed DRAM; the journal is what
// makes the "no disk" claim survive arbitrary power failure. It is a small
// log-structured metadata store layered on the flash-block allocator:
//
//   superblock A/B   two fixed logical blocks, written alternately with a
//                    generation number — the commit point of every journal
//                    state change (see journal_format.h);
//   checkpoint chain a dense namespace snapshot, rewritten by compaction;
//   log chain        append-only mutation records (per-record CRC + LSN).
//
// Commit protocol. Append() encodes the record into the current tail block
// image and rewrites that ONE logical block through the flash store. The
// store's out-of-place write keeps the previous tail version mapped until
// the replacement program completes, so a power failure mid-program leaves
// every previously acked record readable — the write either lands whole or
// not at all from the log's point of view. A superblock write is needed
// only when the tail block changes identity (new tail, checkpoint,
// format), so the steady-state cost of durability is one block program per
// mutation.
//
// Compaction. WriteCheckpoint() persists a caller-provided snapshot into a
// fresh chain using cleaner-class I/O, commits it with a superblock write,
// then frees the previous checkpoint and the entire log — dead records are
// reclaimed wholesale. NeedsCompaction() tells the file system when the
// log has grown past the configured bound.
//
// Mount. Recover() reads superblocks, checkpoint, and log tail, reserving
// every journal-owned block with the storage manager. Chain reads are
// issued non-blocking: each block's successor id sits in the first bytes
// of its header, so a real controller pipelines the pointer chase and the
// banks stream payloads concurrently; the mount clock advances to the
// completion of the busiest bank. Replay work is therefore bounded by the
// checkpoint size over the bank-parallel read bandwidth plus the log-tail
// length — not by a serial walk of the namespace.
//
// Journal blocks are first-class flash residents billed to kJournalTenant:
// the FTL's per-tenant lanes attribute journal programs and any cleaner
// relocations of journal blocks to the journal itself.

#ifndef SSMC_SRC_JOURNAL_JOURNAL_H_
#define SSMC_SRC_JOURNAL_JOURNAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/journal/journal_format.h"
#include "src/obs/stats_mirror.h"
#include "src/sim/stats.h"
#include "src/storage/storage_manager.h"
#include "src/support/status.h"

namespace ssmc {

class Obs;

// Reserved tenant identity for journal-issued I/O (top of the 16-bit space,
// far from any workload tenant).
inline constexpr TenantId kJournalTenant = 0xFFFF;

struct MetadataJournalOptions {
  // NeedsCompaction() reports true once the log chain reaches this many
  // blocks (tail included). 0 disables the advisory (the log grows until
  // the caller checkpoints on its own schedule).
  uint64_t compact_log_blocks = 256;
};

class MetadataJournal {
 public:
  // Fixed superblock locations. Logical block 0 is kept out of the
  // allocator by the file system (memory_fs.cc) and holds nothing.
  static constexpr uint64_t kSuperblockA = 1;
  static constexpr uint64_t kSuperblockB = 2;

  MetadataJournal(StorageManager& storage, MetadataJournalOptions options = {});

  MetadataJournal(const MetadataJournal&) = delete;
  MetadataJournal& operator=(const MetadataJournal&) = delete;

  // Initializes a fresh journal on an empty store: reserves the superblock
  // pair and commits generation 1 (empty checkpoint, empty log).
  Status Format();

  // Assigns the next LSN to `record`, encodes it into the tail block, and
  // writes that block durably before returning. On success the record
  // survives any subsequent power failure; on failure the journal's
  // durable state is unchanged (the failed bytes are rolled back from the
  // tail image so a later Append never resurrects them). Returns the
  // assigned LSN.
  Result<uint64_t> Append(JournalRecord record);

  // Persists `snapshot` (the file system's dense namespace serialization)
  // as the new checkpoint and truncates the log: the previous checkpoint
  // chain and every log block are freed once the superblock commits. The
  // chain is written with cleaner-class I/O — compaction is background
  // reclamation, not foreground latency. A kCheckpoint record announcing
  // the new checkpoint LSN opens the fresh log.
  Status WriteCheckpoint(std::span<const uint8_t> snapshot);

  bool NeedsCompaction() const {
    return options_.compact_log_blocks > 0 &&
           log_block_ids_.size() >= options_.compact_log_blocks;
  }

  // Everything Recover() learned from flash, in replay order.
  struct MountState {
    std::vector<uint8_t> checkpoint;  // Dense snapshot (empty if none).
    uint64_t checkpoint_lsn = 0;
    SimTime checkpoint_time = 0;
    // Log records with lsn > checkpoint_lsn, oldest first. Replay stops at
    // the first record whose CRC fails (the torn tail of a power failure);
    // everything before it was acked and is intact.
    std::vector<JournalRecord> records;
  };

  // Mounts the journal from flash after a crash: picks the newest valid
  // superblock, reads the checkpoint chain and log chain (non-blocking,
  // bank-parallel — see file comment), reserves every journal-owned block
  // with the storage manager, and leaves this instance ready to Append().
  // FAILED_PRECONDITION if no valid superblock exists (never formatted);
  // DATA_LOSS if the superblock names blocks that cannot be read back.
  Result<MountState> Recover();

  bool formatted() const { return formatted_; }
  uint64_t next_lsn() const { return next_lsn_; }
  uint64_t checkpoint_lsn() const { return checkpoint_lsn_; }
  uint64_t generation() const { return generation_; }
  uint64_t log_blocks() const { return log_block_ids_.size(); }
  uint64_t checkpoint_blocks() const { return checkpoint_block_ids_.size(); }

  struct Stats {
    Counter records;           // Records durably appended.
    Counter appended_bytes;    // Encoded record bytes (not block rewrites).
    Counter log_block_writes;  // Tail-block programs issued.
    Counter superblock_writes;
    Counter checkpoints;       // Successful WriteCheckpoint() calls.
    Counter checkpoint_bytes;  // Snapshot payload bytes persisted.
    Counter compacted_blocks;  // Old checkpoint + log blocks reclaimed.
  };
  const Stats& stats() const { return stats_; }

  // Observability (nullable; null detaches): counter mirrors plus log/lsn
  // gauges under "journal/". The machine re-attaches after recovery
  // rebuilds the journal (keyed collectors replace).
  void AttachObs(Obs* obs);

 private:
  // Writes the live state as generation_ + 1 into the alternate superblock
  // slot; bumps generation_ on success.
  Status WriteSuperblock();
  // Writes `image` (a full block) to logical `block` on the journal's
  // tenant. `priority` distinguishes append/commit traffic (kFlush) from
  // compaction (kCleaner).
  Status WriteBlock(uint64_t block, std::span<const uint8_t> image,
                    IoPriority priority);

  StorageManager& storage_;
  MetadataJournalOptions options_;
  bool formatted_ = false;
  uint64_t generation_ = 0;
  uint64_t next_lsn_ = 1;
  uint64_t checkpoint_lsn_ = 0;
  SimTime checkpoint_time_ = 0;
  uint64_t checkpoint_bytes_ = 0;
  std::vector<uint64_t> checkpoint_block_ids_;  // Chain order.
  std::vector<uint64_t> log_block_ids_;         // Oldest first; back = tail.
  // Image of the tail block (always block_bytes long, zero beyond
  // tail_used_). Rewritten in place on every Append.
  std::vector<uint8_t> tail_buf_;
  uint64_t tail_used_ = 0;
  Stats stats_;
  StatsMirror mirror_{"journal"};  // Last: its destructor runs the collector.
};

}  // namespace ssmc

#endif  // SSMC_SRC_JOURNAL_JOURNAL_H_
