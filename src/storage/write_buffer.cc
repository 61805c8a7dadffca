#include "src/storage/write_buffer.h"

#include <cassert>

#include "src/obs/obs.h"

namespace ssmc {

WriteBuffer::WriteBuffer(StorageManager& storage, uint64_t capacity_pages,
                         FlushFn flush_fn)
    : storage_(storage),
      capacity_pages_(capacity_pages),
      flush_fn_(std::move(flush_fn)),
      residency_(storage.residency()),
      blocks_(residency_.blocks()) {
  assert(flush_fn_ && "write buffer needs a flush destination");
}

WriteBuffer::~WriteBuffer() {
  // Return DRAM pages; contents are owned by the file system's lifetime.
  RemoveAll();
}

void WriteBuffer::AttachObs(Obs* obs) {
  obs_ = obs;
  mirror_.Attach(obs,
                 {{"puts", &stats_.puts},
                  {"absorbed_overwrites", &stats_.absorbed_overwrites},
                  {"flushes", &stats_.flushes},
                  {"flushed_bytes", &stats_.flushed_bytes},
                  {"capacity_evictions", &stats_.capacity_evictions},
                  {"dropped_writes", &stats_.dropped_writes}},
                 {{"dirty_pages", [this] { return lru_.size; }}});
  if (obs_ != nullptr) {
    obs_track_ = obs_->tracer().RegisterTrack("write buffer");
  }
}

Status WriteBuffer::Put(SlotId slot, std::span<const uint8_t> data,
                        SimTime now, TenantId tenant) {
  assert(blocks_[slot].where == Residency::kHole ||
         blocks_[slot].where == Residency::kDirty);
  if (data.size() != page_bytes()) {
    residency_.ReleaseIfIdle(slot);
    return InvalidArgumentError("write buffer stores whole blocks");
  }
  stats_.puts.Add();
  stats_.put_bytes.Add(data.size());
  TenantIoStats& lane = stats_.by_tenant.For(tenant);
  lane.writes.Add();
  lane.written_bytes.Add(data.size());

  if (capacity_pages_ == 0) {
    // Unbuffered baseline: write straight through to flash.
    stats_.flushes.Add();
    stats_.flushed_bytes.Add(data.size());
    const BlockKey key = blocks_[slot].key;
    const Status flushed = flush_fn_(
        key, storage_.extent_pool().AllocateCopy(data.data()), tenant);
    residency_.ReleaseIfIdle(slot);
    return flushed;
  }

  if (blocks_[slot].where == Residency::kDirty) {
    // Overwrite absorbed in DRAM — this flash write never happens. The
    // block keeps its original dirty_since (the BSD 30-second rule ages
    // from first dirtying), so even hot blocks reach stable storage within
    // one age window. The billing tenant does refresh: last writer owns
    // the eventual flush.
    stats_.absorbed_overwrites.Add();
    blocks_[slot].tenant = tenant;
    storage_.WritePagePayload(blocks_[slot].page, 0, data);
    return Status::Ok();
  }

  uint32_t page = 0;
  if (lru_.size >= capacity_pages_) {
    // Full: flush the oldest dirty block and hand its DRAM page straight to
    // this one. Freeing it and allocating again would return the very same
    // page (the pool is LIFO), so the pair is skipped.
    stats_.capacity_evictions.Add();
    if (obs_ != nullptr) {
      obs_->tracer().Instant(obs_track_, "capacity-evict",
                             storage_.dram().clock().now());
    }
    const Status flushed = FlushEntry(lru_.head, &page);
    if (!flushed.ok()) {
      residency_.ReleaseIfIdle(slot);
      return flushed;
    }
  } else {
    // Dirty data is the buffer's reason to exist: allocate through the
    // residency manager so the clean cache (and, under migration policies,
    // other consumers' reclaimable pages) yields before a Put fails. Under
    // kWriteBufferOnly this is exactly the raw allocator.
    Result<uint64_t> fresh =
        residency_.AllocateDramPage(/*requester=*/nullptr);
    if (!fresh.ok()) {
      residency_.ReleaseIfIdle(slot);
      return fresh.status();
    }
    page = static_cast<uint32_t>(fresh.value());
  }
  storage_.WritePagePayload(page, 0, data);
  BlockState& block = blocks_[slot];
  block.where = Residency::kDirty;
  block.page = page;
  block.dirty_since = now;
  block.tenant = tenant;
  blocks_.PushBack(lru_, slot);
  return Status::Ok();
}

Status WriteBuffer::Get(SlotId slot, std::span<uint8_t> out) {
  if (out.size() != page_bytes()) {
    return InvalidArgumentError("write buffer reads whole blocks");
  }
  if (!Contains(slot)) {
    return NotFoundError("block not buffered");
  }
  storage_.ReadPagePayload(PageTier::kDram, blocks_[slot].page, 0, out, {});
  return Status::Ok();
}

void WriteBuffer::Remove(SlotId slot) {
  (void)storage_.FreePage(PageTier::kDram, blocks_[slot].page);
  Detach(slot);
}

void WriteBuffer::Detach(SlotId slot) {
  blocks_.Unlink(lru_, slot);
  blocks_[slot].where = Residency::kHole;
  residency_.ReleaseIfIdle(slot);
}

void WriteBuffer::RemoveAll() {
  // One pass, first dirtied first, so pages reach the pool in the order
  // they always have; the list is dropped whole at the end instead of
  // unlinked a slot at a time.
  for (SlotId slot = lru_.head; slot != kNoSlot;) {
    BlockState& block = blocks_[slot];
    const SlotId next = block.next;
    (void)storage_.FreePage(PageTier::kDram, block.page);
    block.prev = block.next = kNoSlot;
    block.where = Residency::kHole;
    residency_.ReleaseIfIdle(slot);
    slot = next;
  }
  lru_ = {};
}

bool WriteBuffer::Drop(SlotId slot) {
  if (!Contains(slot)) {
    return false;
  }
  stats_.dropped_writes.Add();
  stats_.dropped_bytes.Add(page_bytes());
  Remove(slot);
  return true;
}

Status WriteBuffer::FlushEntry(SlotId slot, uint32_t* kept_page) {
  // Reading the buffered page costs DRAM time as before, but hands the
  // flush destination the page's own extent: no staging copy.
  const BlockState block = blocks_[slot];
  PayloadRef data =
      storage_.ReadPagePayloadRef(PageTier::kDram, block.page, {});
  // Handing a kept page to the next block stands in for a free and an
  // allocation only because a flush itself allocates and frees no DRAM page.
  [[maybe_unused]] const uint64_t free_pages =
      storage_.free_pages(PageTier::kDram);
  SSMC_RETURN_IF_ERROR(flush_fn_(block.key, data, block.tenant));
  assert(storage_.free_pages(PageTier::kDram) == free_pages);
  stats_.flushes.Add();
  stats_.flushed_bytes.Add(data.size());
  if (kept_page == nullptr) {
    Remove(slot);
    return Status::Ok();
  }
  // Flash now shares the extent: drop the page's ref, so the next write
  // fills the page afresh instead of cloning it.
  storage_.DropPagePayload(block.page);
  Detach(slot);
  *kept_page = block.page;
  return Status::Ok();
}

Status WriteBuffer::Flush(SlotId slot) {
  return Contains(slot) ? FlushEntry(slot) : Status::Ok();
}

Status WriteBuffer::FlushOlderThan(SimTime now, Duration max_age) {
  const uint64_t flushes_before = stats_.flushes.value();
  // The LRU is in insertion order: Put's overwrite path absorbs the write
  // into the existing DRAM page and returns early — it neither refreshes
  // dirty_since nor moves the slot to the back. The head is therefore the
  // FIRST-dirtied block, dirty_since is monotone along the list, and it is
  // safe to stop at the first young one. This is what bounds staleness: a
  // block overwritten every second still flushes one age window after its
  // first buffered write, rather than being deferred forever.
  while (lru_.head != kNoSlot &&
         now - blocks_[lru_.head].dirty_since >= max_age) {
    SSMC_RETURN_IF_ERROR(FlushEntry(lru_.head));
  }
  if (obs_ != nullptr && stats_.flushes.value() != flushes_before) {
    obs_->tracer().Span(obs_track_, "age-flush", now,
                        storage_.dram().clock().now() - now,
                        {"blocks", stats_.flushes.value() - flushes_before});
  }
  return Status::Ok();
}

Status WriteBuffer::FlushAll() {
  const uint64_t flushes_before = stats_.flushes.value();
  const SimTime t0 = storage_.dram().clock().now();
  // LRU (first-dirtied) order, so the flash layout a sync leaves behind
  // depends only on the write sequence.
  while (lru_.head != kNoSlot) {
    SSMC_RETURN_IF_ERROR(FlushEntry(lru_.head));
  }
  if (obs_ != nullptr && stats_.flushes.value() != flushes_before) {
    obs_->tracer().Span(obs_track_, "sync-flush", t0,
                        storage_.dram().clock().now() - t0,
                        {"blocks", stats_.flushes.value() - flushes_before});
  }
  return Status::Ok();
}

uint64_t WriteBuffer::DropAllUnflushed() {
  const uint64_t lost = lru_.size * page_bytes();
  if (obs_ != nullptr && lost > 0) {
    obs_->tracer().Instant(obs_track_, "buffer-lost",
                           storage_.dram().clock().now(),
                           {"bytes_lost", lost});
  }
  RemoveAll();
  return lost;
}

}  // namespace ssmc
