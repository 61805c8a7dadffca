#include "src/storage/write_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <vector>

#include "src/support/rng.h"
#include "tests/block_slots.h"

namespace ssmc {
namespace {

FlashSpec TestFlashSpec() {
  FlashSpec spec;
  spec.read = {100, 10};
  spec.program = {1000, 100};
  spec.erase_sector_bytes = 2048;
  spec.erase_ns = kMillisecond;
  spec.endurance_cycles = 1000000;
  return spec;
}

DramSpec TestDramSpec() {
  DramSpec spec;
  spec.read = {50, 10};
  spec.write = {60, 12};
  spec.active_mw_per_mib = 150;
  spec.standby_mw_per_mib = 1.5;
  return spec;
}

class WriteBufferTest : public ::testing::Test {
 protected:
  WriteBufferTest()
      : dram_(TestDramSpec(), 64 * 1024, clock_),
        flash_(TestFlashSpec(), 256 * 1024, 1, clock_),
        store_(flash_, {}),
        manager_(dram_, store_, 512) {}

  // Creates a buffer whose flushes record into flushed_ and write to the
  // flash store at block = key.block_index.
  std::unique_ptr<WriteBuffer> MakeBuffer(uint64_t capacity_pages) {
    return std::make_unique<WriteBuffer>(
        manager_, capacity_pages,
        [this](const BlockKey& key, const PayloadRef& data, TenantId) -> Status {
          flushed_[key.block_index] += 1;
          Result<Duration> r = store_.WriteRef(key.block_index, data,
                                               WriteStream::kUser,
                                               IoPriority::kForeground);
          return r.ok() ? Status::Ok() : r.status();
        });
  }

  std::vector<uint8_t> Page(uint8_t fill) {
    return std::vector<uint8_t>(512, fill);
  }

  SimClock clock_;
  DramDevice dram_;
  FlashDevice flash_;
  FlashStore store_;
  StorageManager manager_;
  BlockSlots slot{manager_.residency()};
  std::map<uint64_t, int> flushed_;
};

TEST_F(WriteBufferTest, PutThenGetRoundTrips) {
  auto buffer = MakeBuffer(16);
  const BlockKey key{1, 0};
  ASSERT_TRUE(buffer->Put(slot(key), Page(0xAA), clock_.now()).ok());
  EXPECT_TRUE(buffer->Contains(slot(key)));
  EXPECT_EQ(buffer->dirty_pages(), 1u);
  auto out = Page(0);
  ASSERT_TRUE(buffer->Get(slot(key), out).ok());
  EXPECT_EQ(out, Page(0xAA));
  EXPECT_TRUE(flushed_.empty());  // Nothing reached flash.
}

TEST_F(WriteBufferTest, GetMissingIsNotFound) {
  auto buffer = MakeBuffer(16);
  auto out = Page(0);
  EXPECT_EQ(buffer->Get(slot(BlockKey{1, 0}), out).code(),
            ErrorCode::kNotFound);
}

TEST_F(WriteBufferTest, WrongSizeRejected) {
  auto buffer = MakeBuffer(16);
  std::vector<uint8_t> small(100);
  EXPECT_EQ(buffer->Put(slot(BlockKey{1, 0}), small, 0).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(WriteBufferTest, OverwriteAbsorbedInDram) {
  auto buffer = MakeBuffer(16);
  const BlockKey key{1, 0};
  ASSERT_TRUE(buffer->Put(slot(key), Page(1), clock_.now()).ok());
  ASSERT_TRUE(buffer->Put(slot(key), Page(2), clock_.now()).ok());
  ASSERT_TRUE(buffer->Put(slot(key), Page(3), clock_.now()).ok());
  EXPECT_EQ(buffer->stats().absorbed_overwrites.value(), 2u);
  EXPECT_EQ(buffer->dirty_pages(), 1u);
  EXPECT_TRUE(flushed_.empty());
  auto out = Page(0);
  ASSERT_TRUE(buffer->Get(slot(key), out).ok());
  EXPECT_EQ(out, Page(3));
}

TEST_F(WriteBufferTest, CapacityEvictionFlushesOldest) {
  auto buffer = MakeBuffer(2);
  ASSERT_TRUE(buffer->Put(slot(BlockKey{1, 0}), Page(1), clock_.now()).ok());
  ASSERT_TRUE(buffer->Put(slot(BlockKey{1, 1}), Page(2), clock_.now()).ok());
  ASSERT_TRUE(buffer->Put(slot(BlockKey{1, 2}), Page(3), clock_.now()).ok());
  EXPECT_EQ(buffer->dirty_pages(), 2u);
  EXPECT_EQ(buffer->stats().capacity_evictions.value(), 1u);
  EXPECT_EQ(flushed_[0], 1);  // Oldest block flushed.
  EXPECT_FALSE(buffer->Contains(slot(BlockKey{1, 0})));
}

// A capacity eviction frees no DRAM page and allocates none: the victim's
// page goes straight to the incoming block, while the victim's own bytes
// reach flash. A failed flush changes nothing but the incoming slot, which
// is released.
TEST_F(WriteBufferTest, CapacityEvictionHandsVictimPageToIncomingBlock) {
  auto buffer = MakeBuffer(2);
  const BlockStateTable& blocks = manager_.residency().blocks();
  const SlotId oldest = slot(BlockKey{1, 0});
  const SlotId younger = slot(BlockKey{1, 1});
  ASSERT_TRUE(buffer->Put(oldest, Page(1), clock_.now()).ok());
  ASSERT_TRUE(buffer->Put(younger, Page(2), clock_.now()).ok());
  const uint32_t oldest_page = blocks[oldest].page;
  const uint64_t free_pages = manager_.free_pages(PageTier::kDram);

  const SlotId incoming = slot(BlockKey{1, 2});
  ASSERT_TRUE(buffer->Put(incoming, Page(3), clock_.now()).ok());
  EXPECT_EQ(manager_.free_pages(PageTier::kDram), free_pages);
  EXPECT_EQ(blocks[incoming].page, oldest_page);
  auto out = Page(0);
  ASSERT_TRUE(buffer->Get(incoming, out).ok());
  EXPECT_EQ(out, Page(3));
  ASSERT_TRUE(store_.Read(0, out).ok());
  EXPECT_EQ(out, Page(1)) << "the evicted block lost its bytes";

  const uint32_t younger_page = blocks[younger].page;
  const SlotId refused = slot(BlockKey{1, 3});
  flash_.FailNextProgramAfterBytes(0);
  EXPECT_FALSE(buffer->Put(refused, Page(4), clock_.now()).ok());
  EXPECT_TRUE(buffer->Contains(younger));
  EXPECT_EQ(blocks[younger].page, younger_page);
  ASSERT_TRUE(buffer->Get(younger, out).ok());
  EXPECT_EQ(out, Page(2));
  EXPECT_FALSE(blocks.live(refused));
  EXPECT_EQ(buffer->dirty_pages(), 2u);
  EXPECT_EQ(manager_.free_pages(PageTier::kDram), free_pages);
}

TEST_F(WriteBufferTest, OverwriteKeepsFirstDirtyOrder) {
  // Ordering follows first dirtying (BSD 30-second-rule semantics), so an
  // overwrite does not postpone a block's flush indefinitely.
  auto buffer = MakeBuffer(2);
  ASSERT_TRUE(buffer->Put(slot(BlockKey{1, 0}), Page(1), clock_.now()).ok());
  ASSERT_TRUE(buffer->Put(slot(BlockKey{1, 1}), Page(2), clock_.now()).ok());
  // Touch block 0 again: it stays the oldest-dirtied and is evicted first.
  ASSERT_TRUE(buffer->Put(slot(BlockKey{1, 0}), Page(3), clock_.now()).ok());
  ASSERT_TRUE(buffer->Put(slot(BlockKey{1, 2}), Page(4), clock_.now()).ok());
  EXPECT_EQ(flushed_[0], 1);
  EXPECT_TRUE(buffer->Contains(slot(BlockKey{1, 1})));
}

TEST_F(WriteBufferTest, HotBlockStillAgesOut) {
  auto buffer = MakeBuffer(16);
  ASSERT_TRUE(buffer->Put(slot(BlockKey{1, 0}), Page(1), clock_.now()).ok());
  // Keep overwriting for 40 s — hotter than the flush age.
  for (int i = 0; i < 40; ++i) {
    clock_.Advance(kSecond);
    ASSERT_TRUE(buffer->Put(slot(BlockKey{1, 0}), Page(2), clock_.now()).ok());
  }
  ASSERT_TRUE(buffer->FlushOlderThan(clock_.now(), 30 * kSecond).ok());
  // First dirtied 40 s ago: it must flush despite constant overwrites.
  EXPECT_EQ(flushed_[0], 1);
}

TEST_F(WriteBufferTest, OverwrittenHotBlockFlushesWithinExactlyOneAgeWindow) {
  // Regression for the FlushOlderThan early-stop invariant: lru_ is in
  // FIRST-dirty order because Put's overwrite path neither refreshes
  // dirty_since nor moves the entry. A hot block must flush at exactly one
  // age window after its first buffered write — no earlier (overwrites are
  // still being absorbed) and no later (an implementation that re-ordered on
  // overwrite would hide the old block behind younger entries and the
  // early-stop would defer it indefinitely).
  auto buffer = MakeBuffer(16);
  const Duration kWindow = 30 * kSecond;
  const SimTime first_dirty = clock_.now();
  ASSERT_TRUE(buffer->Put(slot(BlockKey{1, 0}), Page(1), clock_.now()).ok());
  // A younger block queued behind it must not shadow the older hot one.
  clock_.Advance(kSecond);
  ASSERT_TRUE(buffer->Put(slot(BlockKey{1, 1}), Page(9), clock_.now()).ok());

  // Overwrite every second, running the periodic flush like a sync daemon.
  while (clock_.now() - first_dirty < kWindow) {
    ASSERT_TRUE(buffer->FlushOlderThan(clock_.now(), kWindow).ok());
    EXPECT_TRUE(flushed_.empty()) << "flushed before the age window elapsed";
    clock_.Advance(kSecond);
    ASSERT_TRUE(buffer->Put(slot(BlockKey{1, 0}), Page(2), clock_.now()).ok());
  }

  ASSERT_TRUE(buffer->FlushOlderThan(clock_.now(), kWindow).ok());
  EXPECT_EQ(flushed_[0], 1);                      // Hot block reached flash,
  EXPECT_EQ(buffer->stats().flushes.value(), 1u);  // and nothing else did:
  EXPECT_TRUE(buffer->Contains(slot(BlockKey{1, 1})));  // 29 s old, young.
}

TEST_F(WriteBufferTest, DropAvoidsFlashWrite) {
  auto buffer = MakeBuffer(16);
  const BlockKey key{7, 3};
  ASSERT_TRUE(buffer->Put(slot(key), Page(1), clock_.now()).ok());
  EXPECT_TRUE(buffer->Drop(slot(key)));
  EXPECT_FALSE(buffer->Drop(slot(key)));  // Already gone.
  ASSERT_TRUE(buffer->FlushAll().ok());
  EXPECT_TRUE(flushed_.empty());
  EXPECT_EQ(buffer->stats().dropped_writes.value(), 1u);
}

TEST_F(WriteBufferTest, FlushAllWritesEverything) {
  auto buffer = MakeBuffer(16);
  for (uint64_t b = 0; b < 5; ++b) {
    ASSERT_TRUE(buffer->Put(slot(BlockKey{1, b}), Page(1), clock_.now()).ok());
  }
  ASSERT_TRUE(buffer->FlushAll().ok());
  EXPECT_EQ(buffer->dirty_pages(), 0u);
  EXPECT_EQ(flushed_.size(), 5u);
  EXPECT_EQ(buffer->stats().flushes.value(), 5u);
}

TEST_F(WriteBufferTest, FlushAllFollowsLruOrder) {
  // Sync drains in first-dirtied order, so the flash layout it leaves (and
  // every simulated number after it) depends only on the write sequence.
  std::vector<uint64_t> order;
  WriteBuffer buffer(
      manager_, 64,
      [this, &order](const BlockKey& key, const PayloadRef& data,
                     TenantId) -> Status {
        order.push_back(key.file_id * 100 + key.block_index);
        Result<Duration> r =
            store_.WriteRef(order.size(), data, WriteStream::kUser,
                            IoPriority::kForeground);
        return r.ok() ? Status::Ok() : r.status();
      });
  Rng rng(0x5EED);
  std::vector<uint64_t> expected;
  for (int i = 0; i < 48; ++i) {
    const BlockKey key{1 + rng.NextBelow(9), rng.NextBelow(40)};
    const uint64_t id = key.file_id * 100 + key.block_index;
    if (std::find(expected.begin(), expected.end(), id) == expected.end()) {
      expected.push_back(id);
    }
    ASSERT_TRUE(buffer.Put(slot(key), Page(1), clock_.now()).ok());
  }
  ASSERT_TRUE(buffer.FlushAll().ok());
  EXPECT_EQ(order, expected);
}

TEST_F(WriteBufferTest, FlushOlderThanHonorsAge) {
  auto buffer = MakeBuffer(16);
  ASSERT_TRUE(buffer->Put(slot(BlockKey{1, 0}), Page(1), clock_.now()).ok());
  clock_.Advance(40 * kSecond);
  ASSERT_TRUE(buffer->Put(slot(BlockKey{1, 1}), Page(2), clock_.now()).ok());
  // Block 0 is 40 s old; block 1 fresh. 30 s threshold flushes only block 0.
  ASSERT_TRUE(buffer->FlushOlderThan(clock_.now(), 30 * kSecond).ok());
  EXPECT_EQ(flushed_.size(), 1u);
  EXPECT_EQ(flushed_[0], 1);
  EXPECT_TRUE(buffer->Contains(slot(BlockKey{1, 1})));
}

TEST_F(WriteBufferTest, ZeroCapacityWritesThrough) {
  auto buffer = MakeBuffer(0);
  ASSERT_TRUE(buffer->Put(slot(BlockKey{1, 0}), Page(1), clock_.now()).ok());
  EXPECT_EQ(buffer->dirty_pages(), 0u);
  EXPECT_EQ(flushed_[0], 1);
  EXPECT_EQ(buffer->stats().flushes.value(), 1u);
}

TEST_F(WriteBufferTest, DropAllReportsLostBytes) {
  auto buffer = MakeBuffer(16);
  for (uint64_t b = 0; b < 3; ++b) {
    ASSERT_TRUE(buffer->Put(slot(BlockKey{1, b}), Page(1), clock_.now()).ok());
  }
  EXPECT_EQ(buffer->DropAllUnflushed(), 3u * 512);
  EXPECT_EQ(buffer->dirty_pages(), 0u);
  EXPECT_TRUE(flushed_.empty());
}

TEST_F(WriteBufferTest, DramPagesReturnedOnDropAndFlush) {
  auto buffer = MakeBuffer(16);
  const uint64_t free_before = manager_.free_pages(PageTier::kDram);
  ASSERT_TRUE(buffer->Put(slot(BlockKey{1, 0}), Page(1), clock_.now()).ok());
  ASSERT_TRUE(buffer->Put(slot(BlockKey{1, 1}), Page(1), clock_.now()).ok());
  EXPECT_EQ(manager_.free_pages(PageTier::kDram), free_before - 2);
  buffer->Drop(slot(BlockKey{1, 0}));
  ASSERT_TRUE(buffer->FlushAll().ok());
  EXPECT_EQ(manager_.free_pages(PageTier::kDram), free_before);
}

TEST_F(WriteBufferTest, RandomizedEvictionOrderIsStrictlyOldestFirst) {
  // Property test for the LRU invariant the flush daemon's early-stop and
  // the residency layer's FlushStream accounting both rely on: every
  // capacity eviction flushes exactly the entry whose FIRST dirtying is
  // oldest, regardless of overwrites, drops, and targeted flushes in
  // between. A reference model tracks first-put order in a deque; the
  // buffer's observed flush order must replay it.
  constexpr uint64_t kCapacity = 8;
  std::deque<uint64_t> model;  // Blocks in first-dirty order, front = oldest.
  std::vector<uint64_t> evicted;
  WriteBuffer buffer(
      manager_, kCapacity,
      [this, &evicted](const BlockKey& key, const PayloadRef& data, TenantId) -> Status {
        evicted.push_back(key.block_index);
        Result<Duration> r = store_.WriteRef(key.block_index, data,
                                             WriteStream::kUser,
                                             IoPriority::kForeground);
        return r.ok() ? Status::Ok() : r.status();
      });

  Rng rng(0xE12);
  uint64_t model_puts = 0;
  uint64_t model_drops = 0;
  std::vector<uint64_t> expected_evictions;
  for (int op = 0; op < 2000; ++op) {
    const uint64_t block = rng.NextBelow(32);
    const uint64_t action = rng.NextBelow(10);
    const bool buffered =
        std::find(model.begin(), model.end(), block) != model.end();
    if (action < 7) {  // Put (possibly an absorbed overwrite).
      if (!buffered && model.size() == kCapacity) {
        expected_evictions.push_back(model.front());  // Oldest must go.
        model.pop_front();
      }
      if (!buffered) {
        model.push_back(block);
      }
      // Overwrites must NOT move the entry: first-dirty order is preserved.
      ASSERT_TRUE(
          buffer.Put(slot(BlockKey{1, block}), Page(1), clock_.now()).ok());
      ++model_puts;
    } else if (action < 9) {  // Drop (write avoidance).
      if (buffered) {
        model.erase(std::find(model.begin(), model.end(), block));
        ++model_drops;
      }
      EXPECT_EQ(buffer.Drop(slot(BlockKey{1, block})), buffered);
    } else {  // Targeted flush of a specific block.
      if (buffered) {
        model.erase(std::find(model.begin(), model.end(), block));
        expected_evictions.push_back(block);
      }
      ASSERT_TRUE(buffer.Flush(slot(BlockKey{1, block})).ok());
    }
    clock_.Advance(kMillisecond);
    ASSERT_EQ(buffer.dirty_pages(), model.size());
  }

  // Flush order matched the model exactly — capacity evictions were always
  // the strictly oldest-dirtied entry.
  EXPECT_EQ(evicted, expected_evictions);
  ASSERT_FALSE(expected_evictions.empty());

  // Drain and check merged-stats parity: every put is accounted for as a
  // flush, an avoided (dropped) write, or a still-buffered absorbed
  // overwrite — nothing lost, nothing double-counted.
  ASSERT_TRUE(buffer.FlushAll().ok());
  const WriteBuffer::Stats& stats = buffer.stats();
  EXPECT_EQ(stats.puts.value(), model_puts);
  EXPECT_EQ(stats.flushes.value() + stats.dropped_writes.value() +
                stats.absorbed_overwrites.value(),
            model_puts);
  EXPECT_EQ(stats.dropped_writes.value(), model_drops);
  EXPECT_EQ(stats.put_bytes.value(), model_puts * 512);
  EXPECT_EQ(stats.flushed_bytes.value(), stats.flushes.value() * 512);
  EXPECT_EQ(stats.dropped_bytes.value(), stats.dropped_writes.value() * 512);
  EXPECT_EQ(buffer.dirty_pages(), 0u);
}

TEST_F(WriteBufferTest, WriteTrafficReductionUnderOverwrites) {
  // The headline mechanism of E6: repeated overwrites of a small set of hot
  // blocks reach flash far fewer times than they are written.
  auto buffer = MakeBuffer(64);
  int puts = 0;
  for (int round = 0; round < 100; ++round) {
    for (uint64_t b = 0; b < 8; ++b) {
      ASSERT_TRUE(
          buffer->Put(slot(BlockKey{1, b}), Page(1), clock_.now()).ok());
      ++puts;
    }
  }
  ASSERT_TRUE(buffer->FlushAll().ok());
  const uint64_t flushed_total = buffer->stats().flushes.value();
  EXPECT_EQ(flushed_total, 8u);  // One flash write per hot block.
  EXPECT_EQ(puts, 800);
}

}  // namespace
}  // namespace ssmc
