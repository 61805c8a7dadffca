#include "src/trace/replayer.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/machine.h"
#include "src/trace/generator.h"

namespace ssmc {
namespace {

// The replayer's original write pattern, one byte at a time, kept verbatim
// as the reference for the period-256 fill.
void LegacyFillPattern(const std::string& path, uint64_t offset,
                       std::span<uint8_t> out) {
  const uint64_t h = std::hash<std::string>()(path);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<uint8_t>((h + offset + i) * 131);
  }
}

class ReplayerTest : public ::testing::Test {
 protected:
  ReplayerTest() : machine_(OmniBookConfig()) {}
  MobileComputer machine_;
};

TEST_F(ReplayerTest, ReplaysSimpleTrace) {
  Trace trace;
  trace.Add({0, TraceOp::kMkdir, "/d", 0, 0, ""});
  trace.Add({kMillisecond, TraceOp::kCreate, "/d/f", 0, 0, ""});
  trace.Add({2 * kMillisecond, TraceOp::kWrite, "/d/f", 0, 1000, ""});
  trace.Add({3 * kMillisecond, TraceOp::kRead, "/d/f", 0, 1000, ""});
  trace.Add({4 * kMillisecond, TraceOp::kStat, "/d/f", 0, 0, ""});
  trace.Add({5 * kMillisecond, TraceOp::kUnlink, "/d/f", 0, 0, ""});

  ReplayReport report = machine_.RunTrace(trace);
  EXPECT_EQ(report.ops, 6u);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.bytes_written, 1000u);
  EXPECT_EQ(report.bytes_read, 1000u);
  EXPECT_GE(report.elapsed(), 5 * kMillisecond);
}

TEST_F(ReplayerTest, FailuresCountedNotFatal) {
  Trace trace;
  trace.Add({0, TraceOp::kUnlink, "/missing", 0, 0, ""});
  trace.Add({10, TraceOp::kCreate, "/ok", 0, 0, ""});
  ReplayReport report = machine_.RunTrace(trace);
  EXPECT_EQ(report.ops, 2u);
  EXPECT_EQ(report.failures, 1u);
}

TEST_F(ReplayerTest, RespectsTraceTiming) {
  Trace trace;
  trace.Add({0, TraceOp::kCreate, "/f", 0, 0, ""});
  trace.Add({kSecond, TraceOp::kStat, "/f", 0, 0, ""});
  ReplayReport report = machine_.RunTrace(trace);
  EXPECT_GE(report.elapsed(), kSecond);
}

TEST_F(ReplayerTest, PerOpLatenciesRecorded) {
  Trace trace;
  trace.Add({0, TraceOp::kCreate, "/f", 0, 0, ""});
  trace.Add({10, TraceOp::kWrite, "/f", 0, 4096, ""});
  trace.Add({20, TraceOp::kRead, "/f", 0, 4096, ""});
  ReplayReport report = machine_.RunTrace(trace);
  EXPECT_EQ(report.ForOp(TraceOp::kWrite).count(), 1u);
  EXPECT_EQ(report.ForOp(TraceOp::kRead).count(), 1u);
  EXPECT_GT(report.ForOp(TraceOp::kWrite).mean_ns(), 0.0);
}

TEST_F(ReplayerTest, GeneratedOfficeTraceReplaysCleanly) {
  WorkloadOptions options = OfficeWorkload();
  options.duration = kMinute;
  options.max_file_bytes = 64 * 1024;  // Keep within the small machine.
  Trace trace = WorkloadGenerator(options).Generate();
  ReplayReport report = machine_.RunTrace(trace);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.ops, trace.size());
  EXPECT_GT(report.OpsPerSecond(), 0.0);
}

// Regression: a failed transfer must never leak its requested length into
// the throughput byte counts; it is tallied in failed_{read,write}_bytes.
TEST_F(ReplayerTest, FailedOpBytesCountedSeparately) {
  Trace trace;
  trace.Add({0, TraceOp::kCreate, "/f", 0, 0, ""});
  trace.Add({10, TraceOp::kWrite, "/f", 0, 2048, ""});
  trace.Add({20, TraceOp::kRead, "/f", 0, 2048, ""});
  trace.Add({30, TraceOp::kRead, "/missing", 0, 4096, ""});  // Fails.
  trace.Add({40, TraceOp::kWrite, "/missing", 0, 1024, ""});  // Fails.
  ReplayReport report = machine_.RunTrace(trace);
  EXPECT_EQ(report.failures, 2u);
  EXPECT_EQ(report.bytes_read, 2048u);
  EXPECT_EQ(report.bytes_written, 2048u);
  EXPECT_EQ(report.failed_read_bytes, 4096u);
  EXPECT_EQ(report.failed_write_bytes, 1024u);
}

// Same regression against a device-level fault: an injected flash read fault
// surfaces as a failed read whose bytes stay out of bytes_read.
TEST_F(ReplayerTest, InjectedFlashFaultKeepsBytesOutOfThroughput) {
  Trace setup;
  setup.Add({0, TraceOp::kCreate, "/f", 0, 0, ""});
  setup.Add({10, TraceOp::kWrite, "/f", 0, 8192, ""});
  ReplayReport wrote = machine_.RunTrace(setup);
  ASSERT_EQ(wrote.failures, 0u);
  // Flush the write buffer so subsequent reads must come from flash.
  ASSERT_TRUE(machine_.fs().Sync().ok());

  // Poison the sector holding the file's first block.
  auto locations = machine_.fs().BlockLocations("/f");
  ASSERT_TRUE(locations.ok());
  ASSERT_FALSE(locations.value().empty());
  ASSERT_EQ(locations.value()[0].kind, BlockLocation::Kind::kFlash);
  auto addr =
      machine_.flash_store().PhysicalAddressOf(locations.value()[0].flash_block);
  ASSERT_TRUE(addr.ok());
  machine_.flash().InjectReadFaults(addr.value() / machine_.flash().sector_bytes(),
                                    1000);

  Trace read_back;
  read_back.Add({0, TraceOp::kRead, "/f", 0, 8192, ""});
  ReplayReport report = machine_.RunTrace(read_back);
  EXPECT_EQ(report.failures, 1u);
  EXPECT_EQ(report.bytes_read, 0u);
  EXPECT_EQ(report.failed_read_bytes, 8192u);
}

TEST(ReplayReportTest, MergeCombinesShards) {
  ReplayReport a;
  a.ops = 10;
  a.failures = 1;
  a.bytes_read = 100;
  a.bytes_written = 200;
  a.failed_read_bytes = 50;
  a.started = 1000;
  a.finished = 5000;
  a.all_ops.Record(10);
  a.per_op[static_cast<size_t>(TraceOp::kRead)].Record(10);

  ReplayReport b;
  b.ops = 20;
  b.failures = 2;
  b.bytes_read = 300;
  b.bytes_written = 400;
  b.failed_write_bytes = 60;
  b.started = 500;
  b.finished = 4000;
  b.all_ops.Record(30);
  b.per_op[static_cast<size_t>(TraceOp::kWrite)].Record(30);

  ReplayReport merged;
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_EQ(merged.ops, 30u);
  EXPECT_EQ(merged.failures, 3u);
  EXPECT_EQ(merged.bytes_read, 400u);
  EXPECT_EQ(merged.bytes_written, 600u);
  EXPECT_EQ(merged.failed_read_bytes, 50u);
  EXPECT_EQ(merged.failed_write_bytes, 60u);
  // The merged window spans both shards (concurrent users overlap).
  EXPECT_EQ(merged.started, 500);
  EXPECT_EQ(merged.finished, 5000);
  EXPECT_EQ(merged.all_ops.count(), 2u);
  EXPECT_EQ(merged.ForOp(TraceOp::kRead).count(), 1u);
  EXPECT_EQ(merged.ForOp(TraceOp::kWrite).count(), 1u);

  // Merging an empty report is the identity.
  ReplayReport before = merged;
  merged.Merge(ReplayReport());
  EXPECT_EQ(merged.ops, before.ops);
  EXPECT_EQ(merged.started, before.started);
  EXPECT_EQ(merged.finished, before.finished);
}

// Every byte a replayed write stores must be the legacy pattern's: lengths
// around the 256-byte period and its doublings, at offsets that shift the
// phase, each on its own path (so its own path hash), read back through
// the file system.
TEST_F(ReplayerTest, WrittenBytesMatchTheLegacyPattern) {
  const uint64_t lengths[] = {1, 63, 255, 256, 257, 511, 512, 513, 4103, 65536};
  const uint64_t offsets[] = {0, 1, 255, 1000};
  Trace trace;
  trace.Add({0, TraceOp::kMkdir, "/w", 0, 0, ""});
  SimTime at = 0;
  for (const uint64_t length : lengths) {
    for (const uint64_t offset : offsets) {
      const std::string path = "/w/len" + std::to_string(length) + "_off" +
                               std::to_string(offset);
      trace.Add({at += kMillisecond, TraceOp::kCreate, path, 0, 0, ""});
      trace.Add(
          {at += kMillisecond, TraceOp::kWrite, path, offset, length, ""});
    }
  }
  ReplayReport report = machine_.RunTrace(trace);
  ASSERT_EQ(report.failures, 0u);

  for (const uint64_t length : lengths) {
    for (const uint64_t offset : offsets) {
      const std::string path = "/w/len" + std::to_string(length) + "_off" +
                               std::to_string(offset);
      std::vector<uint8_t> expected(offset + length, 0);
      LegacyFillPattern(path, offset,
                        std::span<uint8_t>(expected).subspan(offset));
      std::vector<uint8_t> actual(offset + length);
      Result<uint64_t> n = machine_.fs().Read(path, 0, actual);
      ASSERT_TRUE(n.ok()) << path;
      ASSERT_EQ(n.value(), expected.size()) << path;
      EXPECT_EQ(actual, expected) << path;
    }
  }
}

TEST_F(ReplayerTest, FlushDaemonRunsDuringReplay) {
  // A write left idle past the flush age must reach flash via the daemon
  // without an explicit Sync.
  Trace trace;
  trace.Add({0, TraceOp::kCreate, "/f", 0, 0, ""});
  trace.Add({kMillisecond, TraceOp::kWrite, "/f", 0, 512, ""});
  trace.Add({60 * kSecond, TraceOp::kStat, "/f", 0, 0, ""});
  ReplayReport report = machine_.RunTrace(trace);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_GT(machine_.flash_store().stats().user_writes.value(), 0u);
}

TEST_F(ReplayerTest, WriteHotTraceExercisesWriteBuffer) {
  WorkloadOptions options = WriteHotWorkload();
  options.duration = kMinute;
  options.max_file_bytes = 32 * 1024;
  Trace trace = WorkloadGenerator(options).Generate();
  ReplayReport report = machine_.RunTrace(trace);
  EXPECT_EQ(report.failures, 0u);
  const auto& wb = machine_.fs().write_buffer().stats();
  // Overwrite absorption and/or delete-dropping must have occurred.
  EXPECT_GT(wb.absorbed_overwrites.value() + wb.dropped_writes.value(), 0u);
}

}  // namespace
}  // namespace ssmc
