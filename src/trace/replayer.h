// Trace replayer: drives any FileSystem with a trace, measuring per-op
// simulated latency and aggregate throughput. The same trace replayed
// against MemoryFileSystem and DiskFileSystem is the E3 experiment; the same
// trace replayed with different write-buffer sizes is E6.

#ifndef SSMC_SRC_TRACE_REPLAYER_H_
#define SSMC_SRC_TRACE_REPLAYER_H_

#include <array>
#include <span>
#include <string>

#include "src/fs/file_system.h"
#include "src/sim/clock.h"
#include "src/sim/event_queue.h"
#include "src/sim/io_request.h"
#include "src/sim/io_stats.h"
#include "src/sim/stats.h"
#include "src/trace/trace.h"

namespace ssmc {

class Obs;

struct ReplayReport {
  uint64_t ops = 0;
  uint64_t failures = 0;
  // Bytes successfully transferred. Failed read/write ops contribute nothing
  // here; their requested lengths are tallied separately below so throughput
  // numbers never include partially-failed transfers.
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t failed_read_bytes = 0;   // Requested bytes of failed reads.
  uint64_t failed_write_bytes = 0;  // Requested bytes of failed writes.
  SimTime started = 0;
  SimTime finished = 0;
  LatencyRecorder all_ops;
  // Indexed by static_cast<int>(TraceOp).
  std::array<LatencyRecorder, 8> per_op;

  Duration elapsed() const { return finished - started; }
  double OpsPerSecond() const {
    const double s = static_cast<double>(elapsed()) / kSecond;
    return s > 0 ? static_cast<double>(ops) / s : 0;
  }
  const LatencyRecorder& ForOp(TraceOp op) const {
    return per_op[static_cast<size_t>(op)];
  }

  // Device-level request attribution over the replay window (io_stats.h —
  // the same keyed lane struct FlashDevice::Stats uses): for each
  // scheduling class and each tenant, how much time its requests spent
  // queued behind other work vs being served by the medium. Filled by
  // drivers that own the device (MobileComputer::RunTrace); zero when the
  // replayer is used standalone.
  std::array<IoLaneStats, kNumIoPriorities> io_by_class;
  TenantLaneTable io_by_tenant;
  const IoLaneStats& ForClass(IoPriority p) const {
    return io_by_class[static_cast<size_t>(p)];
  }

  // Per-tier read attribution over the replay window (deltas of the file
  // system's read-source counters): which memory tier served the bytes.
  // Filled by drivers that own the machine (MobileComputer::RunTrace).
  uint64_t tier_dram_read_bytes = 0;   // Write buffer + clean DRAM cache.
  uint64_t tier_nvm_read_bytes = 0;    // NVM cache tier.
  uint64_t tier_flash_read_bytes = 0;  // Straight from flash.

  // Replay-level per-tenant operation latencies (read p50/p99 per tenant is
  // the E14 victim metric). Recorded by the replayer from each record's
  // tenant; a trace that never names one lands entirely in the
  // kDefaultTenant lane.
  TenantLatencyTable by_tenant;

  // Folds another report in (a shard of the same sharded experiment). The
  // merged window spans both reports, so OpsPerSecond() over the merge of
  // concurrent shards is aggregate simulated throughput.
  void Merge(const ReplayReport& other);
};

class TraceReplayer {
 public:
  // If `events` is provided, pending events (flush daemons, battery ticks)
  // run as simulated time advances between operations.
  TraceReplayer(FileSystem& fs, SimClock& clock, EventQueue* events = nullptr);

  // Replays the trace open-loop: each record is issued at max(record time,
  // completion of the previous op). Individual op failures are counted, not
  // fatal (a trace may delete a file twice under failure injection).
  ReplayReport Replay(const Trace& trace);

  // Observability (nullable; null detaches): one "replayer" trace track with
  // a span per replayed record, named after the op, covering issue to
  // completion in simulated time.
  void AttachObs(Obs* obs);

 private:
  // Deterministic content for writes (so read-back checks are possible):
  // byte i is uint8((hash(path) + offset + i) * 131).
  static void FillPattern(const std::string& path, uint64_t offset,
                          std::span<uint8_t> out);

  FileSystem& fs_;
  SimClock& clock_;
  EventQueue* events_;
  Obs* obs_ = nullptr;
  int obs_track_ = 0;
};

}  // namespace ssmc

#endif  // SSMC_SRC_TRACE_REPLAYER_H_
