#include "src/trace/replayer.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

#include "src/obs/obs.h"

namespace ssmc {

void ReplayReport::Merge(const ReplayReport& other) {
  if (other.ops == 0 && other.elapsed() == 0) {
    return;
  }
  if (ops == 0 && elapsed() == 0) {
    started = other.started;
    finished = other.finished;
  } else {
    started = std::min(started, other.started);
    finished = std::max(finished, other.finished);
  }
  ops += other.ops;
  failures += other.failures;
  bytes_read += other.bytes_read;
  bytes_written += other.bytes_written;
  failed_read_bytes += other.failed_read_bytes;
  failed_write_bytes += other.failed_write_bytes;
  all_ops.Merge(other.all_ops);
  for (size_t i = 0; i < per_op.size(); ++i) {
    per_op[i].Merge(other.per_op[i]);
  }
  for (size_t i = 0; i < io_by_class.size(); ++i) {
    io_by_class[i].Merge(other.io_by_class[i]);
  }
  io_by_tenant.Merge(other.io_by_tenant);
  by_tenant.Merge(other.by_tenant);
  tier_dram_read_bytes += other.tier_dram_read_bytes;
  tier_nvm_read_bytes += other.tier_nvm_read_bytes;
  tier_flash_read_bytes += other.tier_flash_read_bytes;
}

TraceReplayer::TraceReplayer(FileSystem& fs, SimClock& clock,
                             EventQueue* events)
    : fs_(fs), clock_(clock), events_(events) {}

void TraceReplayer::AttachObs(Obs* obs) {
  obs_ = obs;
  if (obs_ != nullptr) {
    obs_track_ = obs_->tracer().RegisterTrack("replayer");
  }
}

void TraceReplayer::FillPattern(const std::string& path, uint64_t offset,
                                std::span<uint8_t> out) {
  // Byte i depends only on (hash + offset + i) mod 256, so the pattern
  // repeats every 256 bytes: compute one period, then double it in place.
  const auto start =
      static_cast<uint8_t>(std::hash<std::string>()(path) + offset);
  const size_t n = out.size();
  const size_t period = std::min<size_t>(n, 256);
  for (unsigned i = 0; i < period; ++i) {
    out[i] = static_cast<uint8_t>((start + i) * 131u);
  }
  for (size_t filled = period; filled < n;) {
    const size_t chunk = std::min(filled, n - filled);
    std::memcpy(out.data() + filled, out.data(), chunk);
    filled += chunk;
  }
}

ReplayReport TraceReplayer::Replay(const Trace& trace) {
  ReplayReport report;
  report.started = clock_.now();
  std::vector<uint8_t> buffer;
  // One allocation up front instead of growing across the replay.
  uint64_t max_length = 0;
  for (const TraceRecord& r : trace.records()) {
    max_length = std::max(max_length, r.length);
  }
  buffer.reserve(max_length);

  // Per-record tenant propagation: the file system stamps the current
  // tenant onto every device I/O it issues. Only transitions pay the
  // virtual call, so a single-tenant trace replays with one (the reset).
  TenantId current_tenant = kDefaultTenant;
  fs_.set_current_tenant(current_tenant);

  for (const TraceRecord& r : trace.records()) {
    if (r.tenant != current_tenant) {
      current_tenant = r.tenant;
      fs_.set_current_tenant(current_tenant);
    }
    // Advance to the issue time (unless we are already running behind).
    const SimTime issue_at = std::max(clock_.now(), report.started + r.at);
    if (events_ != nullptr) {
      events_->RunUntil(issue_at);
    } else {
      clock_.AdvanceTo(issue_at);
    }

    const SimTime before = clock_.now();
    Status status;
    switch (r.op) {
      case TraceOp::kCreate:
        status = fs_.Create(r.path);
        break;
      case TraceOp::kMkdir:
        status = fs_.Mkdir(r.path);
        break;
      case TraceOp::kUnlink:
        status = fs_.Unlink(r.path);
        break;
      case TraceOp::kTruncate:
        status = fs_.Truncate(r.path, r.length);
        break;
      case TraceOp::kRename:
        status = fs_.Rename(r.path, r.path2);
        break;
      case TraceOp::kStat:
        status = fs_.Stat(r.path).status();
        break;
      case TraceOp::kWrite: {
        buffer.resize(r.length);
        FillPattern(r.path, r.offset, buffer);
        Result<uint64_t> n = fs_.Write(r.path, r.offset, buffer);
        status = n.status();
        if (n.ok()) {
          report.bytes_written += n.value();
        } else {
          report.failed_write_bytes += r.length;
        }
        break;
      }
      case TraceOp::kRead: {
        buffer.resize(r.length);
        Result<uint64_t> n = fs_.Read(r.path, r.offset, buffer);
        status = n.status();
        if (n.ok()) {
          report.bytes_read += n.value();
        } else {
          report.failed_read_bytes += r.length;
        }
        break;
      }
    }
    const Duration latency = clock_.now() - before;
    if (obs_ != nullptr) {
      // TraceOpName returns views over string literals, so .data() is a
      // stable null-terminated name.
      obs_->tracer().Span(obs_track_, TraceOpName(r.op).data(), before,
                          latency, {"bytes", r.length},
                          {"ok", status.ok() ? 1u : 0u});
    }
    report.ops += 1;
    if (!status.ok()) {
      report.failures += 1;
    }
    report.all_ops.Record(latency);
    report.per_op[static_cast<size_t>(r.op)].Record(latency);
    if (r.op == TraceOp::kRead) {
      report.by_tenant.For(r.tenant).reads.Record(latency);
    } else if (r.op == TraceOp::kWrite) {
      report.by_tenant.For(r.tenant).writes.Record(latency);
    }
  }
  report.finished = clock_.now();
  return report;
}

}  // namespace ssmc
