// File-system trace records.
//
// The paper's storage-manager argument rests on trace-driven results
// (Ousterhout et al.'s BSD study, Baker et al.'s Sprite study): most files
// are small and short-lived, most bytes move in whole-file sequential
// transfers, and much written data dies young. The original traces are not
// available, so the generator (generator.h) synthesizes traces with those
// published properties; this header defines the timestamped record format
// they share with the replayer, plus text serialization for record/replay.

#ifndef SSMC_SRC_TRACE_TRACE_H_
#define SSMC_SRC_TRACE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/io_request.h"
#include "src/support/status.h"
#include "src/support/units.h"

namespace ssmc {

enum class TraceOp {
  kCreate,
  kWrite,
  kRead,
  kUnlink,
  kMkdir,
  kStat,
  kTruncate,
  kRename,
};

std::string_view TraceOpName(TraceOp op);

struct TraceRecord {
  SimTime at = 0;  // Issue time.
  TraceOp op = TraceOp::kStat;
  std::string path;
  uint64_t offset = 0;
  uint64_t length = 0;
  std::string path2;  // Rename destination.
  // Tenant issuing the operation. Serialized only when nonzero (as a
  // trailing "t=<n>" token), so single-tenant traces round-trip through the
  // text format unchanged from the pre-tenancy simulator.
  TenantId tenant = kDefaultTenant;

  bool operator==(const TraceRecord& other) const = default;
};

class Trace {
 public:
  void Add(TraceRecord record) { records_.push_back(std::move(record)); }
  const std::vector<TraceRecord>& records() const { return records_; }
  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  // Totals useful for sanity checks and bench headers.
  uint64_t TotalBytesWritten() const;
  uint64_t TotalBytesRead() const;
  SimTime DurationNs() const;

  // Records with issue time <= cutoff (failure-injection prefixes).
  Trace Prefix(SimTime cutoff) const;

  // A copy with every path prefixed by `prefix` (multi-session composition;
  // prefix must be a valid absolute directory path, and callers mkdir it).
  Trace WithPathPrefix(const std::string& prefix) const;

  // This trace with every record attributed to `tenant` (tenant-mix
  // composition: per-user workloads stamped with the user's tenant class).
  // Stamps in place and moves the records out, so nothing is copied; an
  // lvalue caller that wants to keep its trace copies it explicitly.
  Trace WithTenant(TenantId tenant) &&;

  // One line per record:
  // "<at> <op> <path> <offset> <length> [<path2>] [t=<tenant>]".
  std::string ToText() const;
  static Result<Trace> FromText(const std::string& text);

 private:
  std::vector<TraceRecord> records_;
};

}  // namespace ssmc

#endif  // SSMC_SRC_TRACE_TRACE_H_
