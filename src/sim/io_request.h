// Explicit I/O requests — the unit of work flowing through the storage
// pipeline (paper Section 3.3).
//
// The paper's storage manager hides slow flash programs and erases by
// overlapping them with reads. The simulator used to model that implicitly:
// every device op charged latency against a per-bank `busy_until` timestamp
// and a `bool blocking` flag was threaded through FlashDevice, FlashStore,
// the WriteBuffer flush path, and the machine daemons. This header makes the
// request explicit: each device operation is an IoRequest with an op kind,
// an address range, a priority class, and issue/start/complete timestamps,
// scheduled onto a bank (channel) by an IoScheduler (io_scheduler.h).
//
// Priority classes order the contending streams the paper names:
//   foreground reads  — the CPU is waiting on the data;
//   flush writes      — the write buffer draining dirty blocks to flash;
//   cleaner traffic   — garbage collection, cold-data distillation, wear
//                       migration (pure background).
// Under the default FIFO policy the class is a label only (attribution
// accounting); under IoSchedPolicy::kPriority it reorders queued requests.

#ifndef SSMC_SRC_SIM_IO_REQUEST_H_
#define SSMC_SRC_SIM_IO_REQUEST_H_

#include <cstdint>
#include <type_traits>

#include "src/support/units.h"

namespace ssmc {

// Identifies the tenant (user, job, service class) on whose behalf an I/O
// is issued. Tenant 0 is the default single-tenant id: every request a
// machine issues without an explicit tenant carries it, so single-tenant
// simulations are bit-identical to the pre-tenancy simulator. Small dense
// ids are expected (per-tenant scheduler state is indexed by value).
using TenantId = uint16_t;
inline constexpr TenantId kDefaultTenant = 0;

// What the request does to the medium.
enum class IoOp : uint8_t {
  kRead = 0,
  kProgram,    // Flash program (erased bytes -> data).
  kErase,      // Flash sector erase.
  kDiskRead,   // Disk sector read (seek + rotation + transfer).
  kDiskWrite,  // Disk sector write.
};

// Scheduling class, most important first. Smaller value = served earlier
// when the scheduler reorders (IoSchedPolicy::kPriority).
enum class IoPriority : uint8_t {
  kForeground = 0,  // A caller is blocked on the result.
  kFlush = 1,       // Write-buffer / storage-manager flush traffic.
  kCleaner = 2,     // GC relocation, cold eviction, wear migration.
};
inline constexpr int kNumIoPriorities = 3;

const char* IoOpName(IoOp op);
const char* IoPriorityName(IoPriority priority);

// How a device schedules contending requests on one bank/channel.
//  * kFifo         — arrival order; dispatch math is exactly the historical
//                    charge-latency model (start = max(now, busy_until)),
//                    so every experiment is byte-identical to the
//                    pre-pipeline simulator. The default.
//  * kPriority     — a request may be dispatched ahead of queued (not yet
//                    started) lower-priority requests, pushing those back.
//                    This is the paper's "reads proceed during slow
//                    erase/writes" made literal: a foreground read never
//                    waits behind queued cleaner work, only behind the op
//                    already on the medium.
//  * kWeightedFair — start-time fair queuing (SFQ) over tenants: queued
//                    reservations are ordered by per-tenant virtual start
//                    tags so each backlogged tenant gets channel time in
//                    proportion to its weight. The op on the medium is
//                    never preempted. For a single tenant — and for any
//                    arrival pattern whose tag order equals arrival order,
//                    e.g. equal-weight round-robin submission — placement
//                    degenerates to FIFO bit-for-bit (see the differential
//                    oracle in io_scheduler_test).
//  * kTokenBucket  — per-tenant byte-rate admission control: a request
//                    from a rate-limited tenant starts no earlier than its
//                    bucket's eligible time. Queue order stays FIFO;
//                    unlimited tenants are unaffected.
enum class IoSchedPolicy : uint8_t {
  kFifo = 0,
  kPriority = 1,
  kWeightedFair = 2,
  kTokenBucket = 3,
};

const char* IoSchedPolicyName(IoSchedPolicy policy);

// How a caller issues an operation: its scheduling class, and whether the
// caller's clock advances to the operation's completion (a blocked CPU) or
// the bank absorbs the time in the background. Replaces the old
// `bool blocking` parameters.
struct IoIssue {
  IoPriority priority = IoPriority::kForeground;
  bool blocking = true;
  TenantId tenant = kDefaultTenant;
};

// `issue` re-attributed to `tenant` (priority/blocking unchanged).
inline constexpr IoIssue ForTenant(IoIssue issue, TenantId tenant) {
  issue.tenant = tenant;
  return issue;
}

// Convenience issue modes for the three streams.
inline constexpr IoIssue kForegroundIo{IoPriority::kForeground,
                                       /*blocking=*/true};
inline constexpr IoIssue kFlushIo{IoPriority::kFlush, /*blocking=*/false};
inline constexpr IoIssue kCleanerIo{IoPriority::kCleaner, /*blocking=*/false};

// One scheduled I/O operation. Built by the device layer; timestamps are
// filled in by the IoScheduler as the request moves issue -> start ->
// complete. queue wait = start - issue; service = complete - start.
struct IoRequest {
  IoOp op = IoOp::kRead;
  uint64_t addr = 0;   // First byte (flash) or sector index (disk).
  uint64_t bytes = 0;  // Transfer size; 0 for erases.
  IoPriority priority = IoPriority::kForeground;
  bool blocking = true;
  TenantId tenant = kDefaultTenant;  // Who the work is billed to.

  SimTime issue_time = 0;     // When the caller submitted the request.
  SimTime start_time = 0;     // When the medium began serving it.
  SimTime complete_time = 0;  // When the medium finished.

  Duration queue_wait() const { return start_time - issue_time; }
  Duration service() const { return complete_time - start_time; }
};
// Plain data: submission copies it into a reservation with no destructor to
// run, and the retire hook (IoScheduler::set_retire_hook) is the one way to
// see a request's final timestamps.
static_assert(std::is_trivially_copyable_v<IoRequest>);

}  // namespace ssmc

#endif  // SSMC_SRC_SIM_IO_REQUEST_H_
