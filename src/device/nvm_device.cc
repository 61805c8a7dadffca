#include "src/device/nvm_device.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ssmc {

NvmDevice::NvmDevice(NvmSpec spec, uint64_t capacity_bytes, int banks,
                     SimClock& clock)
    : spec_(std::move(spec)),
      capacity_(capacity_bytes),
      clock_(clock),
      sched_(clock, banks, IoSchedPolicy::kFifo, &stats_),
      bank_obs_("nvm", sched_, stats_) {
  assert(banks >= 1);
  assert(capacity_ % static_cast<uint64_t>(banks) == 0 &&
         "capacity must divide evenly into banks");
  bytes_per_bank_ = capacity_ / static_cast<uint64_t>(banks);
  bank_writes_.assign(static_cast<size_t>(banks), 0);
  bank_write_bytes_.assign(static_cast<size_t>(banks), 0);
}

void NvmDevice::AttachObs(Obs* obs) {
  bank_obs_.Attach(
      obs,
      {{"reads", &stats_.reads}, {"read_bytes", &stats_.read_bytes},
       {"writes", &stats_.writes}, {"written_bytes", &stats_.written_bytes},
       {"read_stall_ns", &stats_.read_stall_ns}},
      {{"wear_max_bank_writes", [this] { return SummarizeWear().max_writes; }}});
}

IoScheduler::Dispatch NvmDevice::SubmitOp(IoOp op, int bank, uint64_t addr,
                                          uint64_t bytes, Duration op_ns,
                                          IoIssue issue) {
  const IoRequest req{.op = op,
                      .addr = addr,
                      .bytes = bytes,
                      .priority = issue.priority,
                      .blocking = issue.blocking,
                      .tenant = issue.tenant};
  const IoScheduler::Dispatch d = sched_.Submit(bank, req, op_ns);
  energy_.AddActive(active_mw(), op_ns);
  return d;
}

Result<Duration> NvmDevice::Read(uint64_t addr, uint64_t bytes,
                                 IoIssue issue) {
  if (addr + bytes > capacity_) {
    return OutOfRangeError("nvm read past end of device");
  }
  if (bytes == 0) {
    return Duration{0};
  }
  const int bank = BankOfAddress(addr);
  if (BankOfAddress(addr + bytes - 1) != bank) {
    return InvalidArgumentError("nvm read crosses a bank boundary");
  }
  const Duration op_ns = spec_.read.LatencyFor(bytes);
  const IoScheduler::Dispatch d =
      SubmitOp(IoOp::kRead, bank, addr, bytes, op_ns, issue);
  if (issue.blocking) {
    stats_.read_stall_ns.Add(static_cast<uint64_t>(d.wait));
    clock_.AdvanceTo(d.complete);
  }
  stats_.reads.Add();
  stats_.read_bytes.Add(bytes);
  return d.wait + op_ns;
}

Result<Duration> NvmDevice::Write(uint64_t addr, uint64_t bytes,
                                  IoIssue issue) {
  if (addr + bytes > capacity_) {
    return OutOfRangeError("nvm write past end of device");
  }
  if (bytes == 0) {
    return Duration{0};
  }
  const int bank = BankOfAddress(addr);
  if (BankOfAddress(addr + bytes - 1) != bank) {
    return InvalidArgumentError("nvm write crosses a bank boundary");
  }
  const Duration op_ns = spec_.write.LatencyFor(bytes);
  const IoScheduler::Dispatch d =
      SubmitOp(IoOp::kProgram, bank, addr, bytes, op_ns, issue);
  if (issue.blocking) {
    clock_.AdvanceTo(d.complete);
  }
  stats_.writes.Add();
  stats_.written_bytes.Add(bytes);
  bank_writes_[static_cast<size_t>(bank)] += 1;
  bank_write_bytes_[static_cast<size_t>(bank)] += bytes;
  return d.wait + op_ns;
}

NvmDevice::WearSummary NvmDevice::SummarizeWear() const {
  WearSummary w;
  if (bank_writes_.empty()) {
    return w;
  }
  w.min_writes = bank_writes_[0];
  double sum = 0;
  for (size_t b = 0; b < bank_writes_.size(); ++b) {
    w.min_writes = std::min(w.min_writes, bank_writes_[b]);
    w.max_writes = std::max(w.max_writes, bank_writes_[b]);
    sum += static_cast<double>(bank_writes_[b]);
    w.total_write_bytes += bank_write_bytes_[b];
  }
  w.mean_writes = sum / static_cast<double>(bank_writes_.size());
  return w;
}

}  // namespace ssmc
