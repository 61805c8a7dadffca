#include "src/device/dram_device.h"

#include <algorithm>

namespace ssmc {

DramDevice::DramDevice(DramSpec spec, uint64_t capacity_bytes, SimClock& clock)
    : spec_(std::move(spec)), capacity_(capacity_bytes), clock_(clock) {}

Duration DramDevice::ChargeAccess(uint64_t bytes, bool is_write) {
  const MemoryTiming& t = is_write ? spec_.write : spec_.read;
  const Duration d = t.LatencyFor(bytes);
  clock_.Advance(d);
  total_active_ns_ += d;
  energy_.AddActive(active_mw(), d);
  if (is_write) {
    stats_.writes.Add();
    stats_.written_bytes.Add(bytes);
  } else {
    stats_.reads.Add();
    stats_.read_bytes.Add(bytes);
  }
  return d;
}

void DramDevice::ForceContentLoss() {
  contents_lost_ = true;
  stats_.content_losses.Add();
}

void DramDevice::AccountIdleEnergy() {
  const Duration now = clock_.now();
  const Duration window = now - idle_accounted_until_;
  if (window <= 0) {
    return;
  }
  const Duration idle = std::max<Duration>(0, window - total_active_ns_);
  energy_.AddIdle(standby_mw(), idle);
  idle_accounted_until_ = now;
}

}  // namespace ssmc
