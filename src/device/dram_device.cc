#include "src/device/dram_device.h"

#include <utility>

namespace ssmc {

DramDevice::DramDevice(DramSpec spec, uint64_t capacity_bytes, SimClock& clock)
    : spec_(std::move(spec)), capacity_(capacity_bytes), clock_(clock) {}

Duration DramDevice::ChargeAccess(uint64_t bytes, bool is_write) {
  const MemoryTiming& t = is_write ? spec_.write : spec_.read;
  const Duration d = t.LatencyFor(bytes);
  clock_.Advance(d);
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

}  // namespace ssmc
