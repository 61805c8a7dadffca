#include "src/device/flash_device.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <iterator>
#include <string>

namespace ssmc {

namespace {
constexpr uint8_t kErasedByte = 0xFF;
}  // namespace

FlashDevice::FlashDevice(FlashSpec spec, uint64_t capacity_bytes, int banks,
                         SimClock& clock, uint64_t seed)
    : spec_(std::move(spec)),
      capacity_(capacity_bytes),
      clock_(clock),
      rng_(seed),
      sectors_(capacity_bytes / spec_.erase_sector_bytes),
      sched_(clock, banks, IoSchedPolicy::kFifo, &stats_),
      bank_obs_("flash", sched_, stats_) {
  assert(banks >= 1);
  assert(spec_.erase_sector_bytes > 0);
  assert(capacity_ % spec_.erase_sector_bytes == 0);
  assert((capacity_ / spec_.erase_sector_bytes) % banks == 0 &&
         "sectors must divide evenly into banks");
  sectors_per_bank_ = (capacity_ / spec_.erase_sector_bytes) /
                      static_cast<uint64_t>(banks);
  if (std::has_single_bit(spec_.erase_sector_bytes)) {
    sector_shift_ = std::countr_zero(spec_.erase_sector_bytes);
  }
  if (std::has_single_bit(sectors_per_bank_)) {
    bank_shift_ = std::countr_zero(sectors_per_bank_);
  }
  erased_template_.assign(spec_.erase_sector_bytes, kErasedByte);
}

void FlashDevice::AttachObs(Obs* obs) {
  bank_obs_.Attach(
      obs,
      {{"reads", &stats_.reads}, {"read_bytes", &stats_.read_bytes},
       {"programs", &stats_.programs},
       {"programmed_bytes", &stats_.programmed_bytes},
       {"erases", &stats_.erases}, {"read_stall_ns", &stats_.read_stall_ns}},
      {{"bad_sectors", [this] { return stats_.bad_sectors.value(); }},
       {"wear_max_erases", [this] { return SummarizeWear().max_erases; }}});
}

int FlashDevice::BankOfAddress(uint64_t addr) const {
  return BankOfSector(SectorOfAddr(addr));
}

void FlashDevice::PrefetchExtentIndex(uint64_t sector) const {
  if (const Sector* s = sectors_.Find(sector)) {
    for (const ExtentEntry& e : s->extents) {
      e.ref.Prefetch();
    }
  }
}

int FlashDevice::BankOfSector(uint64_t sector) const {
  return static_cast<int>(bank_shift_ >= 0 ? sector >> bank_shift_
                                           : sector / sectors_per_bank());
}

IoScheduler::Dispatch FlashDevice::SubmitOp(IoOp op, int bank, uint64_t addr,
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

Result<Duration> FlashDevice::Read(uint64_t addr, std::span<uint8_t> out,
                                   IoIssue issue) {
  if (addr + out.size() > capacity_) {
    return OutOfRangeError("flash read past end of device");
  }
  if (out.empty()) {
    return Duration{0};
  }
  // A read may span sectors but not banks (callers split larger transfers;
  // the FTL never issues cross-bank reads).
  const int bank = BankOfAddress(addr);
  if (BankOfAddress(addr + out.size() - 1) != bank) {
    return InvalidArgumentError("flash read crosses a bank boundary");
  }
  SSMC_RETURN_IF_ERROR(
      CheckReadable(SectorOfAddr(addr), SectorOfAddr(addr + out.size() - 1)));

  const Duration op_ns = spec_.read.LatencyFor(out.size());
  const IoScheduler::Dispatch d =
      SubmitOp(IoOp::kRead, bank, addr, out.size(), op_ns, issue);
  if (issue.blocking) {
    stats_.read_stall_ns.Add(static_cast<uint64_t>(d.wait));
    clock_.AdvanceTo(d.complete);
  }

  uint64_t pos = addr;
  uint8_t* dst = out.data();
  uint64_t remaining = out.size();
  while (remaining > 0) {
    const uint64_t s = SectorOfAddr(pos);
    const uint64_t off = OffsetInSector(pos);
    const uint64_t n = std::min(remaining, sector_bytes() - off);
    CopyOut(sectors_.Find(s), off, n, dst);
    dst += n;
    pos += n;
    remaining -= n;
  }
  stats_.reads.Add();
  stats_.read_bytes.Add(out.size());
  return d.wait + op_ns;
}

Status FlashDevice::CheckReadable(uint64_t first, uint64_t last) {
  for (uint64_t s = first; s <= last; ++s) {
    if (IsSectorBad(s)) {
      return DataLossError("read from worn-out flash sector " +
                           std::to_string(s));
    }
    if (fault_reads_remaining_ > 0 && s == fault_sector_) {
      fault_reads_remaining_ -= 1;
      return InternalError("injected read fault in flash sector " +
                           std::to_string(s));
    }
  }
  return Status::Ok();
}

FlashDevice::ExtentIter FlashDevice::FirstCandidate(const Sector& s,
                                                   uint64_t off) {
  if (s.overlapping) {
    return s.extents.begin();
  }
  auto it = std::upper_bound(
      s.extents.begin(), s.extents.end(), off,
      [](uint64_t o, const ExtentEntry& e) { return o < e.offset; });
  // Disjoint extents: only the previous one may begin before `off` and
  // reach into the range.
  return it == s.extents.begin() ? it : std::prev(it);
}

const FlashDevice::ExtentEntry* FlashDevice::SoleCover(const Sector& s,
                                                       uint64_t off,
                                                       uint64_t n) {
  if (s.overlapping) {
    return nullptr;
  }
  const ExtentIter it = FirstCandidate(s, off);
  if (it == s.extents.end() || it->offset > off ||
      it->offset + it->ref.size() < off + n) {
    return nullptr;
  }
  return &*it;
}

void FlashDevice::CopyOut(const Sector* s, uint64_t off, uint64_t n,
                          uint8_t* dst) {
  // Fast path: one extent covers the range (the FTL's page-granular and
  // partial-page reads) — one memcpy, no background fill.
  const ExtentEntry* e = s != nullptr ? SoleCover(*s, off, n) : nullptr;
  if (e != nullptr) {
    std::memcpy(dst, e->ref.data() + (off - e->offset), n);
    return;
  }
  std::memset(dst, kErasedByte, n);
  if (s == nullptr) {
    return;
  }
  for (ExtentIter it = FirstCandidate(*s, off);
       it != s->extents.end() && it->offset < off + n; ++it) {
    const uint64_t lo = std::max<uint64_t>(off, it->offset);
    const uint64_t hi =
        std::min<uint64_t>(off + n, it->offset + it->ref.size());
    const uint8_t* src = it->ref.data() + (lo - it->offset);
    for (uint64_t i = lo; i < hi; ++i) {
      dst[i - off] &= src[i - lo];
    }
  }
}

Result<PayloadRef> FlashDevice::ReadExtent(uint64_t addr, uint64_t bytes,
                                           ExtentPool& pool, IoIssue issue) {
  assert(pool.payload_bytes() == bytes &&
         "ReadExtent assembles into whole pool extents");
  if (addr + bytes > capacity_) {
    return OutOfRangeError("flash read past end of device");
  }
  if (bytes == 0) {
    return PayloadRef{};
  }
  const int bank = BankOfAddress(addr);
  if (BankOfAddress(addr + bytes - 1) != bank) {
    return InvalidArgumentError("flash read crosses a bank boundary");
  }
  SSMC_RETURN_IF_ERROR(
      CheckReadable(SectorOfAddr(addr), SectorOfAddr(addr + bytes - 1)));

  const Duration op_ns = spec_.read.LatencyFor(bytes);
  const IoScheduler::Dispatch d =
      SubmitOp(IoOp::kRead, bank, addr, bytes, op_ns, issue);
  if (issue.blocking) {
    stats_.read_stall_ns.Add(static_cast<uint64_t>(d.wait));
    clock_.AdvanceTo(d.complete);
  }

  PayloadRef payload;
  const uint64_t sector = SectorOfAddr(addr);
  const uint64_t off = OffsetInSector(addr);
  const Sector* meta = sectors_.Find(sector);
  if (meta != nullptr && off + bytes <= sector_bytes()) {
    const ExtentEntry* e = SoleCover(*meta, off, bytes);
    if (e != nullptr && e->offset == off && e->ref.size() == bytes) {
      payload = e->ref;  // Zero-copy: share the stored extent.
    }
  }
  if (!payload) {
    // Not exactly one stored extent: assemble a copy, exactly what Read
    // would have produced.
    payload = pool.Allocate();
    uint8_t* dst = payload.MutableData();
    uint64_t pos = addr;
    uint64_t remaining = bytes;
    while (remaining > 0) {
      const uint64_t s = SectorOfAddr(pos);
      const uint64_t o = OffsetInSector(pos);
      const uint64_t n = std::min(remaining, sector_bytes() - o);
      CopyOut(sectors_.Find(s), o, n, dst);
      dst += n;
      pos += n;
      remaining -= n;
    }
  }
  stats_.reads.Add();
  stats_.read_bytes.Add(bytes);
  return payload;
}

Result<Duration> FlashDevice::ProgramExtent(uint64_t addr, PayloadRef payload,
                                            IoIssue issue) {
  const uint64_t size = payload.size();
  if (addr + size > capacity_) {
    return OutOfRangeError("flash program past end of device");
  }
  if (size == 0) {
    return Duration{0};
  }
  const uint64_t sector = SectorOfAddr(addr);
  if (SectorOfAddr(addr + size - 1) != sector) {
    return InvalidArgumentError("flash program crosses a sector boundary");
  }
  Sector& meta = sectors_.Touch(sector);
  if (meta.bad) {
    return DataLossError("program to worn-out flash sector " +
                         std::to_string(sector));
  }
  const uint64_t off = OffsetInSector(addr);
  if (off < meta.programmed_end) {
    uint64_t first_programmed = 0;
    if (!RangeErased(sector, meta, off, size, &first_programmed)) {
      return FailedPreconditionError(
          "program to non-erased flash byte at address " +
          std::to_string(first_programmed));
    }
  }

  if (torn_program_armed_) {
    if (torn_program_skip_ > 0) {
      --torn_program_skip_;
    } else {
      torn_program_armed_ = false;
      // The surviving prefix is filed as a copy of the payload whose tail
      // reads erased: the writer's extent itself never reached the medium,
      // and other holders keep its bytes (copy-on-write).
      const uint64_t applied = std::min<uint64_t>(torn_program_bytes_, size);
      if (applied > 0) {
        if (applied < size) {
          std::memset(payload.MutableData() + applied, kErasedByte,
                      size - applied);
        }
        FileExtent(meta, off, std::move(payload));
        meta.programmed_end = std::max(meta.programmed_end,
                                       static_cast<uint32_t>(off + applied));
      }
      stats_.torn_programs.Add();
      return InternalError("injected torn program at flash address " +
                           std::to_string(addr));
    }
  }

  const Duration op_ns = spec_.program.LatencyFor(size);
  const IoScheduler::Dispatch d =
      SubmitOp(IoOp::kProgram, BankOfAddress(addr), addr, size, op_ns, issue);
  if (issue.blocking) {
    clock_.AdvanceTo(d.complete);
  }

  // File the ref instead of copying the bytes: the device is now one more
  // holder of the extent.
  FileExtent(meta, off, std::move(payload));
  meta.programmed_end =
      std::max(meta.programmed_end, static_cast<uint32_t>(off + size));
  stats_.programs.Add();
  stats_.programmed_bytes.Add(size);
  return d.wait + op_ns;
}

void FlashDevice::FileExtent(Sector& s, uint64_t off, PayloadRef payload) {
  std::vector<ExtentEntry>& extents = s.extents;
  auto it = std::lower_bound(
      extents.begin(), extents.end(), off,
      [](const ExtentEntry& e, uint64_t o) { return e.offset < o; });
  // While the sector's extents are disjoint, only the neighbours can
  // intersect the new one.
  s.overlapping =
      s.overlapping ||
      (it != extents.end() && it->offset < off + payload.size()) ||
      (it != extents.begin() &&
       std::prev(it)->offset + std::prev(it)->ref.size() > off);
  extents.insert(it,
                 ExtentEntry{static_cast<uint32_t>(off), std::move(payload)});
}

bool FlashDevice::RangeErased(uint64_t sector, const Sector& s, uint64_t off,
                              uint64_t n,
                              uint64_t* first_programmed_addr) const {
  // Every extent intersecting the range: one vectorized memcmp each, a
  // per-byte scan only to name the offending address.
  uint64_t first = ~uint64_t{0};
  for (ExtentIter it = FirstCandidate(s, off);
       it != s.extents.end() && it->offset < off + n; ++it) {
    const uint64_t lo = std::max<uint64_t>(off, it->offset);
    const uint64_t hi = std::min<uint64_t>(off + n, it->offset + it->ref.size());
    if (lo >= hi || lo >= first) {
      continue;
    }
    const uint8_t* p = it->ref.data() + (lo - it->offset);
    if (std::memcmp(p, erased_template_.data(), hi - lo) != 0) {
      uint64_t i = 0;
      while (p[i] == kErasedByte) {
        ++i;
      }
      first = std::min(first, lo + i);
    }
  }
  if (first == ~uint64_t{0}) {
    return true;
  }
  if (first_programmed_addr != nullptr) {
    *first_programmed_addr = sector * sector_bytes() + first;
  }
  return false;
}

Result<Duration> FlashDevice::EraseSector(uint64_t sector, IoIssue issue) {
  if (sector >= num_sectors()) {
    return OutOfRangeError("erase of nonexistent flash sector");
  }
  Sector& s = sectors_.Touch(sector);
  if (s.bad) {
    return DataLossError("erase of worn-out flash sector " +
                         std::to_string(sector));
  }

  if (erase_interrupt_armed_) {
    erase_interrupt_armed_ = false;
    // An interrupted erase still consumes the wear cycle but leaves the
    // sector's contents as they were — callers must re-erase before reuse.
    s.erase_count += 1;
    stats_.erases.Add();
    stats_.interrupted_erases.Add();
    if (erase_observer_) {
      erase_observer_(sector, s.erase_count, /*now_bad=*/false);
    }
    return InternalError("injected interrupted erase of flash sector " +
                         std::to_string(sector));
  }

  const Duration op_ns = spec_.erase_ns;
  const IoScheduler::Dispatch d =
      SubmitOp(IoOp::kErase, BankOfSector(sector), sector * sector_bytes(),
               /*bytes=*/0, op_ns, issue);
  if (issue.blocking) {
    clock_.AdvanceTo(d.complete);
  }

  s.erase_count += 1;
  stats_.erases.Add();

  // Endurance model: within the guaranteed cycle count erases always
  // succeed. Beyond it, each erase fails (permanently retiring the sector)
  // with probability ramping linearly, reaching certainty at 2x endurance.
  if (spec_.endurance_cycles > 0 && s.erase_count > spec_.endurance_cycles) {
    const double overshoot =
        static_cast<double>(s.erase_count - spec_.endurance_cycles) /
        static_cast<double>(spec_.endurance_cycles);
    if (rng_.NextBool(std::min(1.0, overshoot))) {
      s.bad = true;
      stats_.bad_sectors.Add();
      if (erase_observer_) {
        erase_observer_(sector, s.erase_count, /*now_bad=*/true);
      }
      return DataLossError("flash sector " + std::to_string(sector) +
                           " wore out after " + std::to_string(s.erase_count) +
                           " erase cycles");
    }
  }
  if (erase_observer_) {
    erase_observer_(sector, s.erase_count, /*now_bad=*/false);
  }

  // Extent payloads are simply dropped (a refcount decrement per entry, no
  // byte traffic — other layers still aliasing an extent keep its bytes
  // alive).
  s.extents.clear();
  s.programmed_end = 0;
  s.overlapping = false;
  return d.wait + op_ns;
}

bool FlashDevice::IsSectorErased(uint64_t sector) const {
  const Sector* s = sectors_.Find(sector);
  if (s == nullptr) {
    return true;
  }
  for (const ExtentEntry& e : s->extents) {
    if (std::memcmp(e.ref.data(), erased_template_.data(), e.ref.size()) !=
        0) {
      return false;
    }
  }
  return true;
}

FlashDevice::WearSummary FlashDevice::SummarizeWear() const {
  // Every sector in index order, untouched ones at erase count 0, so the
  // floating-point sums are the same whichever sectors were touched.
  WearSummary w;
  const uint64_t n = num_sectors();
  if (n == 0) {
    return w;
  }
  w.min_erases = EraseCount(0);
  double sum = 0;
  for (uint64_t s = 0; s < n; ++s) {
    const uint64_t count = EraseCount(s);
    w.min_erases = std::min(w.min_erases, count);
    w.max_erases = std::max(w.max_erases, count);
    sum += static_cast<double>(count);
    if (IsSectorBad(s)) {
      ++w.bad_sectors;
    }
  }
  w.mean_erases = sum / static_cast<double>(n);
  double var = 0;
  for (uint64_t s = 0; s < n; ++s) {
    const double d = static_cast<double>(EraseCount(s)) - w.mean_erases;
    var += d * d;
  }
  w.stddev_erases = std::sqrt(var / static_cast<double>(n));
  return w;
}

}  // namespace ssmc
