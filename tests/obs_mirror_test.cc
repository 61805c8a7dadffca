// Every layer's stats mirror, end to end: a machine with every attachable
// layer (flash, NVM tier, FTL, storage manager with read-promote
// residency, write buffer, memory fs, metadata journal) serves two tenants
// with an Obs attached, and each exported counter and gauge must equal the
// Stats field it mirrors, tenant keys included. The mirrors must also
// outlive their layers: once the machine is destroyed, a snapshot still
// reports the final values, and they stop moving. Crash recovery rebuilds
// the storage manager, journal and file system, whose fresh mirrors must
// take over the same names. A standalone disk covers the last layer.

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/machine.h"
#include "src/device/disk_device.h"
#include "src/obs/obs.h"
#include "src/trace/generator.h"

namespace ssmc {
namespace {

constexpr TenantId kReader = 1;
constexpr TenantId kWriter = 2;

// The mirrored prefixes a machine exports; histograms under them are not
// mirrors and are left out.
const std::vector<std::string> kMachinePrefixes = {
    "flash/", "nvm/",  "ftl/", "storage/", "residency/",
    "wbuf/",  "fs/",   "journal/"};

bool HasPrefix(const std::string& name,
               const std::vector<std::string>& prefixes) {
  for (const std::string& p : prefixes) {
    if (name.compare(0, p.size(), p) == 0) {
      return true;
    }
  }
  return false;
}

// Expected name -> value of every mirrored counter and gauge.
class Expected {
 public:
  void Counter(const std::string& name, const ssmc::Counter& src) {
    values_[name] = MetricValue::MakeCounter(src.value());
  }
  void Gauge(const std::string& name, uint64_t v) {
    values_[name] = MetricValue::MakeGauge(static_cast<int64_t>(v));
  }
  void Gauge(const std::string& name, double v) {
    values_[name] = MetricValue::MakeGauge(static_cast<int64_t>(v));
  }

  // Every expected key is in `snap` with its value. With `exhaustive`, also
  // every counter and gauge of `snap` under `prefixes` is expected.
  void Check(const MetricsSnapshot& snap,
             const std::vector<std::string>& prefixes,
             bool exhaustive) const {
    for (const auto& [name, want] : values_) {
      auto it = snap.values().find(name);
      ASSERT_NE(it, snap.values().end()) << name;
      EXPECT_EQ(it->second, want) << name;
    }
    if (!exhaustive) {
      return;
    }
    for (const auto& [name, value] : snap.values()) {
      if (value.kind != MetricValue::Kind::kHistogram &&
          HasPrefix(name, prefixes)) {
        EXPECT_TRUE(values_.count(name) == 1) << "unchecked metric " << name;
      }
    }
  }

 private:
  std::map<std::string, MetricValue> values_;
};

std::string TenantBase(const std::string& prefix, TenantId tenant) {
  return prefix + "/tenant" + std::to_string(tenant) + "/";
}

void ExpectLanes(Expected& e, const std::string& prefix, const IoLanes& lanes) {
  for (const auto& lane : lanes.by_tenant.entries()) {
    const std::string base = TenantBase(prefix, lane.tenant);
    e.Counter(base + "requests", lane.value.requests);
    e.Counter(base + "queue_wait_ns", lane.value.queue_wait_ns);
  }
}

void ExpectFlash(Expected& e, const FlashDevice& flash) {
  const FlashDevice::Stats& s = flash.stats();
  e.Counter("flash/reads", s.reads);
  e.Counter("flash/read_bytes", s.read_bytes);
  e.Counter("flash/programs", s.programs);
  e.Counter("flash/programmed_bytes", s.programmed_bytes);
  e.Counter("flash/erases", s.erases);
  e.Counter("flash/read_stall_ns", s.read_stall_ns);
  e.Gauge("flash/bad_sectors", s.bad_sectors.value());
  e.Gauge("flash/wear_max_erases", flash.SummarizeWear().max_erases);
  ExpectLanes(e, "flash", s);
}

void ExpectNvm(Expected& e, const NvmDevice& nvm) {
  const NvmDevice::Stats& s = nvm.stats();
  e.Counter("nvm/reads", s.reads);
  e.Counter("nvm/read_bytes", s.read_bytes);
  e.Counter("nvm/writes", s.writes);
  e.Counter("nvm/written_bytes", s.written_bytes);
  e.Counter("nvm/read_stall_ns", s.read_stall_ns);
  e.Gauge("nvm/wear_max_bank_writes", nvm.SummarizeWear().max_writes);
  ExpectLanes(e, "nvm", s);
}

void ExpectFtl(Expected& e, const FlashStore& store) {
  const FlashStore::Stats& s = store.stats();
  e.Counter("ftl/user_writes", s.user_writes);
  e.Counter("ftl/user_reads", s.user_reads);
  e.Counter("ftl/gc_runs", s.gc_runs);
  e.Counter("ftl/gc_relocations", s.gc_relocations);
  e.Counter("ftl/erases", s.erases);
  e.Counter("ftl/wear_migrations", s.wear_migrations);
  e.Counter("ftl/trims", s.trims);
  e.Gauge("ftl/free_sectors", store.free_sectors());
  e.Gauge("ftl/write_amp_milli", store.WriteAmplification() * 1000.0);
  for (const auto& lane : s.by_tenant.entries()) {
    const std::string base = TenantBase("ftl", lane.tenant);
    e.Counter(base + "writes", lane.value.writes);
    e.Counter(base + "reads", lane.value.reads);
    e.Counter(base + "relocations", lane.value.relocations);
    e.Gauge(base + "write_amp_milli",
            store.TenantWriteAmplification(lane.tenant) * 1000.0);
  }
}

void ExpectStorage(Expected& e, const StorageManager& storage) {
  e.Gauge("storage/free_dram_pages", storage.free_pages(PageTier::kDram));
  e.Gauge("storage/total_dram_pages", storage.total_pages(PageTier::kDram));
  e.Gauge("storage/free_flash_blocks", storage.free_flash_blocks());
  e.Gauge("storage/total_flash_blocks", storage.total_flash_blocks());
  if (storage.total_pages(PageTier::kNvm) > 0) {
    e.Gauge("storage/free_nvm_pages", storage.free_pages(PageTier::kNvm));
    e.Gauge("storage/total_nvm_pages", storage.total_pages(PageTier::kNvm));
  }
}

// `tenant_pages` is each tenant's share of the DRAM clean cache, which the
// manager does not expose; the caller passes the value it expects.
void ExpectResidency(Expected& e, const ResidencyManager& residency,
                     const std::map<TenantId, uint64_t>& tenant_pages) {
  const ResidencyManager::Stats& s = residency.stats();
  e.Counter("residency/touches", s.touches);
  e.Counter("residency/promotions", s.promotions);
  e.Counter("residency/promoted_bytes", s.promoted_bytes);
  e.Counter("residency/clean_hits", s.clean_hits);
  e.Counter("residency/clean_hit_bytes", s.clean_hit_bytes);
  e.Counter("residency/demotions_pressure", s.demotions_pressure);
  e.Counter("residency/demotions_invalidated", s.demotions_invalidated);
  e.Counter("residency/cold_stream_hints", s.cold_stream_hints);
  e.Counter("residency/vm_promote_faults", s.vm_promote_faults);
  e.Gauge("residency/clean_pages", residency.clean_pages());
  e.Gauge("residency/heat_entries", residency.heat_entries());
  if (residency.has_nvm_tier()) {
    e.Counter("residency/nvm_promotions", s.nvm_promotions);
    e.Counter("residency/nvm_promoted_bytes", s.nvm_promoted_bytes);
    e.Counter("residency/nvm_hits", s.nvm_hits);
    e.Counter("residency/nvm_hit_bytes", s.nvm_hit_bytes);
    e.Counter("residency/nvm_to_dram_promotions", s.nvm_to_dram_promotions);
    e.Counter("residency/demotions_to_nvm", s.demotions_to_nvm);
    e.Gauge("residency/nvm_pages", residency.nvm_pages());
  }
  for (const auto& lane : s.by_tenant.entries()) {
    const std::string base = TenantBase("residency", lane.tenant);
    e.Counter(base + "promotions", lane.value.promotions);
    e.Counter(base + "promoted_bytes", lane.value.promoted_bytes);
    e.Counter(base + "clean_hits", lane.value.clean_hits);
    e.Counter(base + "clean_hit_bytes", lane.value.clean_hit_bytes);
    if (residency.has_nvm_tier()) {
      e.Counter(base + "nvm_hits", lane.value.nvm_hits);
      e.Counter(base + "nvm_hit_bytes", lane.value.nvm_hit_bytes);
    }
    auto pages = tenant_pages.find(lane.tenant);
    e.Gauge(base + "clean_pages",
            pages != tenant_pages.end() ? pages->second : uint64_t{0});
  }
}

void ExpectWriteBuffer(Expected& e, const WriteBuffer& buffer) {
  const WriteBuffer::Stats& s = buffer.stats();
  e.Counter("wbuf/puts", s.puts);
  e.Counter("wbuf/absorbed_overwrites", s.absorbed_overwrites);
  e.Counter("wbuf/flushes", s.flushes);
  e.Counter("wbuf/flushed_bytes", s.flushed_bytes);
  e.Counter("wbuf/capacity_evictions", s.capacity_evictions);
  e.Counter("wbuf/dropped_writes", s.dropped_writes);
  e.Gauge("wbuf/dirty_pages", buffer.dirty_pages());
}

void ExpectFs(Expected& e, const MemoryFileSystem& fs) {
  const MemoryFileSystem::Stats& s = fs.stats();
  e.Counter("fs/creates", s.creates);
  e.Counter("fs/unlinks", s.unlinks);
  e.Counter("fs/reads", s.reads);
  e.Counter("fs/read_bytes", s.read_bytes);
  e.Counter("fs/writes", s.writes);
  e.Counter("fs/written_bytes", s.written_bytes);
  e.Counter("fs/flash_direct_read_bytes", s.flash_direct_read_bytes);
  e.Counter("fs/buffered_read_bytes", s.buffered_read_bytes);
  e.Counter("fs/clean_cached_read_bytes", s.clean_cached_read_bytes);
  e.Counter("fs/nvm_cached_read_bytes", s.nvm_cached_read_bytes);
  e.Counter("fs/cow_block_copies", s.cow_block_copies);
  for (const auto& lane : s.by_tenant.entries()) {
    const std::string base = TenantBase("fs", lane.tenant);
    e.Counter(base + "reads", lane.value.reads);
    e.Counter(base + "read_bytes", lane.value.read_bytes);
    e.Counter(base + "writes", lane.value.writes);
    e.Counter(base + "written_bytes", lane.value.written_bytes);
  }
}

void ExpectJournal(Expected& e, const MetadataJournal& journal) {
  const MetadataJournal::Stats& s = journal.stats();
  e.Counter("journal/records", s.records);
  e.Counter("journal/appended_bytes", s.appended_bytes);
  e.Counter("journal/log_block_writes", s.log_block_writes);
  e.Counter("journal/superblock_writes", s.superblock_writes);
  e.Counter("journal/checkpoints", s.checkpoints);
  e.Counter("journal/checkpoint_bytes", s.checkpoint_bytes);
  e.Counter("journal/compacted_blocks", s.compacted_blocks);
  e.Gauge("journal/log_blocks", journal.log_blocks());
  e.Gauge("journal/next_lsn", journal.next_lsn());
}

// Every mirrored field of `machine`; `tenant_pages` as in ExpectResidency.
Expected ExpectMachine(MobileComputer& machine,
                       const std::map<TenantId, uint64_t>& tenant_pages) {
  Expected e;
  ExpectFlash(e, machine.flash());
  ExpectNvm(e, *machine.nvm());
  ExpectFtl(e, machine.flash_store());
  ExpectStorage(e, machine.storage());
  ExpectResidency(e, machine.storage().residency(), tenant_pages);
  ExpectWriteBuffer(e, machine.fs().write_buffer());
  ExpectFs(e, machine.fs());
  ExpectJournal(e, *machine.journal());
  return e;
}

// The residency manager computes each tenant's clean-page gauge by a scan it
// does not expose. Their sum cannot exceed the clean cache; the test takes
// the values from the snapshot after checking that bound.
std::map<TenantId, uint64_t> TenantCleanPages(const MetricsSnapshot& snap,
                                              uint64_t clean_pages) {
  std::map<TenantId, uint64_t> pages;
  uint64_t sum = 0;
  for (TenantId t : {kDefaultTenant, kReader, kWriter}) {
    auto it = snap.values().find(TenantBase("residency", t) + "clean_pages");
    if (it != snap.values().end()) {
      pages[t] = static_cast<uint64_t>(it->second.gauge);
      sum += pages[t];
    }
  }
  EXPECT_LE(sum, clean_pages);
  return pages;
}

MachineConfig MirrorConfig(Obs* obs) {
  MachineConfig config;
  config.dram_bytes = 2 * kMiB;
  config.flash_spec = GenericPaperFlash();
  config.flash_spec.erase_sector_bytes = 8 * kKiB;
  config.flash_spec.erase_ns = 50 * kMillisecond;
  config.flash_bytes = 4 * kMiB;
  config.flash_banks = 2;
  config.fs_options.write_buffer_pages = 128;
  config.nvm_bytes = 256 * kKiB;
  config.residency.policy = ResidencyPolicy::kReadPromote;
  config.journal = true;
  config.journal_options.compact_log_blocks = 8;
  config.obs = obs;
  return config;
}

// A reader re-reading a small file set and a writer overwriting its own,
// interleaved by issue time in separate directories.
Trace TwoTenantTrace() {
  WorkloadOptions reader = ReadMostlyWorkload();
  reader.seed = 11;
  reader.duration = 20 * kSecond;
  reader.mean_interarrival = 10 * kMillisecond;
  reader.max_file_bytes = 64 * 1024;
  WorkloadOptions writer = WriteHotWorkload();
  writer.seed = 12;
  writer.duration = 20 * kSecond;
  writer.mean_interarrival = 10 * kMillisecond;
  writer.max_file_bytes = 32 * 1024;
  const Trace a = WorkloadGenerator(reader)
                      .Generate()
                      .WithPathPrefix("/reader")
                      .WithTenant(kReader);
  const Trace b = WorkloadGenerator(writer)
                      .Generate()
                      .WithPathPrefix("/writer")
                      .WithTenant(kWriter);
  Trace merged;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    const bool take_a =
        j >= b.size() ||
        (i < a.size() && a.records()[i].at <= b.records()[j].at);
    merged.Add(take_a ? a.records()[i++] : b.records()[j++]);
  }
  return merged;
}

void RunTwoTenants(MobileComputer& machine) {
  ASSERT_TRUE(machine.fs().Mkdir("/reader").ok());
  ASSERT_TRUE(machine.fs().Mkdir("/writer").ok());
  const ReplayReport report = machine.RunTrace(TwoTenantTrace());
  EXPECT_GT(report.ops, 0u);
}

uint64_t CounterOf(const MetricsSnapshot& snap, const std::string& name) {
  auto it = snap.values().find(name);
  return it == snap.values().end() ? 0 : it->second.counter;
}

int64_t GaugeOf(const MetricsSnapshot& snap, const std::string& name) {
  auto it = snap.values().find(name);
  return it == snap.values().end() ? 0 : it->second.gauge;
}

TEST(ObsMirrorTest, EveryLayerMirrorsItsStatsAndOutlivesTheMachine) {
  Obs obs;
  auto machine = std::make_unique<MobileComputer>(MirrorConfig(&obs));
  RunTwoTenants(*machine);
  const MetricsSnapshot live = obs.metrics().Snapshot();
  const Expected expected = ExpectMachine(
      *machine, TenantCleanPages(live, machine->storage().residency().clean_pages()));
  expected.Check(live, kMachinePrefixes, /*exhaustive=*/true);

  // The run reached every layer the mirrors cover, both tenants included.
  for (const char* name :
       {"flash/programs", "flash/erases", "nvm/writes", "ftl/gc_runs",
        "residency/promotions", "residency/nvm_hits", "wbuf/flushes",
        "fs/tenant1/reads", "fs/tenant2/writes", "ftl/tenant2/writes",
        "flash/tenant2/requests", "journal/records", "journal/checkpoints"}) {
    EXPECT_GT(CounterOf(live, name), 0u) << name;
  }

  // Teardown flushes each mirror after its owner's destructor body: the
  // file system drops the clean cache (every cached page counts as an
  // invalidation) and the write buffer returns its pages.
  const uint64_t cached =
      static_cast<uint64_t>(GaugeOf(live, "residency/clean_pages") +
                            GaugeOf(live, "residency/nvm_pages"));
  machine.reset();
  const MetricsSnapshot after = obs.metrics().Snapshot();
  ASSERT_EQ(after.size(), live.size());
  for (const auto& [name, value] : live.values()) {
    auto it = after.values().find(name);
    ASSERT_NE(it, after.values().end()) << name;
    if (name == "residency/demotions_invalidated") {
      EXPECT_EQ(it->second.counter, value.counter + cached);
    } else if (name == "residency/clean_pages" ||
               name == "residency/nvm_pages" ||
               name == "residency/heat_entries" ||
               name == "wbuf/dirty_pages" ||
               (name.starts_with("residency/tenant") &&
                name.ends_with("/clean_pages"))) {
      EXPECT_EQ(it->second.gauge, 0) << name;
    } else if (name.starts_with("storage/free_")) {
      // Every page and block the file system held is free again.
      const std::string total = "storage/total_" + name.substr(13);
      EXPECT_GE(it->second.gauge, value.gauge) << name;
      EXPECT_LE(it->second.gauge, GaugeOf(after, total)) << name;
    } else {
      EXPECT_EQ(it->second, value) << name;
    }
  }
  // The collectors are gone: the values stopped moving.
  EXPECT_EQ(obs.metrics().Snapshot(), after);
}

// Sum of `<layer>/tenant<T>/<field>` over every tenant key in `snap`.
uint64_t TenantSum(const MetricsSnapshot& snap, const std::string& layer,
                   const std::string& field) {
  uint64_t sum = 0;
  const std::string prefix = layer + "/tenant";
  for (const auto& [name, value] : snap.values()) {
    if (name.starts_with(prefix) && name.ends_with("/" + field)) {
      sum += value.counter;
    }
  }
  return sum;
}

// The rebuilt layers' per-tenant counters, each of which sums to its layer
// total.
const std::vector<std::pair<std::string, std::string>> kTenantTotals = {
    {"fs", "reads"},         {"fs", "read_bytes"},
    {"fs", "writes"},        {"fs", "written_bytes"},
    {"residency", "promotions"}, {"residency", "promoted_bytes"},
    {"residency", "clean_hits"}, {"residency", "clean_hit_bytes"}};

void ExpectTotalsAreTenantSums(const MetricsSnapshot& snap) {
  for (const auto& [layer, field] : kTenantTotals) {
    EXPECT_EQ(CounterOf(snap, layer + "/" + field),
              TenantSum(snap, layer, field))
        << layer << "/" << field;
  }
}

TEST(ObsMirrorTest, RecoveryRebuiltLayersTakeOverTheirMirrors) {
  Obs obs;
  MobileComputer machine(MirrorConfig(&obs));
  RunTwoTenants(machine);
  ASSERT_TRUE(machine.fs().Sync().ok());
  const MetricsSnapshot before = obs.metrics().Snapshot();
  ExpectTotalsAreTenantSums(before);
  EXPECT_GT(CounterOf(before, "fs/tenant1/reads"), 0u);
  EXPECT_GT(CounterOf(before, "residency/tenant1/clean_hits"), 0u);
  machine.InjectBatteryFailure();
  Result<RecoveryReport> report = machine.RecoverAfterFailure(20000);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report.value().files_recovered, 0u);
  // Traffic after the remount moves the rebuilt layers' stats.
  const std::vector<uint8_t> data(4096, 0x5a);
  ASSERT_TRUE(machine.fs().Create("/after").ok());
  ASSERT_TRUE(machine.fs().Write("/after", 0, data).ok());
  ASSERT_TRUE(machine.fs().Sync().ok());

  const MetricsSnapshot snap = obs.metrics().Snapshot();
  // The pre-crash tenants' keys are still registered but now report the
  // rebuilt instances, which have not seen those tenants: every layer
  // total is again the sum of its tenant keys, and the pre-crash readers'
  // keys read 0.
  ExpectMachine(machine,
                TenantCleanPages(snap,
                                 machine.storage().residency().clean_pages()))
      .Check(snap, kMachinePrefixes, /*exhaustive=*/false);
  ExpectTotalsAreTenantSums(snap);
  EXPECT_TRUE(snap.values().contains("fs/tenant1/reads"));
  EXPECT_EQ(CounterOf(snap, "fs/tenant1/reads"), 0u);
  EXPECT_EQ(CounterOf(snap, "residency/tenant1/clean_hits"), 0u);
  EXPECT_GT(CounterOf(snap, "fs/writes"), 0u);
  EXPECT_GT(CounterOf(snap, "fs/creates"), 0u);
  EXPECT_GT(CounterOf(snap, "journal/records"), 0u);
}

TEST(ObsMirrorTest, DetachingANeverAttachedLayerIsANoOp) {
  // Benches call AttachObs(nullptr) when capture is off.
  SimClock clock;
  FlashDevice flash(SunDiskFlash1993(), 4 * kMiB, 1, clock);
  flash.AttachObs(nullptr);
  FlashStore store(flash, FlashStoreOptions{});
  store.AttachObs(nullptr);
  Obs obs;
  flash.AttachObs(&obs);
  flash.AttachObs(nullptr);
  flash.AttachObs(nullptr);
  EXPECT_TRUE(obs.metrics().Snapshot().values().contains("flash/reads"));
}

DiskSpec MirrorDiskSpec() {
  DiskSpec spec;
  spec.name = "mirror disk";
  spec.sector_bytes = 512;
  spec.sectors_per_track = 16;
  spec.cylinders = 100;
  spec.min_seek_ns = 1 * kMillisecond;
  spec.avg_seek_ns = 10 * kMillisecond;
  spec.max_seek_ns = 20 * kMillisecond;
  spec.rotation_ns = 10 * kMillisecond;
  spec.transfer_mib_per_s = 1.0;
  spec.spin_up_ns = 500 * kMillisecond;
  spec.active_mw = 1500;
  spec.idle_mw = 700;
  spec.standby_mw = 15;
  return spec;
}

TEST(ObsMirrorTest, DiskMirrorsItsStatsAndOutlivesTheDevice) {
  SimClock clock;
  Obs obs;
  auto disk = std::make_unique<DiskDevice>(MirrorDiskSpec(), clock);
  disk->AttachObs(&obs);
  std::vector<uint8_t> data(2048, 7);
  std::vector<uint8_t> out(2048);
  for (uint64_t s : {10u, 900u, 40u, 1500u}) {
    ASSERT_TRUE(disk->WriteSectors(s, data).ok());
    ASSERT_TRUE(disk->ReadSectors(s, out).ok());
    clock.Advance(kMinute);  // Long enough for the disk to spin down.
  }
  Expected e;
  const DiskDevice::Stats& s = disk->stats();
  e.Counter("disk/reads", s.reads);
  e.Counter("disk/writes", s.writes);
  e.Counter("disk/seeks", s.seeks);
  e.Counter("disk/seek_ns", s.seek_ns);
  e.Counter("disk/rotation_ns", s.rotation_ns);
  e.Counter("disk/spin_ups", s.spin_ups);
  e.Counter("disk/queue_wait_ns", s.queue_wait_ns);
  const MetricsSnapshot live = obs.metrics().Snapshot();
  e.Check(live, {"disk/"}, /*exhaustive=*/true);
  EXPECT_GT(CounterOf(live, "disk/seeks"), 0u);
  EXPECT_GT(CounterOf(live, "disk/spin_ups"), 0u);

  disk.reset();
  EXPECT_EQ(obs.metrics().Snapshot(), live);
}

}  // namespace
}  // namespace ssmc
