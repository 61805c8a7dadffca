#include "src/core/machine.h"

#include <cassert>

#include "src/obs/obs.h"
#include "src/support/log.h"

namespace ssmc {

namespace {

// True when no DRAM or NVM page and no residency slot is held: what the
// file system, journal and address spaces must leave behind when they are
// destroyed ahead of their storage manager.
[[maybe_unused]] bool StorageReleased(StorageManager& storage) {
  return storage.free_pages(PageTier::kDram) ==
             storage.total_pages(PageTier::kDram) &&
         storage.free_pages(PageTier::kNvm) ==
             storage.total_pages(PageTier::kNvm) &&
         storage.residency().blocks().live_slots() == 0;
}

}  // namespace

MachineConfig OmniBookConfig() {
  MachineConfig config;
  config.name = "omnibook";
  config.dram_bytes = 4 * kMiB;
  config.flash_spec = IntelFlash1993();
  // Keep simulated erase cost moderate for a 10 MiB card with many small
  // sectors (the card's controller erases subsectors).
  config.flash_spec.erase_sector_bytes = 16 * kKiB;
  config.flash_spec.erase_ns = 300 * kMillisecond;
  config.flash_bytes = 10 * kMiB;
  config.flash_banks = 2;
  return config;
}

MachineConfig PdaConfig() {
  MachineConfig config;
  config.name = "pda";
  config.dram_bytes = 1 * kMiB;
  config.flash_spec = GenericPaperFlash();
  config.flash_bytes = 4 * kMiB;
  config.flash_banks = 1;
  config.primary_battery_mwh = 3000;  // AAA cells.
  config.backup_battery_mwh = 100;
  config.fs_options.write_buffer_pages = 512;  // 256 KiB buffer.
  return config;
}

MachineConfig NotebookConfig() {
  MachineConfig config;
  config.name = "notebook";
  config.dram_bytes = 16 * kMiB;
  config.flash_spec = SunDiskFlash1993();
  // SunDisk-style small sectors; group them into 8 KiB store sectors for a
  // reasonable page count at 32 MiB.
  config.flash_spec.erase_sector_bytes = 8 * kKiB;
  config.flash_spec.erase_ns = 20 * kMillisecond;
  config.flash_bytes = 32 * kMiB;
  config.flash_banks = 4;
  config.fs_options.write_buffer_pages = 4096;  // 2 MiB buffer.
  return config;
}

MobileComputer::MobileComputer(MachineConfig config)
    : config_(std::move(config)), events_(clock_) {
  dram_ = std::make_unique<DramDevice>(config_.dram_spec, config_.dram_bytes,
                                       clock_);
  flash_ = std::make_unique<FlashDevice>(config_.flash_spec,
                                         config_.flash_bytes,
                                         config_.flash_banks, clock_,
                                         config_.seed);
  IoScheduler& flash_sched = flash_->scheduler();
  flash_sched.set_policy(config_.io_sched);
  for (const MachineConfig::TenantQos& qos : config_.tenant_qos) {
    flash_sched.set_tenant_weight(qos.tenant, qos.weight);
    if (qos.rate_bytes_per_s > 0) {
      flash_sched.set_tenant_rate(qos.tenant, qos.rate_bytes_per_s,
                                  qos.burst_bytes);
    }
  }
  if (config_.nvm_bytes > 0) {
    nvm_ = std::make_unique<NvmDevice>(config_.nvm_spec, config_.nvm_bytes,
                                       config_.nvm_banks, clock_);
  }
  battery_ = std::make_unique<Battery>(config_.primary_battery_mwh,
                                       config_.backup_battery_mwh, clock_);
  // The storage manager's flush path runs in the background: writes occupy
  // flash banks without blocking the application.
  FlashStoreOptions store_options = config_.store_options;
  store_options.background_writes = true;
  store_options.block_bytes = config_.page_bytes;
  store_ = std::make_unique<FlashStore>(*flash_, store_options);
  RebuildStorage();
  FormatFileSystem();
  if (config_.obs != nullptr) {
    obs_track_ = config_.obs->tracer().RegisterTrack("machine");
    flash_->AttachObs(config_.obs);
    if (nvm_ != nullptr) {
      nvm_->AttachObs(config_.obs);
    }
    store_->AttachObs(config_.obs);
    AttachRebuildableObs();
  }
  ScheduleFlushDaemon();
}

MobileComputer::~MobileComputer() = default;

void MobileComputer::ScheduleFlushDaemon() {
  events_.ScheduleAfter(config_.flush_period, [this] {
    if (!battery_->dead()) {
      Status flushed = fs_->TickFlush(clock_.now());
      if (!flushed.ok()) {
        SSMC_LOG(kWarning) << "flush daemon: " << flushed.ToString();
      }
    }
    ScheduleFlushDaemon();
  });
}

void MobileComputer::RebuildStorage() {
  storage_ = std::make_unique<StorageManager>(*dram_, *store_,
                                              config_.page_bytes,
                                              config_.residency, nvm_.get());
}

void MobileComputer::FormatFileSystem() {
  MemoryFsOptions fs_options = config_.fs_options;
  if (config_.journal) {
    journal_ = std::make_unique<MetadataJournal>(*storage_,
                                                 config_.journal_options);
    Status formatted = journal_->Format();
    if (!formatted.ok()) {
      SSMC_LOG(kWarning) << "journal format failed, running unjournaled: "
                         << formatted.ToString();
      journal_.reset();
    } else {
      fs_options.journal = journal_.get();
    }
  }
  fs_ = std::make_unique<MemoryFileSystem>(*storage_, fs_options);
}

void MobileComputer::AttachRebuildableObs() {
  // Keyed collectors replace and track registration dedupes by name, so
  // re-attaching after recovery rebuilt these instances is safe.
  storage_->AttachObs(config_.obs);
  if (journal_ != nullptr) {
    journal_->AttachObs(config_.obs);
  }
  fs_->AttachObs(config_.obs);
}

Result<RecoveryReport> MobileComputer::RecoverAfterFailure(
    double fresh_battery_mwh) {
  const SimTime recovery_start = clock_.now();
  battery_ = std::make_unique<Battery>(fresh_battery_mwh,
                                       config_.backup_battery_mwh, clock_);
  spaces_.clear();
  // Tear down in dependency order, then rebuild the DRAM-resident state
  // (allocators, namespace) from flash.
  fs_.reset();
  journal_.reset();
  assert(StorageReleased(*storage_) && "torn-down layers leaked storage");
  RebuildStorage();
  RecoveryReport report;
  Status mounted =
      FailedPreconditionError("no metadata journal: the namespace is lost");
  if (config_.journal) {
    journal_ = std::make_unique<MetadataJournal>(*storage_,
                                                 config_.journal_options);
    Result<std::unique_ptr<MemoryFileSystem>> remounted =
        MemoryFileSystem::RecoverFromJournal(*journal_, *storage_,
                                             config_.fs_options, &report);
    if (remounted.ok()) {
      fs_ = std::move(remounted).value();
      if (config_.obs != nullptr) {
        AttachRebuildableObs();
        config_.obs->tracer().Span(
            obs_track_, "journal-mount", recovery_start,
            clock_.now() - recovery_start, {"files", report.files_recovered},
            {"records", report.journal_records_replayed});
      }
      return report;
    }
    mounted = remounted.status();
    // The failed mount left reservations behind; start from a fresh manager.
    journal_.reset();
    RebuildStorage();
  }
  // Factory reset: an empty file system (freshly formatted journal if the
  // config has one).
  FormatFileSystem();
  if (config_.obs != nullptr) {
    AttachRebuildableObs();
  }
  return mounted;
}

AddressSpace& MobileComputer::CreateAddressSpace() {
  spaces_.push_back(std::make_unique<AddressSpace>(*storage_));
  spaces_.back()->set_hw_migration(config_.hw_migration);
  return *spaces_.back();
}

ReplayReport MobileComputer::RunTrace(const Trace& trace) {
  // Snapshot the flash lanes so the report covers exactly the replay
  // window (machines are reused across traces).
  const IoLanes before = flash_->stats();
  const MemoryFileSystem::Stats& fstats = fs_->stats();
  const uint64_t dram_before = fstats.buffered_read_bytes.value() +
                               fstats.clean_cached_read_bytes.value();
  const uint64_t nvm_before = fstats.nvm_cached_read_bytes.value();
  const uint64_t flash_before = fstats.flash_direct_read_bytes.value();
  TraceReplayer replayer(*fs_, clock_, &events_);
  replayer.AttachObs(config_.obs);
  ReplayReport report = replayer.Replay(trace);
  report.tier_dram_read_bytes = fstats.buffered_read_bytes.value() +
                                fstats.clean_cached_read_bytes.value() -
                                dram_before;
  report.tier_nvm_read_bytes = fstats.nvm_cached_read_bytes.value() -
                               nvm_before;
  report.tier_flash_read_bytes =
      fstats.flash_direct_read_bytes.value() - flash_before;
  for (int i = 0; i < kNumIoPriorities; ++i) {
    report.io_by_class[static_cast<size_t>(i)].AddDelta(
        flash_->stats().by_class[i], before.by_class[i]);
  }
  report.io_by_tenant.AddDelta(flash_->stats().by_tenant, before.by_tenant);
  return report;
}

double MobileComputer::CurrentStandbyMw() const {
  return dram_->standby_mw() + flash_->standby_mw() +
         (nvm_ != nullptr ? nvm_->standby_mw() : 0.0);
}

bool MobileComputer::SettleEnergy() {
  dram_->AccountIdleEnergy();
  flash_->AccountIdleEnergy();
  if (nvm_ != nullptr) {
    nvm_->AccountIdleEnergy();
  }
  const double total = TotalEnergyNj();
  const double delta = total - drained_nj_;
  drained_nj_ = total;
  if (delta <= 0) {
    return !battery_->dead();
  }
  return battery_->Drain(delta);
}

double MobileComputer::TotalEnergyNj() const {
  return dram_->energy().total_nanojoules() +
         flash_->energy().total_nanojoules() +
         (nvm_ != nullptr ? nvm_->energy().total_nanojoules() : 0.0);
}

MobileComputer::CrashReport MobileComputer::InjectBatteryFailure() {
  CrashReport report;
  report.at = clock_.now();
  if (config_.obs != nullptr) {
    config_.obs->tracer().Instant(obs_track_, "battery-failure", report.at);
  }
  battery_->InjectFailure();
  report.lost_dirty_bytes = fs_->LoseBufferedData();
  dram_->ForceContentLoss();
  // The payload table shadows DRAM page contents; it loses them too.
  storage_->DropAllPagePayloads();
  report.dram_contents_lost = true;
  return report;
}

MobileComputer::CrashReport MobileComputer::OrderlyShutdown() {
  CrashReport report;
  report.at = clock_.now();
  Status synced = fs_->Sync();
  if (!synced.ok()) {
    SSMC_LOG(kWarning) << "shutdown sync failed: " << synced.ToString();
  }
  report.lost_dirty_bytes = fs_->LoseBufferedData();  // 0 after a clean sync.
  report.dram_contents_lost = false;
  return report;
}

bool MobileComputer::SwapBattery(double fresh_mwh) {
  // The backup carries the DRAM retention load for a one-minute swap.
  return battery_->SwapPrimary(fresh_mwh, CurrentStandbyMw(), kMinute);
}

}  // namespace ssmc
