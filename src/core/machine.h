// MobileComputer — the whole machine the paper envisions, composed from the
// other libraries: battery-backed DRAM primary storage, banked flash
// secondary storage behind a log-structured store, the physical storage
// manager, the memory-resident file system with its DRAM write buffer, a
// periodic flush daemon, virtual address spaces, and the battery that makes
// "stable" a matter of policy. Construct one from a MachineConfig preset and
// drive it with traces or the VM/loader API.

#ifndef SSMC_SRC_CORE_MACHINE_H_
#define SSMC_SRC_CORE_MACHINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/device/battery.h"
#include "src/device/dram_device.h"
#include "src/device/flash_device.h"
#include "src/device/nvm_device.h"
#include "src/device/specs.h"
#include "src/fs/memory_fs.h"
#include "src/ftl/flash_store.h"
#include "src/journal/journal.h"
#include "src/sim/clock.h"
#include "src/sim/event_queue.h"
#include "src/storage/storage_manager.h"
#include "src/trace/replayer.h"
#include "src/trace/trace.h"
#include "src/vm/address_space.h"

namespace ssmc {

class Obs;

struct MachineConfig {
  std::string name = "ssmc";
  DramSpec dram_spec = NecDram1993();
  uint64_t dram_bytes = 4 * kMiB;
  FlashSpec flash_spec = IntelFlash1993();
  uint64_t flash_bytes = 16 * kMiB;
  int flash_banks = 2;
  // Optional byte-addressable NVM tier between DRAM and flash (E16). 0 bytes
  // (the default) builds no NVM device and keeps the two-tier hierarchy
  // bit-identical. Sized in page_bytes units; must divide evenly by banks.
  NvmSpec nvm_spec = PcmNvm();
  uint64_t nvm_bytes = 0;
  int nvm_banks = 1;
  // Hardware-managed page migration applied to every address space the
  // machine creates (OS-managed migration is `residency` below; the two are
  // the E16 comparison). Off by default.
  HwMigrationOptions hw_migration;
  FlashStoreOptions store_options;   // background_writes forced on below.
  // How each flash bank orders contending requests. kFifo (default) is the
  // paper-faithful charge-latency model, byte-identical to the pre-pipeline
  // simulator; kPriority lets foreground reads jump queued flush/cleaner
  // work (the E8 read-tail ablation); kWeightedFair / kTokenBucket add
  // per-tenant QoS (the E14 noisy-neighbor ablation), configured via
  // `tenant_qos` below.
  IoSchedPolicy io_sched = IoSchedPolicy::kFifo;
  // Per-tenant QoS spec applied to the flash scheduler at construction:
  // kWeightedFair consumes `weight`, kTokenBucket consumes `rate_bytes_per_s`
  // / `burst_bytes` (rate 0 = unlimited). Unlisted tenants get weight 1 and
  // no rate cap. Empty (the default) configures nothing.
  struct TenantQos {
    TenantId tenant = kDefaultTenant;
    uint32_t weight = 1;
    uint64_t rate_bytes_per_s = 0;
    uint64_t burst_bytes = 0;
  };
  std::vector<TenantQos> tenant_qos;
  MemoryFsOptions fs_options;
  // DRAM<->flash migration policy (src/storage/residency.h). The default
  // kWriteBufferOnly is byte-identical to the pre-residency simulator;
  // kReadPromote/kAggressive additionally promote hot flash blocks into a
  // DRAM clean cache (experiment E12).
  ResidencyOptions residency;
  double primary_battery_mwh = 20000;  // Notebook pack.
  double backup_battery_mwh = 250;     // Lithium backup.
  Duration flush_period = 5 * kSecond;
  // Durable metadata journal (ROADMAP E13), the machine's only metadata
  // durability path. Off by default: the namespace lives only in
  // battery-backed DRAM, and a total battery failure loses all of it. When
  // on, every namespace mutation is appended to the journal before it is
  // acked, the log is compacted into a dense checkpoint once it reaches
  // journal_options.compact_log_blocks, and RecoverAfterFailure() remounts
  // from checkpoint + log tail, restoring every acked mutation.
  bool journal = false;
  MetadataJournalOptions journal_options;
  uint64_t page_bytes = 512;
  uint64_t seed = 1;
  // Observability bundle (metrics registry + span tracer), not owned. Null
  // (the default) keeps every hook disabled — the hot paths see only a null
  // check. The machine attaches every layer (flash and NVM devices, flash
  // store, storage and residency managers, journal, file system, write
  // buffer, trace replays) and re-attaches the storage manager, journal and
  // file system after crash recovery rebuilds them.
  Obs* obs = nullptr;
};

// Presets modeled on the machines the paper names.
// HP OmniBook 300: flash-card secondary storage, XIP'd bundled software.
MachineConfig OmniBookConfig();
// Apple Newton / Casio Zoomer class PDA: small, power-starved.
MachineConfig PdaConfig();
// A diskless notebook with workstation-class memory.
MachineConfig NotebookConfig();

class MobileComputer {
 public:
  explicit MobileComputer(MachineConfig config);
  ~MobileComputer();

  MobileComputer(const MobileComputer&) = delete;
  MobileComputer& operator=(const MobileComputer&) = delete;

  const MachineConfig& config() const { return config_; }
  SimClock& clock() { return clock_; }
  EventQueue& events() { return events_; }
  DramDevice& dram() { return *dram_; }
  FlashDevice& flash() { return *flash_; }
  // Null unless MachineConfig::nvm_bytes > 0.
  NvmDevice* nvm() { return nvm_.get(); }
  Battery& battery() { return *battery_; }
  FlashStore& flash_store() { return *store_; }
  StorageManager& storage() { return *storage_; }
  MemoryFileSystem& fs() { return *fs_; }
  // Null unless MachineConfig::journal is set.
  MetadataJournal* journal() { return journal_.get(); }

  // Creates a process address space owned by the machine.
  AddressSpace& CreateAddressSpace();

  // Replays a trace against the machine's file system with the flush daemon
  // running.
  ReplayReport RunTrace(const Trace& trace);

  // Advances simulated time (running due events such as flushes).
  void Idle(Duration d) { events_.RunUntil(clock_.now() + d); }

  // --- Energy & battery ----------------------------------------------------
  // Settles idle energy on every device and drains the battery by the energy
  // consumed since the last settlement. Returns false if the battery died.
  bool SettleEnergy();
  // Total energy consumed so far (nJ), after settlement.
  double TotalEnergyNj() const;

  // --- Failure injection (experiment E10) -----------------------------------
  struct CrashReport {
    uint64_t lost_dirty_bytes = 0;  // Write-buffered data that evaporated.
    bool dram_contents_lost = false;
    SimTime at = 0;
  };
  // Total battery failure (dropped machine / dead packs): battery-backed
  // DRAM loses its contents, including every dirty buffered block.
  CrashReport InjectBatteryFailure();
  // Orderly shutdown: flush everything, then power off. Nothing is lost.
  CrashReport OrderlyShutdown();
  // Primary-pack swap carried by the backup battery.
  bool SwapBattery(double fresh_mwh);

  // After a total battery failure: installs a fresh primary pack, rebuilds
  // the storage manager over the surviving flash, and remounts the file
  // system from its metadata journal. Without a journal (or if the mount
  // fails) the machine comes up factory-reset with an empty file system
  // and the error is returned (FAILED_PRECONDITION when there is no
  // journal). Address spaces do not survive; buffered data that never
  // reached flash is gone.
  Result<RecoveryReport> RecoverAfterFailure(double fresh_battery_mwh);

 private:
  void ScheduleFlushDaemon();
  // Builds a fresh storage manager over the surviving flash store.
  void RebuildStorage();
  // Builds an empty file system on storage_, first formatting a fresh
  // journal when the config asks for one (running unjournaled if that
  // fails).
  void FormatFileSystem();
  // Points obs at the layers recovery rebuilds: the storage manager, the
  // journal and the file system.
  void AttachRebuildableObs();
  double CurrentStandbyMw() const;

  MachineConfig config_;
  SimClock clock_;
  EventQueue events_;
  std::unique_ptr<DramDevice> dram_;
  std::unique_ptr<FlashDevice> flash_;
  // Declared before storage_ (which holds a raw pointer into it).
  std::unique_ptr<NvmDevice> nvm_;
  std::unique_ptr<Battery> battery_;
  std::unique_ptr<FlashStore> store_;
  std::unique_ptr<StorageManager> storage_;
  // Declared before fs_: the fs holds a raw pointer into the journal, so it
  // must be destroyed first.
  std::unique_ptr<MetadataJournal> journal_;
  std::unique_ptr<MemoryFileSystem> fs_;
  std::vector<std::unique_ptr<AddressSpace>> spaces_;
  double drained_nj_ = 0;  // Energy already taken from the battery.
  int obs_track_ = 0;      // "machine" track (crash/recovery lifecycle).
};

}  // namespace ssmc

#endif  // SSMC_SRC_CORE_MACHINE_H_
