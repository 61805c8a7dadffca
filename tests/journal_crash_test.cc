// Adversarial crash-injection coverage for the metadata journal (ROADMAP
// E13). The property under test: once the file system acks a namespace
// mutation, a power failure at ANY later flash-program boundary must not
// lose it — remounting from the journal restores the exact acked
// namespace. The sweep tears the power at every program boundary of a
// deterministic workload (golden run counts the boundaries, then one fresh
// machine per boundary crashes there), across several seeds and journal
// configurations, for >5000 boundaries in total.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/machine.h"
#include "src/fs/memory_fs.h"
#include "src/journal/journal.h"
#include "src/storage/storage_manager.h"

namespace ssmc {
namespace {

// ---------------------------------------------------------------------------
// Deterministic workload + acked-op model.

// xorshift64: deterministic, seed-stable across platforms.
uint64_t NextRand(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return *state = x;
}

struct FileModel {
  uint64_t size = 0;
  uint8_t fill = 0;  // Every written byte of the file is this value.
};

// Namespace a crash must not lose: exactly the ops the fs acked.
struct Model {
  std::map<std::string, FileModel> files;
  std::set<std::string> dirs;  // "/" excluded.
};

MachineConfig CrashConfig(uint64_t compact_log_blocks) {
  MachineConfig config;
  config.name = "crash";
  config.dram_bytes = 1 * kMiB;
  config.flash_bytes = 4 * kMiB;
  config.flash_banks = 2;
  config.journal = true;
  config.journal_options.compact_log_blocks = compact_log_blocks;
  config.flush_period = 2 * kSecond;
  return config;
}

// Issues the op stream for `seed` against `machine`, recording acked ops in
// `model`. Stops after `max_ops` ops, or as soon as a torn program fires
// (the crash point has been reached — the op containing the tear may have
// acked or failed; the model tracks whichever happened). Returns the number
// of ops issued.
int RunWorkload(MobileComputer& machine, uint64_t seed, int max_ops,
                Model* model, bool assert_ok) {
  uint64_t rng = seed * 0x9E3779B97F4A7C15ull + 1;
  int created = 0;
  int ops = 0;
  for (; ops < max_ops; ++ops) {
    MemoryFileSystem& fs = machine.fs();
    const uint64_t roll = NextRand(&rng) % 100;
    const uint64_t pick = NextRand(&rng);
    if (roll < 30 || model->files.empty()) {
      // Create a fresh file in "/" or an existing directory.
      std::string dir = "";
      if (!model->dirs.empty() && (pick & 1) != 0) {
        auto it = model->dirs.begin();
        std::advance(it, (pick >> 1) % model->dirs.size());
        dir = *it;
      }
      const std::string path = dir + "/f" + std::to_string(created);
      const uint8_t fill = static_cast<uint8_t>(created % 251 + 1);
      ++created;
      Status s = fs.Create(path);
      if (assert_ok) {
        EXPECT_TRUE(s.ok()) << path << ": " << s.ToString();
      }
      if (s.ok()) model->files[path] = FileModel{0, fill};
    } else if (roll < 55) {
      // Append whole blocks of the file's fill byte.
      auto it = model->files.begin();
      std::advance(it, pick % model->files.size());
      const uint64_t len = 512 * (1 + (pick >> 8) % 4);
      std::vector<uint8_t> data(len, it->second.fill);
      Result<uint64_t> n = fs.Write(it->first, it->second.size, data);
      if (assert_ok) {
        EXPECT_TRUE(n.ok()) << it->first;
      }
      if (n.ok()) it->second.size += n.value();
    } else if (roll < 65) {
      const std::string path = "/d" + std::to_string(created);
      ++created;
      Status s = fs.Mkdir(path);
      if (assert_ok) {
        EXPECT_TRUE(s.ok()) << path;
      }
      if (s.ok()) model->dirs.insert(path);
    } else if (roll < 73) {
      auto it = model->files.begin();
      std::advance(it, pick % model->files.size());
      Status s = fs.Unlink(it->first);
      if (assert_ok) {
        EXPECT_TRUE(s.ok()) << it->first;
      }
      if (s.ok()) model->files.erase(it);
    } else if (roll < 80) {
      auto it = model->files.begin();
      std::advance(it, pick % model->files.size());
      const std::string to = it->first + ".r" + std::to_string(ops);
      Status s = fs.Rename(it->first, to);
      if (assert_ok) {
        EXPECT_TRUE(s.ok()) << it->first << " -> " << to;
      }
      if (s.ok()) {
        FileModel moved = it->second;
        model->files.erase(it);
        model->files[to] = moved;
      }
    } else if (roll < 86) {
      auto it = model->files.begin();
      std::advance(it, pick % model->files.size());
      const uint64_t size = it->second.size / 2;
      Status s = fs.Truncate(it->first, size);
      if (assert_ok) {
        EXPECT_TRUE(s.ok()) << it->first;
      }
      if (s.ok()) it->second.size = size;
    } else if (roll < 93) {
      Status s = machine.fs().Sync();
      if (assert_ok) {
        EXPECT_TRUE(s.ok());
      }
    } else {
      // Let the flush daemon run (tears can land in daemon programs too).
      machine.Idle(machine.config().flush_period);
    }
    if (machine.flash().stats().torn_programs.value() > 0) {
      ++ops;
      break;
    }
  }
  return ops;
}

// Recursively collects the live namespace: dirs ("/" excluded) and files
// with their Stat sizes.
void Collect(MemoryFileSystem& fs, const std::string& dir, Model* out) {
  Result<std::vector<std::string>> names = fs.List(dir.empty() ? "/" : dir);
  ASSERT_TRUE(names.ok()) << dir;
  for (const std::string& name : names.value()) {
    const std::string path = dir + "/" + name;
    Result<FileInfo> info = fs.Stat(path);
    ASSERT_TRUE(info.ok()) << path;
    if (info.value().is_directory) {
      out->dirs.insert(path);
      Collect(fs, path, out);
    } else {
      out->files[path] = FileModel{info.value().size, 0};
    }
  }
}

// The recovered namespace must be EXACTLY the acked model: same dirs, same
// files, same sizes, and every readable byte either the file's fill value
// or zero (buffered data that legitimately evaporated reads as a hole).
void VerifyAgainstModel(MobileComputer& machine, const Model& model,
                        const std::string& context) {
  Model actual;
  Collect(machine.fs(), "", &actual);
  ASSERT_EQ(actual.dirs, model.dirs) << context;
  ASSERT_EQ(actual.files.size(), model.files.size()) << context;
  for (const auto& [path, expect] : model.files) {
    auto it = actual.files.find(path);
    ASSERT_TRUE(it != actual.files.end()) << context << " lost " << path;
    ASSERT_EQ(it->second.size, expect.size) << context << " " << path;
    std::vector<uint8_t> buf(512);
    for (uint64_t off = 0; off < expect.size; off += buf.size()) {
      Result<uint64_t> n = machine.fs().Read(path, off, buf);
      ASSERT_TRUE(n.ok()) << context << " " << path;
      for (uint64_t i = 0; i < n.value(); ++i) {
        ASSERT_TRUE(buf[i] == expect.fill || buf[i] == 0)
            << context << " " << path << " byte " << off + i;
      }
    }
  }
}

// Runs the full boundary sweep for one seed/config: golden run counts flash
// programs, then one machine per boundary tears that exact program, crashes,
// remounts, and verifies. Adds the boundaries covered to *covered.
void SweepSeed(uint64_t seed, int max_ops, uint64_t compact_log_blocks,
               uint64_t* covered) {
  // Golden run: every op must ack, and the program count bounds the sweep.
  // Count programs from the point the boundary runs arm the tear (right
  // after construction) — mkfs programs are not sweepable boundaries.
  Model golden_model;
  uint64_t programs = 0;
  {
    MobileComputer machine(CrashConfig(compact_log_blocks));
    const uint64_t mkfs = machine.flash().stats().programs.value();
    RunWorkload(machine, seed, max_ops, &golden_model, /*assert_ok=*/true);
    EXPECT_EQ(machine.flash().stats().torn_programs.value(), 0u);
    programs = machine.flash().stats().programs.value() - mkfs;
  }
  EXPECT_GT(programs, 0u);

  // Cycle the tear length: 0 = nothing landed, 511 = one byte short of a
  // full page, odd lengths catch any alignment assumption in between.
  const uint64_t kTearBytes[] = {0, 13, 256, 511};
  for (uint64_t k = 0; k < programs; ++k) {
    const std::string context = "seed=" + std::to_string(seed) +
                                " boundary=" + std::to_string(k);
    MobileComputer machine(CrashConfig(compact_log_blocks));
    ASSERT_NE(machine.journal(), nullptr) << context;
    machine.flash().FailNextProgramAfterBytes(kTearBytes[k % 4],
                                              /*after_programs=*/k);
    Model model;
    RunWorkload(machine, seed, max_ops, &model, /*assert_ok=*/false);
    ASSERT_EQ(machine.flash().stats().torn_programs.value(), 1u) << context;
    machine.InjectBatteryFailure();
    Result<RecoveryReport> report = machine.RecoverAfterFailure(20000);
    ASSERT_TRUE(report.ok()) << context << ": "
                             << report.status().ToString();
    VerifyAgainstModel(machine, model, context);
    if (::testing::Test::HasFatalFailure()) return;
    ++*covered;
  }
}

// ---------------------------------------------------------------------------

TEST(JournalCrashTest, EveryProgramBoundarySurvivesPowerFailure) {
  // Seeds alternate between a roomy log (no compaction during the run) and
  // an aggressively small one (tears land inside checkpoint compaction and
  // superblock commits as well as appends). Together the sweep must cross
  // 5000 boundaries.
  uint64_t boundaries = 0;
  for (uint64_t seed = 1; boundaries < 5000; ++seed) {
    const uint64_t compact = (seed % 2 == 0) ? 6 : 256;
    SweepSeed(seed, /*max_ops=*/120, compact, &boundaries);
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "seed " << seed;
    ASSERT_LT(seed, 64u) << "workload too small to reach 5000 boundaries";
  }
  EXPECT_GE(boundaries, 5000u);
}

// Differential oracle: with journal_oracle on, CheckpointMetadata maintains
// BOTH the journal checkpoint and the legacy block-0 checkpoint. Crashing
// right after a checkpoint, the journal remount and the legacy remount must
// agree on the namespace exactly.
TEST(JournalCrashTest, JournalRecoveryMatchesLegacyCheckpointOracle) {
  MachineConfig config = CrashConfig(/*compact_log_blocks=*/256);
  config.journal_oracle = true;
  MobileComputer machine(config);
  ASSERT_NE(machine.journal(), nullptr);

  Model model;
  RunWorkload(machine, /*seed=*/7, /*max_ops=*/150, &model,
              /*assert_ok=*/true);
  ASSERT_TRUE(machine.fs().Sync().ok());
  ASSERT_TRUE(machine.fs().CheckpointMetadata().ok());

  machine.InjectBatteryFailure();
  Result<RecoveryReport> report = machine.RecoverAfterFailure(20000);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  VerifyAgainstModel(machine, model, "journal remount");
  Model via_journal;
  Collect(machine.fs(), "", &via_journal);

  // Legacy oracle over the SAME surviving flash: a throwaway manager, since
  // legacy recovery only reads and re-registers blocks.
  StorageManager oracle(machine.dram(), machine.flash_store(),
                        machine.config().page_bytes);
  RecoveryReport legacy_report;
  Result<std::unique_ptr<MemoryFileSystem>> legacy =
      MemoryFileSystem::RecoverFromCheckpoint(oracle, MemoryFsOptions{},
                                              &legacy_report);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  Model via_legacy;
  Collect(*legacy.value(), "", &via_legacy);

  EXPECT_EQ(via_journal.dirs, via_legacy.dirs);
  ASSERT_EQ(via_journal.files.size(), via_legacy.files.size());
  for (const auto& [path, info] : via_journal.files) {
    auto it = via_legacy.files.find(path);
    ASSERT_TRUE(it != via_legacy.files.end()) << path;
    EXPECT_EQ(it->second.size, info.size) << path;
  }
  EXPECT_EQ(legacy_report.files_recovered, report.value().files_recovered);
  EXPECT_EQ(legacy_report.directories_recovered,
            report.value().directories_recovered);
}

// Regression: recover -> checkpoint -> crash -> recover -> checkpoint again.
// The second checkpoint releases the blocks the first recovery re-registered;
// ReleaseOldCheckpoint must tolerate that cycle without double-freeing or
// freeing live blocks (it once cleared its block list only partially on
// this path).
TEST(JournalCrashTest, DoubleRecoveryAndRecheckpointIsStable) {
  for (const bool journaled : {false, true}) {
    MachineConfig config = CrashConfig(/*compact_log_blocks=*/256);
    config.journal = journaled;
    config.journal_oracle = journaled;
    MobileComputer machine(config);

    Model model;
    RunWorkload(machine, /*seed=*/11, /*max_ops=*/80, &model,
                /*assert_ok=*/true);
    ASSERT_TRUE(machine.fs().Sync().ok());
    ASSERT_TRUE(machine.fs().CheckpointMetadata().ok());

    for (int round = 0; round < 3; ++round) {
      machine.InjectBatteryFailure();
      Result<RecoveryReport> report = machine.RecoverAfterFailure(20000);
      ASSERT_TRUE(report.ok())
          << (journaled ? "journal" : "legacy") << " round " << round << ": "
          << report.status().ToString();
      VerifyAgainstModel(machine, model,
                         std::string(journaled ? "journal" : "legacy") +
                             " round " + std::to_string(round));
      // Re-checkpointing from a recovered fs must free the old chain
      // safely and leave a mountable image for the next round.
      ASSERT_TRUE(machine.fs().CheckpointMetadata().ok()) << round;
    }
  }
}

}  // namespace
}  // namespace ssmc
