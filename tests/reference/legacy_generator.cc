#include "tests/reference/legacy_generator.h"

#include <algorithm>
#include <queue>
#include <unordered_set>

namespace ssmc {

LegacyWorkloadGenerator::LegacyWorkloadGenerator(WorkloadOptions options)
    : options_(options), rng_(options.seed) {}

Trace LegacyWorkloadGenerator::Generate() {
  Trace trace;

  struct LiveFile {
    std::string path;
    uint64_t size;
  };
  std::vector<LiveFile> files;
  std::unordered_set<std::string> live_paths;
  // Short-lived files awaiting their scheduled deletion: (deadline, path).
  using Deletion = std::pair<SimTime, std::string>;
  std::priority_queue<Deletion, std::vector<Deletion>, std::greater<>> deaths;

  uint64_t name_counter = 0;
  // Zipf ranks map onto the live set; a fixed-size sampler keeps selection
  // O(log n) while the live set churns.
  ZipfSampler zipf(4096, options_.hot_skew);

  auto pick_file = [&]() -> LiveFile* {
    if (files.empty()) {
      return nullptr;
    }
    const size_t rank = zipf.Sample(rng_) % files.size();
    return &files[rank];
  };

  auto sample_file_size = [&]() -> uint64_t {
    const double size = rng_.NextBoundedPareto(
        kFileSizeAlpha, static_cast<double>(options_.min_file_bytes),
        static_cast<double>(options_.max_file_bytes));
    return static_cast<uint64_t>(size);
  };

  auto create_file = [&](SimTime at) {
    const int dir = static_cast<int>(rng_.NextBelow(
        static_cast<uint64_t>(options_.num_directories)));
    const std::string path = "/dir" + std::to_string(dir) + "/f" +
                             std::to_string(name_counter++);
    const uint64_t size = sample_file_size();
    trace.Add({at, TraceOp::kCreate, path, 0, 0, ""});
    trace.Add({at, TraceOp::kWrite, path, 0, size, ""});
    files.push_back({path, size});
    live_paths.insert(path);
    if (rng_.NextBool(options_.p_short_lived)) {
      const Duration life = static_cast<Duration>(
          rng_.NextExponential(static_cast<double>(options_.short_lived_mean)));
      deaths.emplace(at + std::max<Duration>(life, kMillisecond), path);
    }
  };

  auto remove_file = [&](const std::string& path) {
    live_paths.erase(path);
    auto it = std::find_if(files.begin(), files.end(),
                           [&](const LiveFile& f) { return f.path == path; });
    if (it != files.end()) {
      *it = files.back();
      files.pop_back();
    }
  };

  // --- Population phase ---------------------------------------------------
  SimTime t = 0;
  for (int d = 0; d < options_.num_directories; ++d) {
    trace.Add({t, TraceOp::kMkdir, "/dir" + std::to_string(d), 0, 0, ""});
  }
  for (int i = 0; i < options_.initial_files; ++i) {
    t += kMillisecond;
    create_file(t);
  }

  // --- Steady state --------------------------------------------------------
  const SimTime end = t + options_.duration;
  while (t < end) {
    t += static_cast<Duration>(std::max(
        1.0, rng_.NextExponential(
                 static_cast<double>(options_.mean_interarrival))));

    // Scheduled deaths that fall due before this op.
    while (!deaths.empty() && deaths.top().first <= t) {
      const auto [when, path] = deaths.top();
      deaths.pop();
      if (live_paths.count(path) != 0) {
        trace.Add({when, TraceOp::kUnlink, path, 0, 0, ""});
        remove_file(path);
      }
    }

    const double u = rng_.NextDouble();
    if (u < options_.p_create || files.empty()) {
      create_file(t);
      continue;
    }
    LiveFile* file = pick_file();
    if (u < options_.p_create + options_.p_delete) {
      trace.Add({t, TraceOp::kUnlink, file->path, 0, 0, ""});
      remove_file(file->path);
    } else if (u < options_.p_create + options_.p_delete + options_.p_write) {
      if (rng_.NextBool(options_.p_whole_file)) {
        trace.Add({t, TraceOp::kWrite, file->path, 0, file->size, ""});
      } else {
        const uint64_t len = std::max<uint64_t>(
            1, static_cast<uint64_t>(rng_.NextExponential(
                   static_cast<double>(options_.partial_io_bytes))));
        const uint64_t offset = rng_.NextBelow(std::max<uint64_t>(1, file->size));
        trace.Add({t, TraceOp::kWrite, file->path, offset, len, ""});
        file->size = std::max(file->size, offset + len);
      }
    } else if (u < options_.p_create + options_.p_delete + options_.p_write +
                       options_.p_read) {
      if (rng_.NextBool(options_.p_whole_file)) {
        trace.Add({t, TraceOp::kRead, file->path, 0, file->size, ""});
      } else {
        const uint64_t offset = rng_.NextBelow(std::max<uint64_t>(1, file->size));
        const uint64_t len = std::max<uint64_t>(
            1, std::min(file->size - offset,
                        static_cast<uint64_t>(rng_.NextExponential(
                            static_cast<double>(options_.partial_io_bytes)))));
        trace.Add({t, TraceOp::kRead, file->path, offset, len, ""});
      }
    } else {
      trace.Add({t, TraceOp::kStat, file->path, 0, 0, ""});
    }
  }
  return trace;
}

}  // namespace ssmc
