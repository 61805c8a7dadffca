#include "src/trace/generator.h"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <string>
#include <utility>
#include <vector>

namespace ssmc {

WorkloadOptions OfficeWorkload() {
  WorkloadOptions options;
  options.seed = 1993;
  options.p_read = 0.40;
  options.p_write = 0.30;
  options.p_create = 0.10;
  options.p_delete = 0.08;
  return options;
}

WorkloadOptions WriteHotWorkload() {
  WorkloadOptions options;
  options.seed = 701;
  options.p_read = 0.15;
  options.p_write = 0.60;
  options.p_create = 0.12;
  options.p_delete = 0.10;
  options.hot_skew = 1.2;          // Concentrated overwrites.
  options.p_whole_file = 0.50;
  options.p_short_lived = 0.75;    // Most new data dies young.
  options.short_lived_mean = 15 * kSecond;
  return options;
}

WorkloadOptions ReadMostlyWorkload() {
  WorkloadOptions options;
  options.seed = 2718;
  options.p_read = 0.80;
  options.p_write = 0.05;
  options.p_create = 0.02;
  options.p_delete = 0.01;
  options.p_whole_file = 0.85;
  options.p_short_lived = 0.3;
  return options;
}

WorkloadGenerator::WorkloadGenerator(WorkloadOptions options)
    : options_(options), rng_(options.seed) {}

Trace WorkloadGenerator::Generate() {
  Trace trace;

  // Each created file's id is its name_counter value: paths[id] is its path
  // and slot[id] its index in `files` while it lives (kDead after).
  constexpr size_t kDead = SIZE_MAX;
  struct LiveFile {
    size_t id;
    uint64_t size;
  };
  std::vector<LiveFile> files;
  std::vector<std::string> paths;
  std::vector<size_t> slot;
  // Short-lived files awaiting their scheduled deletion: (deadline, id),
  // earliest first, equal deadlines in path order.
  using Deletion = std::pair<SimTime, size_t>;
  auto later = [&paths](const Deletion& a, const Deletion& b) {
    if (a.first != b.first) {
      return a.first > b.first;
    }
    return paths[a.second] > paths[b.second];
  };
  std::priority_queue<Deletion, std::vector<Deletion>, decltype(later)> deaths(
      later);

  uint64_t name_counter = 0;
  // Zipf ranks map onto the live set; a fixed-size sampler keeps selection
  // O(log n) while the live set churns. Its table is shared across
  // generators, so a short trace does not pay for building it.
  const ZipfSampler& zipf = ZipfSampler::Shared(4096, options_.hot_skew);
  const BoundedPareto file_size(options_.file_size_alpha,
                                static_cast<double>(options_.min_file_bytes),
                                static_cast<double>(options_.max_file_bytes));

  auto create_file = [&](SimTime at) {
    const int dir = static_cast<int>(rng_.NextBelow(
        static_cast<uint64_t>(options_.num_directories)));
    const size_t id = name_counter++;
    std::string path = "/dir" + std::to_string(dir) + "/f" + std::to_string(id);
    const uint64_t size = static_cast<uint64_t>(file_size.Sample(rng_));
    trace.Add({at, TraceOp::kCreate, path, 0, 0, ""});
    trace.Add({at, TraceOp::kWrite, path, 0, size, ""});
    paths.push_back(std::move(path));
    slot.push_back(files.size());
    files.push_back({id, size});
    if (rng_.NextBool(options_.p_short_lived)) {
      const Duration life = static_cast<Duration>(
          rng_.NextExponential(static_cast<double>(options_.short_lived_mean)));
      deaths.emplace(at + std::max<Duration>(life, kMillisecond), id);
    }
  };

  // Swap-with-back removal. Zipf ranks index `files` in order, so any other
  // reordering would change which files later ops touch.
  auto remove_file = [&](size_t id) {
    const size_t at = slot[id];
    files[at] = files.back();
    slot[files[at].id] = at;
    files.pop_back();
    slot[id] = kDead;
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
      const auto [when, id] = deaths.top();
      deaths.pop();
      if (slot[id] != kDead) {
        trace.Add({when, TraceOp::kUnlink, paths[id], 0, 0, ""});
        remove_file(id);
      }
    }

    const double u = rng_.NextDouble();
    if (u < options_.p_create || files.empty()) {
      create_file(t);
      continue;
    }
    LiveFile* file = &files[zipf.Sample(rng_) % files.size()];
    const std::string& path = paths[file->id];
    if (u < options_.p_create + options_.p_delete) {
      trace.Add({t, TraceOp::kUnlink, path, 0, 0, ""});
      remove_file(file->id);
    } else if (u < options_.p_create + options_.p_delete + options_.p_write) {
      if (rng_.NextBool(options_.p_whole_file)) {
        trace.Add({t, TraceOp::kWrite, path, 0, file->size, ""});
      } else {
        const uint64_t len = std::max<uint64_t>(
            1, static_cast<uint64_t>(rng_.NextExponential(
                   static_cast<double>(options_.partial_io_bytes))));
        const uint64_t offset = rng_.NextBelow(std::max<uint64_t>(1, file->size));
        trace.Add({t, TraceOp::kWrite, path, offset, len, ""});
        file->size = std::max(file->size, offset + len);
      }
    } else if (u < options_.p_create + options_.p_delete + options_.p_write +
                       options_.p_read) {
      if (rng_.NextBool(options_.p_whole_file)) {
        trace.Add({t, TraceOp::kRead, path, 0, file->size, ""});
      } else {
        const uint64_t offset = rng_.NextBelow(std::max<uint64_t>(1, file->size));
        const uint64_t len = std::max<uint64_t>(
            1, std::min(file->size - offset,
                        static_cast<uint64_t>(rng_.NextExponential(
                            static_cast<double>(options_.partial_io_bytes)))));
        trace.Add({t, TraceOp::kRead, path, offset, len, ""});
      }
    } else {
      trace.Add({t, TraceOp::kStat, path, 0, 0, ""});
    }
  }
  return trace;
}

}  // namespace ssmc
