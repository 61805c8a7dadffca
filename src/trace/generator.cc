#include "src/trace/generator.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <queue>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ssmc {

namespace {

// Room for "/dir<int>/f<size_t>".
using PathBuffer = std::array<char, 48>;

// Formats "/dir<dir>" into `buf` and returns it.
std::string_view DirPath(PathBuffer& buf, int dir) {
  char* const end = std::to_chars(buf.data() + 4, buf.data() + buf.size(),
                                  dir).ptr;
  std::copy_n("/dir", 4, buf.data());
  return {buf.data(), static_cast<size_t>(end - buf.data())};
}

// Formats "/dir<dir>/f<id>" into `buf` and returns it.
std::string_view FilePath(PathBuffer& buf, int dir, size_t id) {
  char* p = buf.data() + DirPath(buf, dir).size();
  p = std::copy_n("/f", 2, p);
  p = std::to_chars(p, buf.data() + buf.size(), id).ptr;
  return {buf.data(), static_cast<size_t>(p - buf.data())};
}

// The files and records the options imply, for reserving each vector once
// instead of doubling it: the population phase exactly, and for the steady
// state the mean record count padded by three standard deviations. The mean
// counts one record per op, two per create, and the deaths of short-lived
// files as if every file were created at time 0 (an upper bound). On the
// calibrated profiles this lands below the capacity doubling would leave.
struct Expected {
  size_t files;
  size_t records;
};

Expected ExpectedCounts(const WorkloadOptions& options) {
  const size_t dirs =
      static_cast<size_t>(std::max(0, options.num_directories));
  const size_t initial =
      static_cast<size_t>(std::max(0, options.initial_files));
  const double duration = static_cast<double>(options.duration);
  const double ops =
      duration /
      std::max(1.0, static_cast<double>(options.mean_interarrival));
  const double creates = ops * options.p_create;
  const double deaths =
      (static_cast<double>(initial) + creates) * options.p_short_lived *
      -std::expm1(-duration /
                  std::max(1.0, static_cast<double>(
                                    options.short_lived_mean)));
  const double steady = ops + creates + deaths;
  const auto padded = [](double mean) {
    mean = std::max(0.0, mean);
    return static_cast<size_t>(mean + 3 * std::sqrt(mean) + 8);
  };
  return {initial + padded(creates), dirs + 2 * initial + padded(steady)};
}

}  // namespace

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
  const Expected expected = ExpectedCounts(options_);
  Trace trace;
  trace.Reserve(expected.records);

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
  files.reserve(expected.files);
  paths.reserve(expected.files);
  slot.reserve(expected.files);
  // Short-lived files awaiting their scheduled deletion: (deadline, id),
  // earliest first, equal deadlines in path order.
  using Deletion = std::pair<SimTime, size_t>;
  auto later = [&paths](const Deletion& a, const Deletion& b) {
    if (a.first != b.first) {
      return a.first > b.first;
    }
    return paths[a.second] > paths[b.second];
  };
  std::vector<Deletion> scheduled;
  scheduled.reserve(expected.files);
  std::priority_queue<Deletion, std::vector<Deletion>, decltype(later)> deaths(
      later, std::move(scheduled));

  uint64_t name_counter = 0;
  // Zipf ranks map onto the live set; a fixed-size sampler keeps selection
  // O(log n) while the live set churns. Its table is shared across
  // generators, so a short trace does not pay for building it.
  const ZipfSampler& zipf = ZipfSampler::Shared(4096, options_.hot_skew);
  const BoundedPareto file_size(kFileSizeAlpha,
                                static_cast<double>(options_.min_file_bytes),
                                static_cast<double>(options_.max_file_bytes));

  PathBuffer buf;
  auto create_file = [&](SimTime at) {
    const int dir = static_cast<int>(rng_.NextBelow(
        static_cast<uint64_t>(options_.num_directories)));
    const size_t id = name_counter++;
    const std::string_view path = FilePath(buf, dir, id);
    const uint64_t size = static_cast<uint64_t>(file_size.Sample(rng_));
    trace.Add(at, TraceOp::kCreate, path, 0, 0);
    trace.Add(at, TraceOp::kWrite, path, 0, size);
    paths.emplace_back(path);
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
    trace.Add(t, TraceOp::kMkdir, DirPath(buf, d), 0, 0);
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
        trace.Add(when, TraceOp::kUnlink, paths[id], 0, 0);
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
      trace.Add(t, TraceOp::kUnlink, path, 0, 0);
      remove_file(file->id);
    } else if (u < options_.p_create + options_.p_delete + options_.p_write) {
      if (rng_.NextBool(options_.p_whole_file)) {
        trace.Add(t, TraceOp::kWrite, path, 0, file->size);
      } else {
        const uint64_t len = std::max<uint64_t>(
            1, static_cast<uint64_t>(rng_.NextExponential(
                   static_cast<double>(options_.partial_io_bytes))));
        const uint64_t offset = rng_.NextBelow(std::max<uint64_t>(1, file->size));
        trace.Add(t, TraceOp::kWrite, path, offset, len);
        file->size = std::max(file->size, offset + len);
      }
    } else if (u < options_.p_create + options_.p_delete + options_.p_write +
                       options_.p_read) {
      if (rng_.NextBool(options_.p_whole_file)) {
        trace.Add(t, TraceOp::kRead, path, 0, file->size);
      } else {
        const uint64_t offset = rng_.NextBelow(std::max<uint64_t>(1, file->size));
        const uint64_t len = std::max<uint64_t>(
            1, std::min(file->size - offset,
                        static_cast<uint64_t>(rng_.NextExponential(
                            static_cast<double>(options_.partial_io_bytes)))));
        trace.Add(t, TraceOp::kRead, path, offset, len);
      }
    } else {
      trace.Add(t, TraceOp::kStat, path, 0, 0);
    }
  }
  return trace;
}

}  // namespace ssmc
