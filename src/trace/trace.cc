#include "src/trace/trace.h"

#include <charconv>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

namespace ssmc {

std::string_view TraceOpName(TraceOp op) {
  switch (op) {
    case TraceOp::kCreate:
      return "create";
    case TraceOp::kWrite:
      return "write";
    case TraceOp::kRead:
      return "read";
    case TraceOp::kUnlink:
      return "unlink";
    case TraceOp::kMkdir:
      return "mkdir";
    case TraceOp::kStat:
      return "stat";
    case TraceOp::kTruncate:
      return "truncate";
    case TraceOp::kRename:
      return "rename";
  }
  return "?";
}

namespace {
// Parses the digits of a "t=<n>" token. All of it must be a decimal tenant
// id: no digits, trailing garbage, or an id out of TenantId's range fail.
std::optional<TenantId> ParseTenant(std::string_view digits) {
  uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (ec != std::errc() || end != digits.data() + digits.size() ||
      value > std::numeric_limits<TenantId>::max()) {
    return std::nullopt;
  }
  return static_cast<TenantId>(value);
}

Result<TraceOp> ParseOp(const std::string& name) {
  if (name == "create") return TraceOp::kCreate;
  if (name == "write") return TraceOp::kWrite;
  if (name == "read") return TraceOp::kRead;
  if (name == "unlink") return TraceOp::kUnlink;
  if (name == "mkdir") return TraceOp::kMkdir;
  if (name == "stat") return TraceOp::kStat;
  if (name == "truncate") return TraceOp::kTruncate;
  if (name == "rename") return TraceOp::kRename;
  return InvalidArgumentError("unknown trace op: " + name);
}
}  // namespace

uint64_t Trace::TotalBytesWritten() const {
  uint64_t total = 0;
  for (const TraceRecord& r : records_) {
    if (r.op == TraceOp::kWrite) {
      total += r.length;
    }
  }
  return total;
}

uint64_t Trace::TotalBytesRead() const {
  uint64_t total = 0;
  for (const TraceRecord& r : records_) {
    if (r.op == TraceOp::kRead) {
      total += r.length;
    }
  }
  return total;
}

SimTime Trace::DurationNs() const {
  return records_.empty() ? 0 : records_.back().at;
}

Trace Trace::Prefix(SimTime cutoff) const {
  Trace out;
  for (const TraceRecord& r : records_) {
    if (r.at <= cutoff) {
      out.Add(r);
    }
  }
  return out;
}

Trace Trace::WithPathPrefix(const std::string& prefix) const {
  Trace out;
  for (TraceRecord r : records_) {
    r.path = prefix + r.path;
    if (!r.path2.empty()) {
      r.path2 = prefix + r.path2;
    }
    out.Add(std::move(r));
  }
  return out;
}

Trace Trace::WithTenant(TenantId tenant) && {
  for (TraceRecord& r : records_) {
    r.tenant = tenant;
  }
  return std::move(*this);
}

std::string Trace::ToText() const {
  std::ostringstream oss;
  for (const TraceRecord& r : records_) {
    oss << r.at << ' ' << TraceOpName(r.op) << ' ' << r.path << ' '
        << r.offset << ' ' << r.length;
    if (!r.path2.empty()) {
      oss << ' ' << r.path2;
    }
    if (r.tenant != kDefaultTenant) {
      oss << " t=" << r.tenant;
    }
    oss << '\n';
  }
  return oss.str();
}

Result<Trace> Trace::FromText(const std::string& text) {
  Trace trace;
  std::istringstream iss(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(iss, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream ls(line);
    TraceRecord r;
    std::string op_name;
    if (!(ls >> r.at >> op_name >> r.path >> r.offset >> r.length)) {
      return InvalidArgumentError("malformed trace line " +
                                  std::to_string(line_no));
    }
    Result<TraceOp> op = ParseOp(op_name);
    if (!op.ok()) {
      return op.status();
    }
    r.op = op.value();
    // Optional trailing tokens: a rename destination and/or a "t=<n>"
    // tenant tag, in either order (writers emit path2 first), each at most
    // once.
    std::string token;
    bool tagged = false;
    while (ls >> token) {
      const bool is_tag = token.rfind("t=", 0) == 0;
      if (is_tag ? tagged : !r.path2.empty()) {
        return InvalidArgumentError("extra token '" + token +
                                    "' on trace line " +
                                    std::to_string(line_no));
      }
      if (!is_tag) {
        r.path2 = std::move(token);
        continue;
      }
      const std::optional<TenantId> tenant =
          ParseTenant(std::string_view(token).substr(2));
      if (!tenant.has_value()) {
        return InvalidArgumentError("bad tenant tag '" + token +
                                    "' on trace line " +
                                    std::to_string(line_no));
      }
      r.tenant = *tenant;
      tagged = true;
    }
    trace.Add(std::move(r));
  }
  return trace;
}

}  // namespace ssmc
