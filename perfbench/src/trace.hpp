// In-memory span recorder of the traced run. Spans are kept in a vector
// while the benchmark runs, written out as JSON lines when it ends, and
// summarized into per-layer figures: a span's self time is its duration
// minus its children's, and the self time of a request's root ("client")
// is the time no layer accounts for — the `unattributed` row.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::chrono::steady_clock::time_point start, end;
  std::int64_t parent = -1;  // index of the parent span, -1 for a root
  std::uint64_t request = 0;
  double weight = 0.0;  // bytes a span processed, where that means something
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for no values.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

struct TraceSummary {
  struct Row {
    std::vector<double> durations;  // seconds
    std::vector<double> selfs;      // seconds
    double weight = 0.0;
  };
  std::map<std::string, Row> rows;

  double p50(const std::string& name) const {
    const auto it = rows.find(name);
    return it == rows.end() ? 0.0 : percentile(it->second.durations, 0.5);
  }
  double self_p50(const std::string& name) const {
    const auto it = rows.find(name);
    return it == rows.end() ? 0.0 : percentile(it->second.selfs, 0.5);
  }
  double total_seconds(const std::string& name) const {
    const auto it = rows.find(name);
    double total = 0.0;
    if (it != rows.end()) {
      for (double d : it->second.durations) total += d;
    }
    return total;
  }
  double total_weight(const std::string& name) const {
    const auto it = rows.find(name);
    return it == rows.end() ? 0.0 : it->second.weight;
  }

  /// Table of every span name plus the unattributed row.
  std::string render() const {
    std::string out;
    char line[192];
    std::snprintf(line, sizeof(line), "%-22s %9s %12s %12s %12s\n", "span",
                  "count", "total_ms", "self_ms", "p50_ms");
    out += line;
    for (const auto& [name, row] : rows) {
      double total = 0.0, self = 0.0;
      for (double d : row.durations) total += d;
      for (double s : row.selfs) self += s;
      std::snprintf(line, sizeof(line), "%-22s %9zu %12.3f %12.3f %12.4f\n",
                    name.c_str(), row.durations.size(), total * 1e3, self * 1e3,
                    percentile(row.durations, 0.5) * 1e3);
      out += line;
    }
    const auto client = rows.find("client");
    double unattributed = 0.0, client_total = 0.0;
    if (client != rows.end()) {
      for (double s : client->second.selfs) unattributed += s;
      for (double d : client->second.durations) client_total += d;
    }
    std::snprintf(line, sizeof(line),
                  "%-22s %9s %12.3f %12s %12.4f  (%.2f%% of request time)\n",
                  "unattributed", "-", unattributed * 1e3, "-",
                  self_p50("client") * 1e3,
                  client_total > 0 ? 100.0 * unattributed / client_total : 0.0);
    out += line;
    return out;
  }
};

class Tracer {
public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  static Clock::duration dur(double seconds) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
  }

  std::int64_t add(std::string name, Clock::time_point start,
                   Clock::time_point end, std::int64_t parent,
                   std::uint64_t request, double weight = 0.0) {
    spans_.push_back({std::move(name), start, std::max(start, end), parent,
                      request, weight});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  /// A root span open from now until close(): its children can name it
  /// as their parent while it runs.
  std::int64_t open(std::string name, std::uint64_t request) {
    const auto now = Clock::now();
    return add(std::move(name), now, now, -1, request);
  }
  void close(std::int64_t span) {
    spans_[static_cast<std::size_t>(span)].end = Clock::now();
  }

  /// One JSON array per span: [id, name, start_us, end_us, parent,
  /// request], times in microseconds since `epoch`.
  bool write(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(file, "[%zu,\"%s\",%.3f,%.3f,%lld,%llu]\n", i,
                   s.name.c_str(), micros(s.start), micros(s.end),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(file) == 0;
  }

  TraceSummary summarize() const {
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_time[static_cast<std::size_t>(s.parent)] += seconds(s);
      }
    }
    TraceSummary summary;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      TraceSummary::Row& row = summary.rows[spans_[i].name];
      const double d = seconds(spans_[i]);
      row.durations.push_back(d);
      row.selfs.push_back(std::max(0.0, d - child_time[i]));
      row.weight += spans_[i].weight;
    }
    return summary;
  }

private:
  static double seconds(const Span& s) {
    return std::chrono::duration<double>(s.end - s.start).count();
  }
  double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
