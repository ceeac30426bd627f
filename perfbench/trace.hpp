#pragma once
/// \file perfbench/trace.hpp
/// \brief In-memory span recorder for the benchmark's traced run.
///
/// Spans are recorded by the benchmark around each public library call
/// (never inside the library), one `SpanLog` per thread, and written out
/// when the run ends. A span's *self time* is its duration minus the time
/// its child spans cover. Spans opened with a `stands_for` target are off
/// the timeline: they mark work the untraced run does not do. The traced
/// run replays each batch through
/// `incidence_arrays`, `adjacency_array` and a side-directory
/// `Wal::append` to split the time `ingest` hides, and those replays must
/// not count toward the wall they help explain. Each such replay names
/// the on-timeline span it `stands_for`; `attribute()` moves that much
/// self time (at most the target's own) from the target's layer to the
/// replayed layers.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SpanRecord {
  std::string_view name;
  std::string_view layer;
  std::string_view stands_for;  ///< off-timeline replays: the span estimated
  Clock::time_point start;
  Clock::time_point end;
  std::int32_t parent = -1;
  bool off_timeline = false;

  double seconds() const { return seconds_between(start, end); }
};

/// The spans of one thread. Not thread-safe: each thread owns its log.
class SpanLog {
 public:
  explicit SpanLog(std::string thread) : thread_(std::move(thread)) {}

  std::int32_t open(std::string_view name, std::string_view layer,
                    std::string_view stands_for) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    const bool off = !stands_for.empty() ||
                     (parent >= 0 &&
                      records_[static_cast<std::size_t>(parent)].off_timeline);
    records_.push_back(
        SpanRecord{name, layer, stands_for, Clock::now(), {}, parent, off});
    stack_.push_back(static_cast<std::int32_t>(records_.size() - 1));
    return stack_.back();
  }

  void close(std::int32_t id) {
    records_[static_cast<std::size_t>(id)].end = Clock::now();
    stack_.pop_back();
  }

  const std::string& thread() const { return thread_; }
  const std::vector<SpanRecord>& records() const { return records_; }

  /// Self time of every record, index-parallel to `records()`.
  std::vector<double> self_seconds() const {
    std::vector<double> self(records_.size());
    for (std::size_t i = 0; i < records_.size(); ++i) {
      self[i] += records_[i].seconds();
      if (records_[i].parent >= 0) {
        self[static_cast<std::size_t>(records_[i].parent)] -=
            records_[i].seconds();
      }
    }
    return self;
  }

  /// Sum of the durations of every span called `name`.
  double total(std::string_view name) const {
    double s = 0;
    for (const SpanRecord& r : records_) {
      if (r.name == name) s += r.seconds();
    }
    return s;
  }

  /// Append every span as a tab-separated line (thread, id, parent, name,
  /// layer, start_ns, end_ns, off_timeline) relative to `epoch`.
  void write(std::ofstream& out, Clock::time_point epoch) const {
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const SpanRecord& r = records_[i];
      out << thread_ << '\t' << i << '\t' << r.parent << '\t' << r.name
          << '\t' << r.layer << '\t'
          << std::chrono::duration_cast<std::chrono::nanoseconds>(r.start -
                                                                  epoch)
                 .count()
          << '\t'
          << std::chrono::duration_cast<std::chrono::nanoseconds>(r.end -
                                                                  epoch)
                 .count()
          << '\t' << (r.off_timeline ? 1 : 0) << '\n';
    }
  }

 private:
  std::string thread_;
  std::vector<SpanRecord> records_;
  std::vector<std::int32_t> stack_;
};

/// RAII span. A null log makes it a no-op, which is the untraced run.
class Span {
 public:
  Span(SpanLog* log, std::string_view name, std::string_view layer,
       std::string_view stands_for = {})
      : log_(log), id_(log ? log->open(name, layer, stands_for) : -1) {}
  ~Span() {
    if (log_) log_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  std::int32_t id_;
};

/// How the on-timeline wall of one thread splits across layers.
struct Attribution {
  double wall_s = 0;                    ///< root spans minus replays
  std::map<std::string, double> layer;  ///< self time per layer
  /// Self time in library layers: everything but the benchmark's own
  /// "bench*" spans (lookup and replay wrappers).
  double attributed_s() const {
    double s = 0;
    for (const auto& [name, t] : layer) {
      if (name.rfind("bench", 0) != 0) s += std::max(0.0, t);
    }
    return s;
  }
};

/// Attribute the on-timeline wall of `log`: root spans (layer "bench")
/// give the wall; every other on-timeline span contributes its self time
/// to its layer, after replays move the time they stand for.
inline Attribution attribute(const SpanLog& log) {
  Attribution a;
  const auto& recs = log.records();
  const std::vector<double> self = log.self_seconds();
  std::map<std::string_view, double> target_self;   // on-timeline, by name
  std::map<std::string_view, std::string_view> target_layer;
  std::map<std::string_view, std::map<std::string_view, double>> replays;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const SpanRecord& r = recs[i];
    if (r.parent < 0) {
      a.wall_s += r.seconds();
      continue;
    }
    const SpanRecord& parent = recs[static_cast<std::size_t>(r.parent)];
    if (r.off_timeline) {
      // Only the outermost replay span leaves the wall; nested replay
      // spans are inside it already.
      if (!parent.off_timeline) {
        a.wall_s -= r.seconds();
        replays[r.stands_for][r.layer] += r.seconds();
      }
      continue;
    }
    a.layer[std::string(r.layer)] += self[i];
    target_self[r.name] += self[i];
    target_layer[r.name] = r.layer;
  }
  for (const auto& [target, by_layer] : replays) {
    double replayed = 0;
    for (const auto& [layer, t] : by_layer) replayed += t;
    const double moved = std::min(replayed, target_self[target]);
    if (replayed <= 0 || moved <= 0) continue;
    a.layer[std::string(target_layer[target])] -= moved;
    for (const auto& [layer, t] : by_layer) {
      a.layer[std::string(layer)] += moved * t / replayed;
    }
  }
  return a;
}

}  // namespace perfbench
