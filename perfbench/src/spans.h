// Host-clock spans recorded by the benchmark around its calls into the
// system, plus the per-name self-time summary of the traced run.
//
// Spans live in a buffer reserved up front, in traced and untraced runs
// alike, so recording never allocates: the heap layout the simulator's
// address-keyed coherence model sees is the same with tracing on or off,
// and the traced run's virtual clock matches the untraced run's.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double HostSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Spans {
 public:
  struct Span {
    const char* name = "";
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::int64_t query = -1;  ///< -1 when the span is not one query's
  };

  explicit Spans(bool enabled) : enabled_(enabled) {
    spans_.reserve(kCapacity);
    open_.reserve(kMaxDepth);
  }

  /// Spans not recorded because the buffer was full.
  std::size_t dropped() const { return dropped_; }

  /// Opens a span under the innermost open one; returns its id (-1 when
  /// not recorded).
  int Begin(const char* name, std::int64_t query = -1) {
    if (!enabled_) return -1;
    if (spans_.size() == kCapacity) {
      ++dropped_;
      return -1;
    }
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.query = query;
    s.start = HostSeconds();
    spans_.push_back(s);
    const int id = static_cast<int>(spans_.size()) - 1;
    if (open_.size() < kMaxDepth) open_.push_back(id);
    return id;
  }

  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = HostSeconds();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// Self time per span name (span minus the part its children cover),
  /// in seconds, plus how many spans carried the name.
  struct SelfTime {
    double self_s = 0.0;
    double total_s = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::string, SelfTime> SelfTimes() const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_s[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::map<std::string, SelfTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double total = spans_[i].end - spans_[i].start;
      SelfTime& row = out[spans_[i].name];
      row.total_s += total;
      row.self_s += std::max(0.0, total - child_s[i]);
      ++row.count;
    }
    return out;
  }

  /// One JSON object per line: name, start/end (s, relative to the first
  /// span), parent id, query id.
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_s\":" << s.start - t0 << ",\"end_s\":" << s.end - t0
          << ",\"parent\":" << s.parent << ",\"query\":" << s.query << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  static constexpr std::size_t kCapacity = 1 << 14;
  static constexpr std::size_t kMaxDepth = 16;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::size_t dropped_ = 0;
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(Spans& spans, const char* name, std::int64_t query = -1)
      : spans_(spans), id_(spans.Begin(name, query)) {}
  ~SpanScope() { spans_.End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans& spans_;
  int id_;
};

}  // namespace perfbench
