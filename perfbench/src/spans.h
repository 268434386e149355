// Host-time spans recorded by the benchmark around its calls into the
// simulator's public functions. Spans stay in memory and are written out
// once, when the benchmark ends. Per-Step() and per-Done() timings are
// far too many to keep as spans; they are summed into StepStats
// (cells.h) under the enclosing `gpu.loop` span instead.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Seconds(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-9;
}

class SpanLog {
 public:
  static constexpr int kNoParent = -1;

  /// Opens a span and returns its id (its index in the log).
  int Begin(const char* name, std::string label, int parent);
  /// Closes span `id` and returns its duration in nanoseconds.
  std::int64_t End(int id);

  /// Writes {"spans": [...], "summary": {name: {count, total_ns,
  /// self_ns}}} where a span's self time is its duration minus that of
  /// its direct children.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::string label;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction. With a
/// null log it only measures.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::string label, int parent)
      : log_(log),
        id_(log == nullptr ? SpanLog::kNoParent
                           : log->Begin(name, std::move(label), parent)),
        start_ns_(NowNs()) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span early and returns its duration in nanoseconds.
  std::int64_t Close() {
    if (!open_) return elapsed_ns_;
    open_ = false;
    elapsed_ns_ = log_ != nullptr ? log_->End(id_) : NowNs() - start_ns_;
    return elapsed_ns_;
  }
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
  std::int64_t start_ns_;
  std::int64_t elapsed_ns_ = 0;
  bool open_ = true;
};

}  // namespace perfbench
