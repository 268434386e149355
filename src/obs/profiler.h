// Phase profiler: RAII wall-time spans over the simulator hot loop.
//
// A Profiler owns one exec::Stopwatch (the D2-sanctioned clock) and a
// span stack; ProfileSpan pushes a phase on construction and pops it on
// destruction, attributing the elapsed wall time to the phase and to the
// full semicolon-joined phase path ("dlpsim;run;core_tick;cache_access").
// Per-phase aggregates split *total* time (span enter to exit) from
// *self* time (total minus time spent in child spans), so a flamegraph
// built from the paths sums exactly to the root span's duration.
//
// Profiling is strictly observational wall-time telemetry: it never
// feeds simulated state, and a null Profiler* makes every span a no-op
// (two predictable branches), which is how the default unprofiled hot
// path stays unperturbed. Wall times are floats and schedule-dependent
// by nature -- they are deliberately kept OUT of the obs::Registry,
// whose dumps must stay byte-identical across DLPSIM_JOBS.
//
// A Profiler is single-threaded: one instance per simulator (the grid
// runner makes one per cell). Exports:
//   WriteJson      - per-phase calls/total/self plus per-path self time.
//   WriteCollapsed - collapsed-stack lines ("a;b;c <self_us>") for
//                    flamegraph.pl / speedscope.
//   WriteText      - Prometheus-style text exposition.
//   Chrome trace   - obs::WriteProfileChromeTrace (exporters.h) renders
//                    the bounded span-event buffer on chrome://tracing.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "exec/timing.h"

namespace dlpsim::obs {

/// Hot-loop phases, one per instrumented region. Keep ToString in sync.
enum class Phase : std::uint8_t {
  kRun,           // whole GpuSimulator::Run
  kCoreTick,      // SM cores ticking on the core clock edge
  kIcntTick,      // crossbar tick
  kMemTick,       // memory partitions tick
  kCacheAccess,   // one L1D access (lookup + policy dispatch)
  kPolicyUpdate,  // protection-policy bookkeeping inside an access
  kDrainCheck,    // GpuSimulator::Done scan
  kSnapshot,      // timeline / policy snapshot capture
};

inline constexpr std::size_t kPhaseCount = 8;

const char* ToString(Phase phase);

/// One completed span, kept (bounded) for the Chrome-trace export.
struct SpanEvent {
  Phase phase = Phase::kRun;
  std::uint32_t depth = 0;     // stack depth at entry (root = 0)
  double start_seconds = 0.0;  // relative to profiler construction
  double dur_seconds = 0.0;
};

/// Merged per-phase wall-time aggregate.
struct PhaseStat {
  std::uint64_t calls = 0;
  double total_seconds = 0.0;  // enter-to-exit, includes children
  double self_seconds = 0.0;   // total minus child spans
};

class Profiler {
 public:
  /// `max_events` bounds the retained SpanEvent buffer; spans beyond it
  /// still aggregate (phases/paths) but are counted in dropped_events().
  explicit Profiler(std::size_t max_events = std::size_t{1} << 16);

  void Begin(Phase phase);
  void End();

  /// Phases with at least one completed span, in enum order.
  std::vector<std::pair<Phase, PhaseStat>> PhaseStats() const;

  /// Self-time per collapsed stack path ("dlpsim;run;core_tick" -> s).
  const std::map<std::string, double>& PathSelfSeconds() const {
    return path_self_;
  }

  const std::vector<SpanEvent>& events() const { return events_; }
  std::uint64_t dropped_events() const { return dropped_events_; }

  /// Wall seconds since construction (the span timebase).
  double ElapsedSeconds() const { return clock_.Seconds(); }

  void WriteJson(std::ostream& os) const;
  void WriteCollapsed(std::ostream& os) const;
  void WriteText(std::ostream& os) const;  // Prometheus exposition

 private:
  struct Frame {
    Phase phase;
    double start;
    double child_seconds;
    std::string path;
  };

  exec::Stopwatch clock_;
  std::vector<Frame> stack_;
  std::array<PhaseStat, kPhaseCount> phases_{};
  std::map<std::string, double> path_self_;
  std::vector<SpanEvent> events_;
  std::size_t max_events_;
  std::uint64_t dropped_events_ = 0;
};

/// RAII span. Null profiler => no-op (the unprofiled default).
class ProfileSpan {
 public:
  ProfileSpan(Profiler* profiler, Phase phase) : profiler_(profiler) {
    if (profiler_ != nullptr) profiler_->Begin(phase);
  }
  ~ProfileSpan() {
    if (profiler_ != nullptr) profiler_->End();
  }
  ProfileSpan(const ProfileSpan&) = delete;
  ProfileSpan& operator=(const ProfileSpan&) = delete;

 private:
  Profiler* profiler_;
};

}  // namespace dlpsim::obs
