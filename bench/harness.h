// Shared run harness for the figure-reproduction benches.
//
// Every bench needs the same (app x configuration) simulation grid, so
// runs are memoized twice: in-process (thread-safe, single-flight -- two
// threads asking for the same cell never simulate it twice) and in an
// on-disk cache keyed by everything that can change a RunResult: the app,
// the configuration name, the scale, a hash of the configuration's
// CanonicalText and a digest of the model sources taken at build time
// (see CachePathFor). Cache files are written to a temp name and
// atomically renamed into place, so a killed or concurrent bench can
// never leave a partially written entry that parses as a bogus result.
//
// RunGrid() executes a whole (apps x configs) matrix through the
// src/exec/ parallel executor: each cell is an isolated, deterministic
// simulation scheduled on a fixed-size thread pool, and results come
// back in grid order. DLPSIM_JOBS=1 reproduces the serial path bit for
// bit; any other value produces byte-identical results (enforced by
// tests/exec/determinism_test.cpp).
//
// Each run also records reuse-distance and reuse-miss profiles so the
// motivation figures (3/4/7) come from the same simulations as the
// evaluation figures (10-13).
//
// Environment knobs:
//   DLPSIM_SCALE      - iteration scale factor (default 1.0)
//   DLPSIM_JOBS       - worker threads for RunGrid (default: hardware
//                       concurrency; 1 = serial)
//   DLPSIM_CACHE_DIR  - cache directory (default ./.dlpsim_cache); one
//                       <app>_<config>_s<scale>_<cfg>_<model>.txt file
//                       per cell (see CachePathFor)
//   DLPSIM_NOCACHE    - set to disable the on-disk cache entirely
//   DLPSIM_TIMING_DIR - where TimingScope writes <bench>_timing.json
//                       (default ".")
//   DLPSIM_TRACE      - set to 1 to trace every simulated run: a JSON
//                       run report, a Chrome trace-event file (Perfetto /
//                       chrome://tracing) and a timeline CSV are written
//                       per (app, config). Implies DLPSIM_NOCACHE so
//                       every run actually simulates, and forces
//                       RunGrid to jobs=1 (each run owns a private sink
//                       either way; serial keeps the [trace] log and the
//                       export order deterministic). Tracing never
//                       changes simulation results or the printed tables.
//   DLPSIM_TRACE_OUT  - trace output directory (default ./dlpsim_trace)
//   DLPSIM_TRACE_EVENTS   - trace ring-buffer capacity (default 1048576)
//   DLPSIM_TRACE_INTERVAL - timeline sample interval in core cycles
//                           (default 5000)
//   DLPSIM_FAULTS     - fault-injection spec (see robust/fault.h), e.g.
//                       "1" for the default plan or
//                       "seed=7,count=16,horizon=300000,stall=500,
//                        kinds=pdpt+pl+vta". Implies DLPSIM_NOCACHE in
//                       both directions: faulty results are never stored
//                       and clean cached results are never served. The
//                       applied plan is written to
//                       DLPSIM_TIMING_DIR/<app>_<config>_faults.json.
//   DLPSIM_WATCHDOG   - arm the forward-progress watchdog with this
//                       no-progress threshold in core cycles (e.g.
//                       200000); a trip writes a diagnostic JSON next to
//                       the fault artifact, prints it to stderr and makes
//                       the cell fail with a typed error naming the
//                       stalled resource. Unset/0 = off.
//   DLPSIM_CHECK      - 1 = run the opt-in invariant checker every few
//                       thousand cycles (see robust/invariants.h);
//                       0 = force off even in DLPSIM_CHECKED builds.
//   DLPSIM_JOB_TIMEOUT - per-attempt wall-clock budget in seconds for
//                       RunGrid cells (cooperative: an over-budget
//                       attempt is discarded and counted as a timed-out
//                       failure). Unset/0 = no timeout.
//   DLPSIM_METRICS    - set to 1 to dump the global obs::Registry on
//                       TimingScope destruction: <bench>_metrics.prom
//                       (Prometheus text exposition) and
//                       <bench>_metrics.json into DLPSIM_TIMING_DIR.
//                       Counters are integer-only and merge-order
//                       independent, so the dump is byte-identical at
//                       any DLPSIM_JOBS (enforced by
//                       tests/obs/metrics_determinism_test.cpp).
//   DLPSIM_PROGRESS   - heartbeat while a cell simulates: "1" emits a
//                       [progress] line to stderr every 1M core cycles
//                       (cycle, accesses/sec, warps finished, ETA); a
//                       value >= 2 sets the interval in core cycles.
//                       The last line is copied into the watchdog's
//                       StallDiagnostic when a run stalls.
//   DLPSIM_PROFILE    - set to 1 to attach an obs::Profiler phase
//                       profiler to every simulated cell and write
//                       <app>_<config>_profile.{json,collapsed,prom,
//                       trace.json} into DLPSIM_TIMING_DIR: per-phase
//                       call counts and self/total wall time, a
//                       flamegraph collapsed-stack file, and a Chrome
//                       trace of the retained spans. Wall-clock times
//                       never enter the deterministic metrics registry.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/rd_profiler.h"
#include "exec/timing.h"
#include "gpu/metrics.h"
#include "sim/config.h"
#include "sim/types.h"

namespace dlpsim::bench {

/// Named simulator configurations used across the paper's figures.
///   base  - Table 1 baseline (16KB, LRU)
///   sb    - Stall-Bypass          gp   - Global-Protection
///   dlp   - DLP                   32kb - 8-way LRU
///   64kb  - 16-way LRU
const std::vector<std::string>& ConfigNames();
SimConfig ConfigFor(const std::string& name);

/// Abbreviations of every registered application, in registry order
/// (convenience for RunGrid warm-up calls).
std::vector<std::string> AllAppAbbrs();

struct ProfileResult {
  RddHistogram global;
  std::map<Pc, RddHistogram> per_pc;
  std::uint64_t reuse_accesses = 0;
  std::uint64_t reuse_misses = 0;
  std::uint64_t compulsory = 0;

  double reuse_miss_rate() const {
    return reuse_accesses == 0
               ? 0.0
               : static_cast<double>(reuse_misses) / reuse_accesses;
  }

  std::string ToText() const;
  static ProfileResult FromText(const std::string& text, bool* ok = nullptr);
};

struct RunResult {
  Metrics metrics;
  ProfileResult profile;
};

/// Runs (or loads from cache) app `abbr` under configuration `config`.
/// Thread-safe; concurrent callers asking for the same cell share one
/// simulation (single-flight).
RunResult Run(const std::string& abbr, const std::string& config);
RunResult Run(const std::string& abbr, const std::string& config,
              double scale);

/// Runs the whole (apps x configs) grid through the parallel executor
/// and returns results in app-major grid order: cell (a, c) at index
/// a * configs.size() + c. jobs == 0 resolves DLPSIM_JOBS (default:
/// hardware concurrency); DLPSIM_TRACE forces jobs = 1.
///
/// Resilient: a throwing or timed-out cell is retried once and, if it
/// still fails, recorded as a failed cell in <bench>_timing.json (and in
/// FailedCells()) while its siblings run to completion. Failed cells'
/// result slots are value-initialized.
std::vector<RunResult> RunGrid(const std::vector<std::string>& apps,
                               const std::vector<std::string>& configs,
                               std::size_t jobs = 0);
std::vector<RunResult> RunGrid(const std::vector<std::string>& apps,
                               const std::vector<std::string>& configs,
                               double scale, std::size_t jobs);

/// Always simulates (no memo, no disk cache). The determinism tests use
/// this to compare thread-pool execution against the serial path. A
/// watchdog trip (DLPSIM_WATCHDOG) throws
/// robust::RunErrorException(kWatchdogStall, ...).
RunResult SimulateUncached(const std::string& abbr, const std::string& config,
                           double scale);

// --- on-disk cache plumbing (exposed for tests and tools) ---

/// Digest of the model this binary was built from: FNV-1a 64 over the
/// path and bytes of every file under src/ plus bench/harness.{h,cpp},
/// as 16 hex digits. bench/CMakeLists.txt regenerates it whenever one of
/// those files changes.
std::string_view ModelDigest();

/// Cache file path for one cell under DLPSIM_CACHE_DIR:
///   <app>_<config>_s<scale>_<cfg>_<model>.txt
/// <cfg> is the FNV-1a 64 of CanonicalText(ConfigFor(config)) in hex, so
/// editing a preset misses the cache; <model> is `model_digest`, so a
/// rebuilt model misses it too. The readable stem keeps entries
/// greppable by cell.
std::filesystem::path CachePathFor(const std::string& abbr,
                                   const std::string& config, double scale,
                                   std::string_view model_digest =
                                       ModelDigest());

/// Loads a cache file; false on missing, truncated or unparsable entries
/// (a valid entry carries the "#complete" footer the writer appends last).
bool LoadCacheFile(const std::filesystem::path& path, RunResult* out);

/// Writes atomically: temp file in the same directory + rename() into
/// place, so readers never observe a partial entry. Best-effort (cache
/// write failures never fail a bench).
void StoreCacheFile(const std::filesystem::path& path, const RunResult& r);

// --- wall-clock telemetry ---

/// Global per-process timing log; Run/SimulateUncached record one cell
/// per simulation (cached loads are recorded with cached=true).
exec::TimingLog& Timing();

/// RAII: writes DLPSIM_TIMING_DIR/<name>_timing.json on destruction with
/// per-cell sim seconds, total wall time and the job count used.
class TimingScope {
 public:
  explicit TimingScope(std::string name);
  ~TimingScope();

  TimingScope(const TimingScope&) = delete;
  TimingScope& operator=(const TimingScope&) = delete;

 private:
  std::string name_;
};

/// Iteration scale from DLPSIM_SCALE (default 1.0).
double Scale();

/// Normalizes `value` to the same app's metric under `base` (helper for
/// "normalized to baseline" figure rows); returns 0 when base is 0.
double Normalize(double value, double base);

/// Number of grid cells that exhausted their retries across every RunGrid
/// call in this process.
std::size_t FailedCells();

/// Process exit code for benches: 0 when every grid cell succeeded, 1
/// otherwise. Benches call this AFTER printing every table they could
/// compute, so partial results are never discarded by one bad cell.
int ExitStatus();

}  // namespace dlpsim::bench
