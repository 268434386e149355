// Shared run harness for the figure-reproduction benches.
//
// Every bench needs the same (app x configuration) simulation grid.
// RunGrid() executes a whole (apps x configs) matrix through
// exec::ParallelMap and returns a Grid: every cell in app-major order,
// looked up with Grid::at(app, config). The grid is the one way a bench
// reads results, and no bench runs the same cell twice in one process,
// so every cell simulates at most once. DLPSIM_JOBS=1 reproduces the
// serial path bit for bit; any other value produces byte-identical
// results (enforced by tests/bench/determinism_test.cpp).
//
// Across processes, finished cells persist in an on-disk cache keyed by
// everything that can change a RunResult: the app, the configuration
// name, the scale, a hash of the configuration's CanonicalText and a
// digest of the model sources taken at build time (see CachePathFor).
// Cache files are written to a temp name and atomically renamed into
// place, so a killed or concurrent bench can never leave a partially
// written entry that parses as a bogus result.
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
//                       and the event, fault, watchdog and metrics
//                       artifacts go
//                       (default: timing/ under the build tree)
//   DLPSIM_EVENTS     - set to 1 to record the event ring and timeline
//                       of every simulated run: a JSON run report, a
//                       Chrome trace-event file and a timeline CSV per
//                       (app, config) into DLPSIM_TIMING_DIR. Implies
//                       DLPSIM_NOCACHE and forces RunGrid to jobs=1
//                       (serial keeps the [events] log and the export
//                       order deterministic). Never changes results.
//   DLPSIM_EVENTS_CAPACITY - event ring capacity (default 1048576)
//   DLPSIM_EVENTS_INTERVAL - timeline sample interval in core cycles
//                            (default 5000)
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
//   DLPSIM_METRICS    - set to 1 to dump, on TimingScope destruction,
//                       the sum of the counter tables
//                       (GpuSimulator::CounterTable) of every cell this
//                       process simulated: <bench>_metrics.prom
//                       (Prometheus text exposition) and
//                       <bench>_metrics.json into DLPSIM_TIMING_DIR.
//                       Implies DLPSIM_NOCACHE, so every cell simulates
//                       and counts whatever the cache holds. Counters
//                       are integers and their sums commute, so the dump
//                       is byte-identical at any DLPSIM_JOBS and on a
//                       cold or warm cache directory (enforced by
//                       tests/bench/metrics_determinism_test.cpp).
//   DLPSIM_PROGRESS   - heartbeat while a cell simulates: "1" emits a
//                       [progress] line to stderr every 1M core cycles
//                       (cycle, accesses/sec, warps finished, ETA); a
//                       value >= 2 sets the interval in core cycles.
//                       The last line is copied into the watchdog's
//                       StallDiagnostic when a run stalls.
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
/// (the app list of every figure's grid).
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

/// Loads app `abbr` under configuration `config` from the disk cache or
/// simulates it (storing the result back), and records the cell in
/// Timing(). Thread-safe; every call on a cache miss simulates.
RunResult Run(const std::string& abbr, const std::string& config,
              double scale);

/// The results of one (apps x configs) run. `cells` is app-major: cell
/// (a, c) at index a * configs.size() + c.
struct Grid {
  std::vector<std::string> apps;
  std::vector<std::string> configs;
  std::vector<RunResult> cells;

  /// The cell of `app` under `config`; throws std::out_of_range for a
  /// name that is not in the grid.
  const RunResult& at(const std::string& app, const std::string& config) const;
};

/// Runs the whole (apps x configs) grid through exec::ParallelMap, one
/// Run() per cell. jobs == 0 resolves DLPSIM_JOBS (default: hardware
/// concurrency); DLPSIM_EVENTS forces jobs = 1.
///
/// A cell that throws runs once: it is recorded as a failed cell in
/// Timing() (and so in <bench>_timing.json and FailedCells()) while its
/// siblings run to completion, and its result stays value-initialized.
Grid RunGrid(const std::vector<std::string>& apps,
             const std::vector<std::string>& configs, std::size_t jobs = 0);
Grid RunGrid(const std::vector<std::string>& apps,
             const std::vector<std::string>& configs, double scale,
             std::size_t jobs);

/// Always simulates (no disk cache, no Timing() record). The determinism
/// tests use this to compare parallel execution against the serial path. A
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

/// Global per-process timing log: Run records one cell per simulation
/// (cached loads with cached=true) and RunGrid one per failed cell.
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

/// Number of failed cells in Timing(): every RunGrid cell that threw in
/// this process.
std::size_t FailedCells();

/// Process exit code for benches: 0 when every grid cell succeeded, 1
/// otherwise. Benches call this AFTER printing every table they could
/// compute, so partial results are never discarded by one bad cell.
int ExitStatus();

}  // namespace dlpsim::bench
