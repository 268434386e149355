#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/per_sm_profiler.h"
#include "exec/run_grid.h"
#include "gpu/simulator.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/timeline.h"
#include "obs/event_sink.h"
#include "robust/fault.h"
#include "robust/watchdog.h"
#include "sim/env.h"
#include "trace/hash.h"
#include "workloads/registry.h"

namespace dlpsim::bench {

namespace {
// Written as the last line of every cache entry; a file without it was
// interrupted mid-write (pre-rename crashes can no longer produce that,
// but entries from other writers stay verifiable).
constexpr const char* kCacheFooter = "#complete";

std::string CacheDir() { return env::Str("DLPSIM_CACHE_DIR", ".dlpsim_cache"); }

bool EventsEnabled() { return env::Flag("DLPSIM_EVENTS"); }

const char* FaultSpec() {
  const char* spec = env::Raw("DLPSIM_FAULTS");
  if (spec == nullptr || *spec == '\0' || std::string(spec) == "0") {
    return nullptr;
  }
  return spec;
}

bool FaultsEnabled() { return FaultSpec() != nullptr; }

bool MetricsDumpEnabled() { return env::Flag("DLPSIM_METRICS"); }

// Event recording and the metrics dump imply no result cache: a cache hit
// would skip the simulation and produce no events and no counters. Fault
// injection also disables it both ways -- faulty results must never
// poison the shared cache, and a clean cached result must never stand in
// for the faulty run under test.
bool CacheEnabled() {
  return !env::IsSet("DLPSIM_NOCACHE") && !EventsEnabled() &&
         !FaultsEnabled() && !MetricsDumpEnabled();
}

// Timing artifacts default under the build tree (DLPSIM_DEFAULT_TIMING_DIR
// is injected by bench/CMakeLists.txt) so ad-hoc bench runs never litter
// the source tree; DLPSIM_TIMING_DIR still overrides for CI artifacts.
std::string TimingDir() {
#ifdef DLPSIM_DEFAULT_TIMING_DIR
  return env::Str("DLPSIM_TIMING_DIR", DLPSIM_DEFAULT_TIMING_DIR);
#else
  return env::Str("DLPSIM_TIMING_DIR", ".");
#endif
}

// DLPSIM_PROGRESS: 0 = off, "1"/any truthy value = heartbeat every 1M
// core cycles, >= 2 = explicit interval in core cycles.
std::uint64_t ProgressInterval() {
  if (!env::Flag("DLPSIM_PROGRESS")) return 0;
  const std::uint64_t v = env::U64("DLPSIM_PROGRESS", 1);
  return v >= 2 ? v : 1'000'000;
}

// Sum of the counter tables of every cell this process simulated; cells
// finish concurrently under RunGrid, so merges take the lock. Integer
// sums commute, so the total does not depend on the finishing order.
struct MetricsTotals {
  std::mutex mu;
  obs::Registry table;
};

MetricsTotals& GlobalMetrics() {
  static MetricsTotals totals;
  return totals;
}
}  // namespace

double Scale() { return env::PositiveDouble("DLPSIM_SCALE", 1.0); }

const std::vector<std::string>& ConfigNames() {
  static const std::vector<std::string> kNames = {"base", "sb",   "gp",
                                                  "dlp",  "32kb", "64kb"};
  return kNames;
}

std::vector<std::string> AllAppAbbrs() {
  std::vector<std::string> abbrs;
  for (const AppInfo& app : AllApps()) abbrs.push_back(app.abbr);
  return abbrs;
}

SimConfig ConfigFor(const std::string& name) {
  SimConfig cfg;
  if (name == "base") {
    cfg = SimConfig::Baseline16KB();
  } else if (name == "sb") {
    cfg = SimConfig::WithPolicy(PolicyKind::kStallBypass);
  } else if (name == "gp") {
    cfg = SimConfig::WithPolicy(PolicyKind::kGlobalProtection);
  } else if (name == "dlp") {
    cfg = SimConfig::WithPolicy(PolicyKind::kDlp);
  } else if (name == "32kb") {
    cfg = SimConfig::Cache32KB();
  } else if (name == "64kb") {
    cfg = SimConfig::Cache64KB();
  } else {
    throw std::out_of_range("unknown config: " + name);
  }
  // Fail fast with the structured issue list if a preset is ever edited
  // into an invalid state (also the gate for locally patched presets).
  cfg.ValidateOrThrow();
  return cfg;
}

std::string ProfileResult::ToText() const {
  std::ostringstream os;
  os << "global " << global.buckets[0] << ' ' << global.buckets[1] << ' '
     << global.buckets[2] << ' ' << global.buckets[3] << '\n';
  os << "reuse_accesses " << reuse_accesses << '\n';
  os << "reuse_misses " << reuse_misses << '\n';
  os << "compulsory " << compulsory << '\n';
  for (const auto& [pc, hist] : per_pc) {
    os << "pc " << pc << ' ' << hist.buckets[0] << ' ' << hist.buckets[1]
       << ' ' << hist.buckets[2] << ' ' << hist.buckets[3] << '\n';
  }
  return os.str();
}

ProfileResult ProfileResult::FromText(const std::string& text, bool* ok) {
  ProfileResult r;
  bool saw_global = false;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "global") {
      ls >> r.global.buckets[0] >> r.global.buckets[1] >>
          r.global.buckets[2] >> r.global.buckets[3];
      saw_global = true;
    } else if (key == "reuse_accesses") {
      ls >> r.reuse_accesses;
    } else if (key == "reuse_misses") {
      ls >> r.reuse_misses;
    } else if (key == "compulsory") {
      ls >> r.compulsory;
    } else if (key == "pc") {
      Pc pc = 0;
      RddHistogram h;
      ls >> pc >> h.buckets[0] >> h.buckets[1] >> h.buckets[2] >>
          h.buckets[3];
      r.per_pc[pc] = h;
    }
  }
  if (ok != nullptr) *ok = saw_global;
  return r;
}

namespace {

// The readable part of a cell's cache key.
std::string KeyFor(const std::string& abbr, const std::string& config,
                   double scale) {
  std::ostringstream os;
  os << abbr << '_' << config << "_s" << scale;
  return os.str();
}

/// Writes the JSON report, Chrome trace and timeline CSV for one run with
/// events recorded into DLPSIM_TIMING_DIR. Failures are reported on
/// stderr and never affect the run's results.
void ExportEvents(const std::string& abbr, const std::string& config,
                  double scale, const SimConfig& cfg, const Metrics& metrics,
                  const TimelineSampler& timeline, const EventSink& sink) {
  namespace fs = std::filesystem;
  const fs::path dir = TimingDir();
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    std::cerr << "[events] cannot create " << dir << ": " << ec.message()
              << '\n';
    return;
  }
  const std::string stem = abbr + "_" + config;
  const RunReportInfo info{.app = abbr, .config = config, .scale = scale};

  const fs::path report = dir / (stem + ".report.json");
  {
    std::ofstream os(report);
    WriteJsonReport(os, info, cfg, metrics, &timeline, &sink);
  }
  const fs::path chrome = dir / (stem + ".trace.json");
  {
    std::ofstream os(chrome);
    WriteChromeTrace(os, sink, &timeline, cfg.num_cores);
  }
  const fs::path csv = dir / (stem + ".timeline.csv");
  {
    std::ofstream os(csv);
    WriteTimelineCsv(os, timeline);
  }
  std::cerr << "[events] " << stem << ": " << sink.size() << " events ("
            << sink.dropped() << " dropped) -> " << report.string() << ", "
            << chrome.string() << ", " << csv.string() << '\n';
}

/// Writes the fault-injection artifact (and, if the watchdog tripped, its
/// diagnostic) into DLPSIM_TIMING_DIR. Best-effort: export failures are
/// reported on stderr and never change run results.
void ExportFaultArtifacts(const std::string& abbr, const std::string& config,
                          const robust::FaultInjector& injector,
                          const robust::Watchdog* watchdog) {
  namespace fs = std::filesystem;
  const fs::path dir = TimingDir();
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string stem = abbr + "_" + config;
  const fs::path faults = dir / (stem + "_faults.json");
  {
    std::ofstream os(faults);
    if (!os) {
      std::cerr << "[faults] cannot write " << faults << '\n';
      return;
    }
    injector.WriteJson(os);
  }
  std::cerr << "[faults] " << stem << ": applied " << injector.applied_total()
            << "/" << injector.plan().events.size() << " -> "
            << faults.string() << '\n';
  if (watchdog != nullptr && watchdog->tripped()) {
    const fs::path diag = dir / (stem + "_watchdog.json");
    std::ofstream os(diag);
    if (os) watchdog->diagnostic().WriteJson(os);
  }
}

}  // namespace

RunResult SimulateUncached(const std::string& abbr, const std::string& config,
                           double scale) {
  const SimConfig cfg = ConfigFor(config);
  Workload wl = MakeWorkload(abbr, scale);

  GpuSimulator gpu(cfg, wl.program.get(), wl.warps_per_sm);
  PerSmProfiler profiler(cfg.num_cores, cfg.l1d.geom.sets);
  profiler.AttachTo(gpu);

  // Built only when recording: the default ring alone is 56 MiB.
  std::unique_ptr<EventSink> sink;
  std::unique_ptr<TimelineSampler> timeline;
  if (EventsEnabled()) {
    sink = std::make_unique<EventSink>(
        env::U64("DLPSIM_EVENTS_CAPACITY", 1u << 20));
    timeline = std::make_unique<TimelineSampler>(
        env::U64("DLPSIM_EVENTS_INTERVAL", 5000));
    gpu.SetEventSink(sink.get());
    gpu.Attach(timeline.get());
  }

  // Progress heartbeat: observational, never changes simulation results.
  // Attached before the watchdog, which quotes its latest line.
  std::unique_ptr<obs::ProgressMeter> progress;
  if (const std::uint64_t interval = ProgressInterval(); interval > 0) {
    progress = std::make_unique<obs::ProgressMeter>(interval,
                                                    abbr + "/" + config);
    gpu.Attach(progress.get());
  }

  // Resilience observers (both off by default, so un-faulted runs stay
  // byte-identical to earlier releases). DLPSIM_FAULTS selects a seeded
  // fault plan; DLPSIM_WATCHDOG=<cycles> arms the forward-progress
  // watchdog with that stall threshold.
  std::unique_ptr<robust::FaultInjector> injector;
  if (const char* spec = FaultSpec()) {
    robust::FaultPlan plan;
    std::string err;
    if (!robust::FaultPlan::Parse(spec, &plan, &err)) {
      throw std::invalid_argument("DLPSIM_FAULTS: " + err);
    }
    injector = std::make_unique<robust::FaultInjector>(plan);
    gpu.Attach(injector.get());
  }
  std::unique_ptr<robust::Watchdog> watchdog;
  if (const std::uint64_t stall = env::U64("DLPSIM_WATCHDOG", 0); stall > 0) {
    watchdog = std::make_unique<robust::Watchdog>(
        robust::WatchdogConfig{/*check_interval=*/1024,
                               /*stall_cycles=*/stall},
        progress.get());
    gpu.Attach(watchdog.get());
  }

  RunResult result;
  result.metrics = gpu.Run();

  if (injector != nullptr) {
    ExportFaultArtifacts(abbr, config, *injector, watchdog.get());
  }
  if (watchdog != nullptr && watchdog->tripped()) {
    std::cerr << watchdog->diagnostic().ToText();
    throw robust::RunErrorException(
        robust::RunError::kWatchdogStall,
        "watchdog: " + abbr + "/" + config + " made no forward progress for " +
        std::to_string(watchdog->config().stall_cycles) +
        " cycles (stalled resource: " +
        watchdog->diagnostic().StalledResource() + ")");
  }
  result.profile.global = profiler.GlobalRdd();
  result.profile.per_pc = profiler.PerPcRdd();
  result.profile.reuse_accesses = profiler.reuse_accesses();
  result.profile.reuse_misses = profiler.reuse_misses();
  result.profile.compulsory = profiler.compulsory_accesses();
  {
    const obs::Registry counters = gpu.CounterTable();
    MetricsTotals& totals = GlobalMetrics();
    std::lock_guard<std::mutex> lock(totals.mu);
    totals.table.Merge(counters);
  }

  if (sink != nullptr) {
    ExportEvents(abbr, config, scale, cfg, result.metrics, *timeline, *sink);
  }
  return result;
}

std::filesystem::path CachePathFor(const std::string& abbr,
                                   const std::string& config, double scale,
                                   std::string_view model_digest) {
  std::ostringstream name;
  name << KeyFor(abbr, config, scale) << '_' << std::hex << std::setw(16)
       << std::setfill('0')
       << trace::FnvHash64(CanonicalText(ConfigFor(config))) << '_'
       << model_digest << ".txt";
  return std::filesystem::path(CacheDir()) / name.str();
}

bool LoadCacheFile(const std::filesystem::path& path, RunResult* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  // A complete entry ends with the footer line the writer appends last.
  const std::string footer = std::string(kCacheFooter) + "\n";
  if (text.size() < footer.size() ||
      text.compare(text.size() - footer.size(), footer.size(), footer) != 0) {
    return false;
  }
  const auto sep = text.find("---\n");
  if (sep == std::string::npos) return false;

  bool ok_m = false;
  bool ok_p = false;
  RunResult r;
  r.metrics = Metrics::FromText(text.substr(0, sep), &ok_m);
  r.profile = ProfileResult::FromText(text.substr(sep + 4), &ok_p);
  if (!ok_m || !ok_p) return false;
  if (out != nullptr) *out = r;
  return true;
}

void StoreCacheFile(const std::filesystem::path& path, const RunResult& r) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);

  // Unique temp name per process and thread so concurrent writers of the
  // same cell never collide; rename() is atomic within the directory.
  std::ostringstream tmp_name;
  tmp_name << path.filename().string() << ".tmp." << ::getpid() << '.'
           << std::this_thread::get_id();
  const fs::path tmp = path.parent_path() / tmp_name.str();
  {
    std::ofstream out(tmp);
    out << r.metrics.ToText() << "---\n"
        << r.profile.ToText() << kCacheFooter << '\n';
    if (!out) {
      fs::remove(tmp, ec);
      return;
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) fs::remove(tmp, ec);
}

exec::TimingLog& Timing() {
  static exec::TimingLog log;
  return log;
}

// Constructing the scope starts the global log's wall clock (the
// function-local static would otherwise first be touched after the
// first simulation already finished).
TimingScope::TimingScope(std::string name) : name_(std::move(name)) {
  Timing();
}

TimingScope::~TimingScope() {
  namespace fs = std::filesystem;
  const fs::path dir = TimingDir();
  std::error_code ec;
  fs::create_directories(dir, ec);
  const fs::path path = dir / (name_ + "_timing.json");
  std::ofstream os(path);
  if (!os) {
    std::cerr << "[timing] cannot write " << path << '\n';
    return;
  }
  // Mirror RunGrid's worker-count resolution so the report names the
  // job count actually used (event recording forces serial).
  const std::size_t jobs = EventsEnabled() ? 1 : exec::DefaultJobs();
  Timing().WriteJson(os, name_, jobs, Scale());

  // DLPSIM_METRICS: dump the summed counter tables of every simulated
  // cell next to the timing report. The metrics dump implies no result
  // cache, so every cell simulated and counted; the sums are integers,
  // so the dump is byte-identical at any DLPSIM_JOBS.
  if (MetricsDumpEnabled()) {
    MetricsTotals& totals = GlobalMetrics();
    std::lock_guard<std::mutex> lock(totals.mu);
    const fs::path prom = dir / (name_ + "_metrics.prom");
    {
      std::ofstream mos(prom);
      if (mos) {
        totals.table.WriteText(mos);
      } else {
        std::cerr << "[metrics] cannot write " << prom << '\n';
      }
    }
    const fs::path json = dir / (name_ + "_metrics.json");
    std::ofstream mos(json);
    if (mos) {
      totals.table.WriteJson(mos);
    } else {
      std::cerr << "[metrics] cannot write " << json << '\n';
    }
  }
}

RunResult Run(const std::string& abbr, const std::string& config,
              double scale) {
  const std::filesystem::path path = CachePathFor(abbr, config, scale);

  if (CacheEnabled()) {
    RunResult cached;
    if (LoadCacheFile(path, &cached)) {
      exec::TimingCell cell;
      cell.app = abbr;
      cell.config = config;
      cell.cached = true;
      Timing().Record(std::move(cell));
      return cached;
    }
  }

  const exec::Stopwatch cell_clock;
  RunResult r = SimulateUncached(abbr, config, scale);
  exec::TimingCell cell;
  cell.app = abbr;
  cell.config = config;
  cell.seconds = cell_clock.Seconds();
  Timing().Record(std::move(cell));

  if (CacheEnabled()) StoreCacheFile(path, r);
  return r;
}

const RunResult& Grid::at(const std::string& app,
                          const std::string& config) const {
  const auto a = std::find(apps.begin(), apps.end(), app);
  if (a == apps.end()) throw std::out_of_range("grid has no app: " + app);
  const auto c = std::find(configs.begin(), configs.end(), config);
  if (c == configs.end()) {
    throw std::out_of_range("grid has no config: " + config);
  }
  return cells[static_cast<std::size_t>(a - apps.begin()) * configs.size() +
               static_cast<std::size_t>(c - configs.begin())];
}

Grid RunGrid(const std::vector<std::string>& apps,
             const std::vector<std::string>& configs, double scale,
             std::size_t jobs) {
  if (jobs == 0) jobs = exec::DefaultJobs();
  // Each simulated run owns a private event sink/timeline, so recording
  // is safe at any job count; serial keeps the [events] log and the
  // export order deterministic.
  if (EventsEnabled()) jobs = 1;
  const std::vector<exec::Job> matrix = exec::Grid(apps, configs);

  // A cell that throws (bad workload, watchdog trip, fault-induced
  // failure) is recorded as a failed cell instead of aborting its
  // siblings; the simulation is deterministic, so it is not retried. Its
  // slot stays value-initialized so tables keep their shape.
  const auto fail = [](const exec::Job& j, std::string error) {
    std::cerr << "[grid] FAILED " << j.app << '/' << j.config << ": " << error
              << '\n';
    exec::TimingCell cell;
    cell.app = j.app;
    cell.config = j.config;
    cell.failed = true;
    cell.error = std::move(error);
    Timing().Record(std::move(cell));
  };
  Grid grid{apps, configs, {}};
  grid.cells = exec::ParallelMap(
      matrix.size(),
      [&](std::size_t i) {
        const exec::Job& j = matrix[i];
        try {
          return Run(j.app, j.config, scale);
        } catch (const std::exception& e) {
          fail(j, e.what());
        } catch (...) {
          fail(j, "unknown exception");
        }
        return RunResult{};
      },
      jobs);
  return grid;
}

Grid RunGrid(const std::vector<std::string>& apps,
             const std::vector<std::string>& configs, std::size_t jobs) {
  return RunGrid(apps, configs, Scale(), jobs);
}

double Normalize(double value, double base) {
  return base == 0.0 ? 0.0 : value / base;
}

std::size_t FailedCells() { return Timing().FailedCells(); }

int ExitStatus() { return FailedCells() == 0 ? 0 : 1; }

}  // namespace dlpsim::bench
