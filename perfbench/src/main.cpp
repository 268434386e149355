// perfbench: host throughput of the dlpsim simulator on three workloads.
//
//   perfbench --workload gpu_cs|gpu_ci|l1d_replay --seed N --seconds S
//             --trace 0|1 --expected FILE [--spans FILE] [--source-id ID]
//             [--dump-stats FILE]
//   perfbench --write-expected FILE
//
// --trace 0 measures the end-to-end metrics with no tracing: complete
// passes over the workload's cells, in an order drawn from the seed,
// until S seconds have gone, with every host time scaled to the nominal
// machine speed of reference.h. --trace 1 alternates untraced and traced
// passes for S seconds and reports the per-layer metrics, which come
// from spans and counts the benchmark records around its own calls into
// the simulator. The seed orders cells and policies and nothing else:
// the simulated inputs are the paper's calibrated apps, so every seed
// must reproduce the pinned statistics in the expectation file.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The run refuses (exit 2, no result) when the build or the environment
// would put something other than the simulator into the timed cells.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cells.h"
#include "json_out.h"
#include "ledger.h"
#include "reference.h"
#include "spans.h"

namespace perfbench {
namespace {

const std::vector<std::string> kPolicies = {"base", "sb", "gp", "dlp"};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string expected;
  std::string spans;
  std::string source_id = "unknown";
  std::string dump_stats;
  std::string write_expected;
};

struct Metric {
  double value;
  const char* unit;
};
using MetricMap = std::map<std::string, Metric>;

// --------------------------------------------------------------- guards

std::vector<std::string> GuardProblems() {
  std::vector<std::string> problems;
  if (std::getenv("DLPSIM_CHECK") != nullptr) {
    problems.push_back(
        "DLPSIM_CHECK is set: GpuSimulator's constructor would build an "
        "invariant checker into every timed cell");
  }
#ifdef DLPSIM_CHECKED
  problems.push_back("checked build (DLPSIM_CHECKED): the invariant checker "
                     "runs in every cell");
#endif
#ifndef NDEBUG
  problems.push_back("assertions are compiled in (NDEBUG is not defined)");
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    problems.push_back(std::string("build type is '") + PERFBENCH_BUILD_TYPE +
                       "', not Release");
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  problems.push_back("sanitized build");
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  problems.push_back("sanitized build");
#endif
#endif
  return problems;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t from = colon + 1;
        while (from < line.size() && line[from] == ' ') ++from;
        return line.substr(from);
      }
    }
  }
  return "unknown";
}

std::string Fingerprint(const Options& opt) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"cpu\": " + JsonString(CpuModel()) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + JsonString(compiler) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"commit\": " + JsonString(opt.source_id) + "}";
}

// ----------------------------------------------------------- statistics

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// The highest of p90, p75, p50 that leaves at least ten samples beyond
/// it (the tail percentile a run of this many cells can support).
double TailQuantile(std::size_t n) {
  for (const double q : {0.9, 0.75}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

// Peak resident set of this process image, from VmHWM. getrusage's
// ru_maxrss would also count the launching process: Linux keeps it
// across execve.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

template <typename T>
void Shuffle(std::vector<T>* v, std::mt19937_64& rng) {
  std::shuffle(v->begin(), v->end(), rng);
}

struct GpuCellId {
  std::string app;
  std::string config;
};

std::vector<GpuCellId> GridOf(const WorkloadDef& wl) {
  std::vector<GpuCellId> cells;
  for (const std::string& app : wl.apps) {
    for (const std::string& config : wl.configs) cells.push_back({app, config});
  }
  return cells;
}

struct ReplayCellId {
  std::size_t stream;
  std::string policy;
};

// Streams in a seeded order, each with its policies in a seeded order.
std::vector<ReplayCellId> ReplayOrder(std::size_t streams,
                                      const std::vector<std::string>& policies,
                                      std::mt19937_64& rng) {
  std::vector<std::size_t> order(streams);
  for (std::size_t i = 0; i < streams; ++i) order[i] = i;
  Shuffle(&order, rng);
  std::vector<ReplayCellId> cells;
  for (const std::size_t s : order) {
    std::vector<std::string> p = policies;
    Shuffle(&p, rng);
    for (std::string& policy : p) cells.push_back({s, std::move(policy)});
  }
  return cells;
}

// ------------------------------------------------------------ measuring

// One pass over a workload's cells: simulated work, host seconds, and
// the machine speed measured before each cell.
struct Pass {
  double cycles = 0.0;
  double accesses = 0.0;
  double cell_s = 0.0;
  double setup_s = 0.0;
  std::vector<std::pair<std::string, double>> cell_times;
  std::vector<double> reference_ns;
};

/// Measured over nominal reference time: above 1 while the machine runs
/// slower than the nominal one (reference.h).
double Slowdown(const std::vector<double>& reference_ns) {
  return Median(reference_ns) / kNominalNsPerIteration;
}

// End-to-end timings, each pass's host seconds scaled by its slowdown.
// Throughputs are medians over passes. The cell quantiles are taken
// across cells of each cell's median time: a pooled quantile would sit
// between two cells' clusters of times and jump with the noise of their
// extremes. The tail is the p90 when at least ten samples lie beyond it.
MetricMap EndToEnd(const std::vector<Pass>& passes,
                   const std::vector<double>& setup_s) {
  std::vector<double> cycle_rate;
  std::vector<double> access_rate;
  std::vector<double> raw_cycle_rate;
  std::vector<double> raw_access_rate;
  std::vector<double> slowdown;
  std::map<std::string, std::vector<double>> cell_times;
  std::size_t samples = 0;
  for (const Pass& p : passes) {
    const double k = Slowdown(p.reference_ns);
    slowdown.push_back(k);
    cycle_rate.push_back(Ratio(p.cycles, p.cell_s / k));
    access_rate.push_back(Ratio(p.accesses, p.cell_s / k));
    raw_cycle_rate.push_back(Ratio(p.cycles, p.cell_s));
    raw_access_rate.push_back(Ratio(p.accesses, p.cell_s));
    for (const auto& [cell, s] : p.cell_times) {
      cell_times[cell].push_back(s / k);
      ++samples;
    }
  }
  std::vector<double> medians;
  for (const auto& [cell, t] : cell_times) medians.push_back(Median(t));
  const double tail = TailQuantile(samples);

  MetricMap m;
  m["sim_cycles_per_s"] = {Median(cycle_rate), "cycles/s"};
  m["replay_accesses_per_s"] = {Median(access_rate), "accesses/s"};
  m["cell_s_p50"] = {Median(medians), "s"};
  m["cell_s_p90"] = {Quantile(medians, tail), "s"};
  m["setup_s"] = {Median(setup_s), "s"};
  std::cout << "samples: " << samples << " runs of " << cell_times.size()
            << " cells in " << passes.size() << " passes; cell_s_p90 is the p"
            << static_cast<int>(tail * 100)
            << " (at least 10 samples beyond it)\n"
            << "machine slowdown against the nominal reference speed: median "
            << Median(slowdown) << ", range " << Quantile(slowdown, 0.0)
            << " to " << Quantile(slowdown, 1.0) << '\n'
            << "unscaled: sim_cycles_per_s " << Median(raw_cycle_rate)
            << ", replay_accesses_per_s " << Median(raw_access_rate) << '\n';
  return m;
}

void PrintOrder(const std::vector<std::string>& order) {
  std::cout << "first pass order:";
  for (const std::string& c : order) std::cout << ' ' << c;
  std::cout << '\n';
}

MetricMap MeasureGpu(const WorkloadDef& wl, double seconds,
                     std::mt19937_64& rng, Ledger& ledger) {
  SpeedReference reference;
  std::vector<GpuCellId> cells = GridOf(wl);
  std::vector<Pass> passes;
  std::vector<double> setup_s;
  const std::int64_t start = NowNs();
  do {
    Shuffle(&cells, rng);
    if (passes.empty()) {
      std::vector<std::string> order;
      for (const GpuCellId& c : cells) order.push_back(c.app + "/" + c.config);
      PrintOrder(order);
    }
    Pass pass;
    for (const GpuCellId& c : cells) {
      pass.reference_ns.push_back(reference.Measure());
      const GpuCellResult r =
          RunGpuCell(wl, c.app, c.config, ledger, nullptr, nullptr,
                     SpanLog::kNoParent);
      pass.setup_s += Seconds(r.make_ns + r.construct_ns);
      pass.cell_s += Seconds(r.run_ns);
      pass.cycles += static_cast<double>(r.metrics.core_cycles);
      pass.accesses += static_cast<double>(r.metrics.l1d_accesses);
      pass.cell_times.emplace_back(c.app + "/" + c.config, Seconds(r.run_ns));
    }
    setup_s.push_back(pass.setup_s / Slowdown(pass.reference_ns));
    passes.push_back(std::move(pass));
  } while (Seconds(NowNs() - start) < seconds);
  return EndToEnd(passes, setup_s);
}

// Set-up of l1d_replay is repeated this many times; setup_s is the median.
constexpr int kRecordRepeats = 3;
// Reference samples taken before and after each set-up.
constexpr int kSetupReferenceSamples = 5;

MetricMap MeasureReplay(const WorkloadDef& wl, double seconds,
                        std::mt19937_64& rng, Ledger& ledger) {
  SpeedReference reference;
  std::vector<double> setup_s;
  std::vector<Stream> streams;
  for (int i = 0; i < kRecordRepeats; ++i) {
    std::vector<double> reference_ns;
    for (int j = 0; j < kSetupReferenceSamples; ++j) {
      reference_ns.push_back(reference.Measure());
    }
    RecordTimes t;
    streams = RecordStreams(wl, ledger, nullptr, nullptr, SpanLog::kNoParent,
                            &t);
    for (int j = 0; j < kSetupReferenceSamples; ++j) {
      reference_ns.push_back(reference.Measure());
    }
    setup_s.push_back(Seconds(t.total_ns) / Slowdown(reference_ns));
  }

  std::vector<Pass> passes;
  const std::int64_t start = NowNs();
  do {
    const std::vector<ReplayCellId> cells =
        ReplayOrder(streams.size(), wl.configs, rng);
    if (passes.empty()) {
      std::vector<std::string> order;
      for (const ReplayCellId& c : cells) {
        order.push_back(streams[c.stream].app + "/" + c.policy);
      }
      PrintOrder(order);
    }
    Pass pass;
    for (const ReplayCellId& c : cells) {
      pass.reference_ns.push_back(reference.Measure());
      const ReplayCellResult r =
          RunReplayCell(wl, streams[c.stream], c.policy, /*packed=*/true,
                        ledger, nullptr, SpanLog::kNoParent);
      pass.cell_s += Seconds(r.ns);
      pass.cycles += static_cast<double>(r.result.cycles);
      pass.accesses += static_cast<double>(r.result.accesses);
      pass.cell_times.emplace_back(streams[c.stream].app + "/" + c.policy,
                                   Seconds(r.ns));
    }
    passes.push_back(std::move(pass));
  } while (Seconds(NowNs() - start) < seconds);
  return EndToEnd(passes, setup_s);
}

// -------------------------------------------------------------- tracing

// L1D counters summed over cells, for the per-layer cache ratios.
struct L1dTotals {
  std::uint64_t accesses = 0;
  std::uint64_t loads = 0;
  std::uint64_t load_hits = 0;
  std::uint64_t bypasses = 0;
  std::uint64_t reservation_fails = 0;
  std::uint64_t replay_cycles = 0;
  std::uint64_t replay_stall_cycles = 0;
};

void AddL1dTotals(const dlpsim::Metrics& m, L1dTotals* t) {
  t->accesses += m.l1d_accesses;
  t->loads += m.l1d_loads;
  t->load_hits += m.l1d_load_hits;
  t->bypasses += m.l1d_bypasses;
  t->reservation_fails += m.l1d_reservation_fails;
}

void AddL1dTotals(const dlpsim::ReplayResult& r, L1dTotals* t) {
  t->accesses += r.cache.accesses;
  t->loads += r.cache.loads;
  t->load_hits += r.cache.load_hits;
  t->bypasses += r.cache.bypasses;
  t->reservation_fails += r.cache.reservation_fails;
  t->replay_cycles += r.cycles;
  t->replay_stall_cycles += r.stall_cycles;
}

// Probe rounds per layer; each probe metric is the median over rounds.
constexpr int kProbeRounds = 3;

// Per-layer metrics. GPU layers come from the traced passes of gpu_*,
// and from the traced recording runs of l1d_replay; the trace and L1D
// probes run on streams recorded from the workload's own apps.
MetricMap Traced(const WorkloadDef& wl, double seconds, std::mt19937_64& rng,
                 Ledger& ledger, SpanLog& spans) {
  StepStats gpu;
  RecordTimes rec;
  const int setup_span = spans.Begin("setup", wl.name, SpanLog::kNoParent);
  const std::vector<Stream> streams =
      RecordStreams(wl, ledger, wl.replay ? &gpu : nullptr, &spans,
                    setup_span, &rec);
  spans.End(setup_span);

  double untraced_s = 0.0;
  double traced_s = 0.0;
  std::vector<double> make_s;
  std::vector<double> construct_s;
  L1dTotals cells;
  std::size_t traced_passes = 0;
  const std::int64_t start = NowNs();
  do {
    // The same cells in the same order, untraced and then traced.
    if (wl.replay) {
      const std::vector<ReplayCellId> order =
          ReplayOrder(streams.size(), wl.configs, rng);
      for (const ReplayCellId& c : order) {
        untraced_s += Seconds(RunReplayCell(wl, streams[c.stream], c.policy,
                                            true, ledger, nullptr,
                                            SpanLog::kNoParent)
                                  .ns);
      }
      const int pass = spans.Begin("pass", wl.name, SpanLog::kNoParent);
      for (const ReplayCellId& c : order) {
        const ReplayCellResult r = RunReplayCell(
            wl, streams[c.stream], c.policy, true, ledger, &spans, pass);
        traced_s += Seconds(r.ns);
        AddL1dTotals(r.result, &cells);
      }
      spans.End(pass);
    } else {
      std::vector<GpuCellId> order = GridOf(wl);
      Shuffle(&order, rng);
      for (const GpuCellId& c : order) {
        untraced_s += Seconds(RunGpuCell(wl, c.app, c.config, ledger, nullptr,
                                         nullptr, SpanLog::kNoParent)
                                  .run_ns);
      }
      const int pass = spans.Begin("pass", wl.name, SpanLog::kNoParent);
      double make = 0.0;
      double construct = 0.0;
      for (const GpuCellId& c : order) {
        const GpuCellResult r =
            RunGpuCell(wl, c.app, c.config, ledger, &gpu, &spans, pass);
        traced_s += Seconds(r.run_ns);
        make += Seconds(r.make_ns);
        construct += Seconds(r.construct_ns);
        AddL1dTotals(r.metrics, &cells);
      }
      spans.End(pass);
      make_s.push_back(make);
      construct_s.push_back(construct);
    }
    ++traced_passes;
  } while (Seconds(NowNs() - start) < seconds);
  if (wl.replay) {
    make_s.push_back(Seconds(rec.make_ns));
    construct_s.push_back(Seconds(rec.construct_ns));
  }
  const double gpu_runs = wl.replay ? 1.0 : static_cast<double>(traced_passes);

  // Trace decode probe: PackedTraceSource drained with nothing behind it.
  std::vector<double> decode_ns;
  double records = 0.0;
  for (const Stream& s : streams) {
    records += static_cast<double>(s.records.size());
  }
  for (int round = 0; round < kProbeRounds; ++round) {
    const int span = spans.Begin("trace.PackedTraceSource", wl.name,
                                 SpanLog::kNoParent);
    double ns = 0.0;
    for (const Stream& s : streams) {
      const std::int64_t t = DrainPacked(s);
      ledger.CountCell(t >= 0);
      if (t >= 0) ns += static_cast<double>(t);
    }
    spans.End(span);
    decode_ns.push_back(ns / records);
  }

  // L1D probe: each policy replayed from memory through VectorTraceSource.
  MetricMap m;
  L1dTotals probe;
  for (const std::string& policy : kPolicies) {
    std::vector<double> ns_per_access;
    for (int round = 0; round < kProbeRounds; ++round) {
      const int span = spans.Begin("l1d.probe", policy, SpanLog::kNoParent);
      double ns = 0.0;
      double accesses = 0.0;
      for (const Stream& s : streams) {
        const ReplayCellResult r =
            RunReplayCell(wl, s, policy, false, ledger, &spans, span);
        ns += static_cast<double>(r.ns);
        accesses += static_cast<double>(r.result.accesses);
        AddL1dTotals(r.result, &probe);
      }
      spans.End(span);
      ns_per_access.push_back(ns / accesses);
    }
    m["l1d." + policy + ".ns_per_access"] = {Median(ns_per_access), "ns"};
  }

  const auto d = [](std::uint64_t a) { return static_cast<double>(a); };
  m["workloads.make_s"] = {Median(make_s), "s"};
  m["gpu.construct_s"] = {Median(construct_s), "s"};
  m["gpu.steps"] = {d(gpu.steps) / gpu_runs, "count"};
  m["gpu.step_ns"] = {Ratio(d(gpu.step_ns), d(gpu.steps)), "ns"};
  m["gpu.idle_step_ratio"] = {Ratio(d(gpu.idle_steps), d(gpu.steps)), "ratio"};
  m["gpu.done_ns"] = {Ratio(d(gpu.done_ns), d(gpu.done_calls)), "ns"};
  m["gpu.done_share"] = {Ratio(d(gpu.done_ns), d(gpu.loop_ns)), "ratio"};
  m["gpu.core_step_ns"] = {Ratio(d(gpu.core_step_ns), d(gpu.core_steps)),
                           "ns"};
  m["sm.host_ns_per_warp_insn"] = {
      Ratio(d(gpu.core_step_ns), d(gpu.issued_warp_insns)), "ns"};
  m["gpu.mem_step_ns"] = {Ratio(d(gpu.mem_step_ns), d(gpu.mem_steps)), "ns"};
  m["gpu.mem_step_share"] = {Ratio(d(gpu.mem_step_ns), d(gpu.step_ns)),
                             "ratio"};
  m["gpu.mem_step_idle_ratio"] = {
      Ratio(d(gpu.mem_idle_steps), d(gpu.mem_steps)), "ratio"};
  m["mem.requests_per_cycle"] = {
      Ratio(d(gpu.mem_requests), d(gpu.core_cycles)), "1/cycle"};
  m["mem.l2_hit_ratio"] = {
      Ratio(d(gpu.l2_load_hits), d(gpu.l2_load_hits + gpu.l2_load_misses)),
      "ratio"};
  m["mem.dram_row_hit_ratio"] = {
      Ratio(d(gpu.dram_row_hits), d(gpu.dram_row_hits + gpu.dram_row_misses)),
      "ratio"};
  m["icnt.packets_per_cycle"] = {Ratio(d(gpu.packets), d(gpu.core_cycles)),
                                 "1/cycle"};
  m["l1d.hit_ratio"] = {
      Ratio(d(cells.load_hits), d(cells.loads) - d(cells.bypasses)), "ratio"};
  m["l1d.bypass_ratio"] = {Ratio(d(cells.bypasses), d(cells.accesses)),
                           "ratio"};
  m["l1d.reservation_fail_ratio"] = {
      Ratio(d(cells.reservation_fails), d(cells.accesses)), "ratio"};
  m["l1d.replay_stall_ratio"] = {
      Ratio(d(probe.replay_stall_cycles), d(probe.replay_cycles)), "ratio"};
  m["trace.record_s"] = {Seconds(rec.record_ns), "s"};
  m["trace.pack_s"] = {Seconds(rec.pack_ns), "s"};
  m["trace.decode_ns_per_record"] = {Median(decode_ns), "ns"};
  m["bench.trace_overhead_ratio"] = {Ratio(traced_s, untraced_s) - 1.0,
                                     "ratio"};
  m["fail_ratio"] = {Ratio(d(ledger.failed()), d(ledger.attempted())),
                     "ratio"};
  std::cout << "traced passes: " << traced_passes
            << "; SM, L1D and crossbar work inside one core-clock Step() "
               "cannot be told apart from outside the simulator, so "
               "gpu.core_step_ns is not split between them\n";
  return m;
}

// ---------------------------------------------------------------- main

void Usage(std::ostream& os) {
  os << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
        "                 --expected FILE [--spans FILE] [--source-id ID]\n"
        "                 [--dump-stats FILE]\n"
        "       perfbench --write-expected FILE\n"
        "workloads:";
  for (const WorkloadDef& wl : Workloads()) os << ' ' << wl.name;
  os << '\n';
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "perfbench: " << arg << " needs a value\n";
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt->workload = value;
      } else if (arg == "--seed") {
        opt->seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt->seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") throw std::invalid_argument(value);
        opt->trace = value == "1";
      } else if (arg == "--expected") {
        opt->expected = value;
      } else if (arg == "--spans") {
        opt->spans = value;
      } else if (arg == "--source-id") {
        opt->source_id = value;
      } else if (arg == "--dump-stats") {
        opt->dump_stats = value;
      } else if (arg == "--write-expected") {
        opt->write_expected = value;
      } else {
        std::cerr << "perfbench: unknown flag " << arg << '\n';
        return false;
      }
    } catch (const std::exception&) {
      std::cerr << "perfbench: bad value '" << value << "' for " << arg << '\n';
      return false;
    }
  }
  if (!opt->write_expected.empty()) return true;
  if (FindWorkload(opt->workload) == nullptr) {
    std::cerr << "perfbench: unknown workload '" << opt->workload << "'\n";
    return false;
  }
  if (opt->expected.empty()) {
    std::cerr << "perfbench: --expected is required\n";
    return false;
  }
  return true;
}

void PrintResult(const Ledger& ledger, const MetricMap& metrics) {
  std::cout << "{\"correct\": "
            << (ledger.failed() == 0 && ledger.attempted() > 0 ? "true"
                                                               : "false")
            << ", \"attempted\": " << ledger.attempted()
            << ", \"failed\": " << ledger.failed() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::cout << (first ? "" : ", ") << JsonString(name)
              << ": {\"value\": " << JsonNumber(m.value)
              << ", \"unit\": " << JsonString(m.unit) << '}';
    first = false;
  }
  std::cout << "}}" << std::endl;
}

// Runs one traced pass of every workload and pins what it simulated.
int WriteExpected(const std::string& path) {
  Ledger ledger;
  ledger.set_recording(true);
  std::mt19937_64 rng(0);
  for (const WorkloadDef& wl : Workloads()) {
    SpanLog spans;
    Traced(wl, 0.0, rng, ledger, spans);
  }
  if (ledger.failed() != 0 || !ledger.WriteSeen(path)) {
    std::cerr << "perfbench: could not pin the simulated statistics\n";
    return 1;
  }
  std::cerr << "perfbench: wrote " << path << '\n';
  return 0;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    Usage(std::cerr);
    return 2;
  }
  const std::vector<std::string> problems = GuardProblems();
  if (!problems.empty()) {
    for (const std::string& p : problems) {
      std::cerr << "perfbench: refusing to measure: " << p << '\n';
    }
    return 2;
  }
  if (!opt.write_expected.empty()) return WriteExpected(opt.write_expected);

  Ledger ledger;
  std::string error;
  if (!ledger.Load(opt.expected, &error)) {
    std::cerr << "perfbench: " << error << '\n';
    return 2;
  }
  std::cout << "fingerprint " << Fingerprint(opt) << '\n';
  const WorkloadDef& wl = *FindWorkload(opt.workload);
  std::mt19937_64 rng(opt.seed);
  MetricMap metrics;
  if (opt.trace) {
    SpanLog spans;
    metrics = Traced(wl, opt.seconds, rng, ledger, spans);
    if (!opt.spans.empty() && !spans.WriteJson(opt.spans)) {
      std::cerr << "perfbench: cannot write " << opt.spans << '\n';
      return 1;
    }
  } else {
    metrics = wl.replay ? MeasureReplay(wl, opt.seconds, rng, ledger)
                        : MeasureGpu(wl, opt.seconds, rng, ledger);
    metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
  }
  if (!opt.dump_stats.empty() && !ledger.WriteSeen(opt.dump_stats)) {
    std::cerr << "perfbench: cannot write " << opt.dump_stats << '\n';
    return 1;
  }
  PrintResult(ledger, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
