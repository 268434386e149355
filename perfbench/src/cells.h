// The benchmark's workloads and the cells they are made of.
//
// A cell is one simulation: one app under one configuration on the full
// GPU, or one recorded L1D access stream replayed under one policy. Every
// GPU cell starts with empty caches and runs its kernel to completion.
// Each runner checks its simulated output against the pinned statistics
// in the Ledger and counts the cell as attempted, and failed on a typed
// RunError, an incomplete run, an exception or a mismatch.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/trace_replay.h"
#include "gpu/metrics.h"
#include "ledger.h"
#include "sim/config.h"
#include "spans.h"
#include "trace/record.h"

namespace perfbench {

struct WorkloadDef {
  std::string name;
  std::vector<std::string> apps;
  /// GPU workloads: the configurations of the grid. l1d_replay: the
  /// replay policies (its streams are recorded under `base`).
  std::vector<std::string> configs;
  double scale = 1.0;  // MakeWorkload scale of every GPU run
  bool replay = false;
};

const std::vector<WorkloadDef>& Workloads();
const WorkloadDef* FindWorkload(std::string_view name);

/// Named configurations: base, sb, gp, dlp (the paper's §5.3 schemes on
/// the Table 1 16 KB L1D).
dlpsim::SimConfig ConfigFor(const std::string& name);

/// Host time and counts of a GPU clock loop driven step by step from
/// outside (the traced run), plus the simulated work it covered, read
/// from the public counters of the crossbar and the memory partitions.
struct StepStats {
  std::uint64_t steps = 0;
  std::uint64_t idle_steps = 0;  // ProgressCount() unchanged by the step
  std::uint64_t core_steps = 0;  // the core clock advanced
  std::uint64_t mem_steps = 0;   // only the memory clock fired
  std::uint64_t mem_idle_steps = 0;
  std::uint64_t done_calls = 0;
  std::int64_t step_ns = 0;
  std::int64_t core_step_ns = 0;
  std::int64_t mem_step_ns = 0;
  std::int64_t done_ns = 0;
  std::int64_t loop_ns = 0;  // whole traced loop, bookkeeping included

  std::uint64_t core_cycles = 0;
  std::uint64_t issued_warp_insns = 0;
  std::uint64_t mem_requests = 0;  // MemoryPartition::requests_served
  std::uint64_t packets = 0;       // Crossbar::packets_delivered
  std::uint64_t l2_load_hits = 0;
  std::uint64_t l2_load_misses = 0;
  std::uint64_t dram_row_hits = 0;
  std::uint64_t dram_row_misses = 0;
};

struct GpuCellResult {
  bool ok = false;
  dlpsim::Metrics metrics;
  std::int64_t make_ns = 0;       // MakeWorkload
  std::int64_t construct_ns = 0;  // GpuSimulator constructor
  std::int64_t run_ns = 0;        // Run(), or the traced loop + Collect()
};

/// Runs one GPU cell. With `steps` null it calls Run(); otherwise it
/// drives Done()/Step() itself, times each call into *steps, and fails
/// the cell unless the result equals the pinned Run() statistics.
/// `observer` (may be null) is attached to every L1D before the run.
GpuCellResult RunGpuCell(const WorkloadDef& wl, const std::string& app,
                         const std::string& config, Ledger& ledger,
                         StepStats* steps, SpanLog* spans, int parent,
                         dlpsim::AccessObserver* observer = nullptr);

/// One app's L1D access stream, recorded on a full-GPU `base` run.
struct Stream {
  std::string app;
  std::vector<dlpsim::TraceAccess> records;
  std::string packed;  // DLPT bytes from WritePackedTrace
};

struct RecordTimes {
  std::int64_t make_ns = 0;
  std::int64_t construct_ns = 0;
  std::int64_t record_ns = 0;  // the recorded GPU runs
  std::int64_t pack_ns = 0;
  std::int64_t total_ns = 0;
};

/// Records and packs one stream per app of `wl` (each run is a GPU cell
/// of `wl` under `base`; `steps` as in RunGpuCell). Checks each stream:
/// the packed bytes decode to exactly the recorded records, and the
/// record count and packed digest match the pinned ones.
std::vector<Stream> RecordStreams(const WorkloadDef& wl, Ledger& ledger,
                                  StepStats* steps, SpanLog* spans,
                                  int parent, RecordTimes* times);

struct ReplayCellResult {
  bool ok = false;
  dlpsim::ReplayResult result;
  std::int64_t ns = 0;  // source creation + Replay
};

/// Replays `stream` under `policy` into a fresh TraceReplayer, decoding
/// the packed bytes through PackedTraceSource (`packed`) or reading the
/// records through VectorTraceSource.
ReplayCellResult RunReplayCell(const WorkloadDef& wl, const Stream& stream,
                               const std::string& policy, bool packed,
                               Ledger& ledger, SpanLog* spans, int parent);

/// Drains the packed stream through PackedTraceSource alone; returns the
/// host nanoseconds, or -1 when decoding fails.
std::int64_t DrainPacked(const Stream& stream);

}  // namespace perfbench
