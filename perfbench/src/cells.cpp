#include "cells.h"

#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <streambuf>

#include "gpu/simulator.h"
#include "trace/recorder.h"
#include "trace/source.h"
#include "trace/writer.h"
#include "workloads/registry.h"

namespace perfbench {

using dlpsim::GpuSimulator;
using dlpsim::Metrics;
using dlpsim::PolicyKind;
using dlpsim::SimConfig;

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> kWorkloads = {
      {"gpu_cs", dlpsim::CsAppAbbrs(), {"base", "dlp"}, 0.1, false},
      {"gpu_ci", dlpsim::CiAppAbbrs(), {"base", "dlp"}, 0.1, false},
      // CS and CI apps whose streams together are 14% stores.
      {"l1d_replay",
       {"HG", "SRAD", "BFS", "SS", "KM", "MM"},
       {"base", "sb", "gp", "dlp"},
       0.2,
       true},
  };
  return kWorkloads;
}

const WorkloadDef* FindWorkload(std::string_view name) {
  for (const WorkloadDef& wl : Workloads()) {
    if (wl.name == name) return &wl;
  }
  return nullptr;
}

SimConfig ConfigFor(const std::string& name) {
  if (name == "base") return SimConfig::Baseline16KB();
  if (name == "sb") return SimConfig::WithPolicy(PolicyKind::kStallBypass);
  if (name == "gp") return SimConfig::WithPolicy(PolicyKind::kGlobalProtection);
  if (name == "dlp") return SimConfig::WithPolicy(PolicyKind::kDlp);
  throw std::out_of_range("unknown configuration: " + name);
}

namespace {

std::string CellKey(const WorkloadDef& wl, const std::string& app,
                    const std::string& config, const char* kind) {
  return wl.name + "/" + app + "/" + config + " " + kind;
}

// The loop of GpuSimulator::Run() with no watchdog, fault injector or
// invariant checker attached (the benchmark refuses to run with one),
// driven from outside so each Done() and Step() call can be timed. Core
// and icnt share a 650 MHz clock, so a Step() that leaves core_cycles()
// unchanged fired the 924 MHz memory clock alone.
Metrics TracedLoop(GpuSimulator& gpu, const SimConfig& cfg, StepStats* st) {
  const std::int64_t loop_start = NowNs();
  std::uint64_t progress = gpu.ProgressCount();
  for (;;) {
    const std::int64_t t0 = NowNs();
    const bool done = gpu.Done();
    st->done_ns += NowNs() - t0;
    ++st->done_calls;
    if (done || gpu.core_cycles() >= cfg.max_core_cycles) break;
    const dlpsim::Cycle cycle = gpu.core_cycles();
    const std::int64_t t1 = NowNs();
    gpu.Step();
    const std::int64_t ns = NowNs() - t1;
    const std::uint64_t now_progress = gpu.ProgressCount();
    const bool idle = now_progress == progress;
    progress = now_progress;
    ++st->steps;
    st->step_ns += ns;
    if (idle) ++st->idle_steps;
    if (gpu.core_cycles() != cycle) {
      ++st->core_steps;
      st->core_step_ns += ns;
    } else {
      ++st->mem_steps;
      st->mem_step_ns += ns;
      if (idle) ++st->mem_idle_steps;
    }
  }
  Metrics m = gpu.Collect();
  m.completed = gpu.Done() ? 1 : 0;
  st->loop_ns += NowNs() - loop_start;

  st->core_cycles += m.core_cycles;
  st->issued_warp_insns += m.issued_warp_insns;
  st->packets += gpu.icnt().packets_delivered;
  for (const dlpsim::MemoryPartition& p : gpu.partitions()) {
    st->mem_requests += p.requests_served;
    st->l2_load_hits += p.l2().stats().load_hits;
    st->l2_load_misses += p.l2().stats().load_misses;
    st->dram_row_hits += p.dram().row_hits;
    st->dram_row_misses += p.dram().row_misses;
  }
  return m;
}

// A read-only istream buffer over bytes owned elsewhere, so replay cells
// decode the packed stream in place instead of copying it first.
class ViewBuf : public std::streambuf {
 public:
  explicit ViewBuf(const std::string& bytes) {
    char* p = const_cast<char*>(bytes.data());
    setg(p, p, p + bytes.size());
  }
};

// FNV-1a 64 of the packed bytes: a digest of the stream that changes
// with any record or with the encoding.
std::uint64_t Fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string StreamText(const Stream& s) {
  std::uint64_t stores = 0;
  for (const dlpsim::TraceAccess& a : s.records) {
    if (a.type == dlpsim::AccessType::kStore) ++stores;
  }
  std::ostringstream os;
  os << "records " << s.records.size() << "\nstores " << stores
     << "\npacked_bytes " << s.packed.size() << "\npacked_fnv64 "
     << Hex(Fnv1a64(s.packed))
     << '\n';
  return os.str();
}

// Decodes the packed bytes and compares them record by record with what
// the recorder saw.
bool DecodesToRecords(const Stream& s) {
  ViewBuf buf(s.packed);
  std::istream in(&buf);
  dlpsim::trace::PackedTraceSource src(in);
  dlpsim::TraceAccess a;
  std::size_t i = 0;
  while (src.Next(&a)) {
    if (i >= s.records.size() || a != s.records[i]) {
      std::cerr << "perfbench: " << s.app << " packed record " << i
                << " differs from the recorded one\n";
      return false;
    }
    ++i;
  }
  if (!src.ok() || i != s.records.size()) {
    std::cerr << "perfbench: " << s.app << " packed stream decodes to " << i
              << " of " << s.records.size() << " records ("
              << src.error().message << ")\n";
    return false;
  }
  return true;
}

std::string ReplayText(const dlpsim::ReplayResult& r) {
  const dlpsim::CacheStats& c = r.cache;
  std::ostringstream os;
  os << "cycles " << r.cycles << "\naccesses " << r.accesses
     << "\nstall_cycles " << r.stall_cycles << "\ncache.accesses "
     << c.accesses << "\ncache.loads " << c.loads << "\ncache.stores "
     << c.stores << "\ncache.load_hits " << c.load_hits
     << "\ncache.load_misses " << c.load_misses << "\ncache.store_hits "
     << c.store_hits << "\ncache.mshr_merges " << c.mshr_merges
     << "\ncache.misses_issued " << c.misses_issued << "\ncache.bypasses "
     << c.bypasses << "\ncache.reservation_fails " << c.reservation_fails
     << "\ncache.evictions " << c.evictions << "\ncache.writebacks "
     << c.writebacks << "\ncache.fills " << c.fills
     << "\ncache.store_invalidates " << c.store_invalidates << '\n';
  return os.str();
}

}  // namespace

GpuCellResult RunGpuCell(const WorkloadDef& wl, const std::string& app,
                         const std::string& config, Ledger& ledger,
                         StepStats* steps, SpanLog* spans, int parent,
                         dlpsim::AccessObserver* observer) {
  GpuCellResult r;
  const std::string key = CellKey(wl, app, config, "metrics");
  ScopedSpan cell(spans, "cell.gpu", key, parent);
  try {
    const SimConfig cfg = ConfigFor(config);
    ScopedSpan make(spans, "workloads.MakeWorkload", app, cell.id());
    dlpsim::Workload w = dlpsim::MakeWorkload(app, wl.scale);
    r.make_ns = make.Close();

    ScopedSpan construct(spans, "gpu.construct", key, cell.id());
    GpuSimulator gpu(cfg, w.program.get(), w.warps_per_sm);
    r.construct_ns = construct.Close();
    if (observer != nullptr) gpu.AttachObserver(observer);

    bool run_ok = true;
    if (steps == nullptr) {
      ScopedSpan run(spans, "gpu.Run", key, cell.id());
      r.metrics = gpu.Run();
      r.run_ns = run.Close();
      if (gpu.run_error() != dlpsim::robust::RunError::kNone) {
        std::cerr << "perfbench: " << key << " stopped with RunError "
                  << dlpsim::robust::ToString(gpu.run_error()) << '\n';
        run_ok = false;
      }
    } else {
      ScopedSpan loop(spans, "gpu.loop", key, cell.id());
      r.metrics = TracedLoop(gpu, cfg, steps);
      r.run_ns = loop.Close();
    }
    if (r.metrics.completed != 1) {
      std::cerr << "perfbench: " << key << " did not run to completion\n";
      run_ok = false;
    }
    // The traced loop's Metrics are checked against the same pinned Run()
    // statistics, so a traced run that simulated anything else fails.
    r.ok = ledger.Match(key, r.metrics.ToText()) && run_ok;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << key << " threw: " << e.what() << '\n';
    r.ok = false;
  }
  ledger.CountCell(r.ok);
  return r;
}

std::vector<Stream> RecordStreams(const WorkloadDef& wl, Ledger& ledger,
                                  StepStats* steps, SpanLog* spans,
                                  int parent, RecordTimes* times) {
  std::vector<Stream> streams;
  const std::int64_t start = NowNs();
  for (const std::string& app : wl.apps) {
    Stream s;
    s.app = app;
    dlpsim::trace::TraceRecorder recorder(&s.records);
    const GpuCellResult cell =
        RunGpuCell(wl, app, "base", ledger, steps, spans, parent, &recorder);
    times->make_ns += cell.make_ns;
    times->construct_ns += cell.construct_ns;
    times->record_ns += cell.run_ns;

    ScopedSpan pack(spans, "trace.WritePackedTrace", app, parent);
    std::ostringstream os;
    const bool packed = dlpsim::trace::WritePackedTrace(
        os, s.records, "app " + app + "\n");
    s.packed = os.str();
    times->pack_ns += pack.Close();

    const bool ok =
        packed && DecodesToRecords(s) &&
        ledger.Match(wl.name + "/" + app + " stream", StreamText(s));
    ledger.CountCell(ok);
    streams.push_back(std::move(s));
  }
  times->total_ns += NowNs() - start;
  return streams;
}

ReplayCellResult RunReplayCell(const WorkloadDef& wl, const Stream& stream,
                               const std::string& policy, bool packed,
                               Ledger& ledger, SpanLog* spans, int parent) {
  ReplayCellResult r;
  const std::string key = CellKey(wl, stream.app, policy, "replay");
  try {
    dlpsim::TraceReplayer replayer(ConfigFor(policy).l1d);
    bool source_ok = true;
    {
      ScopedSpan span(spans,
                      packed ? "l1d.Replay(PackedTraceSource)"
                             : "l1d.Replay(VectorTraceSource)",
                      key, parent);
      if (packed) {
        ViewBuf buf(stream.packed);
        std::istream in(&buf);
        dlpsim::trace::PackedTraceSource src(in);
        r.result = replayer.Replay(src);
        source_ok = src.ok();
      } else {
        dlpsim::trace::VectorTraceSource src(stream.records);
        r.result = replayer.Replay(src);
        source_ok = src.ok();
      }
      r.ns = span.Close();
    }
    if (!source_ok || r.result.accesses != stream.records.size()) {
      std::cerr << "perfbench: " << key << " replayed " << r.result.accesses
                << " of " << stream.records.size() << " records\n";
    }
    r.ok = ledger.Match(key, ReplayText(r.result)) && source_ok &&
           r.result.accesses == stream.records.size();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << key << " threw: " << e.what() << '\n';
    r.ok = false;
  }
  ledger.CountCell(r.ok);
  return r;
}

std::int64_t DrainPacked(const Stream& stream) {
  const std::int64_t t0 = NowNs();
  ViewBuf buf(stream.packed);
  std::istream in(&buf);
  dlpsim::trace::PackedTraceSource src(in);
  dlpsim::TraceAccess a;
  std::uint64_t n = 0;
  while (src.Next(&a)) ++n;
  const std::int64_t ns = NowNs() - t0;
  return src.ok() && n == stream.records.size() ? ns : -1;
}

}  // namespace perfbench
