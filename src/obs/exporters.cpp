#include "obs/exporters.h"

#include <algorithm>

#include "core/l1d_cache.h"
#include "core/pdpt.h"
#include "obs/json.h"

namespace dlpsim {

namespace {

const char* UpdatePathName(std::uint64_t path) {
  switch (static_cast<PdpTable::UpdatePath>(path)) {
    case PdpTable::UpdatePath::kIncrease:
      return "increase";
    case PdpTable::UpdatePath::kDecrease:
      return "decrease";
    case PdpTable::UpdatePath::kHold:
      return "hold";
  }
  return "?";
}

const char* BypassReasonName(std::uint64_t reason) {
  switch (static_cast<BypassReason>(reason)) {
    case BypassReason::kNoVictim:
      return "no_victim";
    case BypassReason::kResourceStall:
      return "resource_stall";
  }
  return "?";
}

void WriteMetricsObject(JsonWriter& w, const Metrics& m) {
  w.BeginObject();
  for (const MetricsField& f : MetricsFields()) {
    w.KV(f.name, m.*(f.member));
  }
  w.EndObject();
}

void WritePolicySnapshot(JsonWriter& w, const PolicySnapshot& p) {
  w.BeginObject();
  w.KV("mean_pd", p.mean_pd);
  w.KV("protected_lines", p.protected_lines);
  w.KV("samples_taken", p.samples_taken);
  w.Key("pl_histogram").BeginArray();
  for (const std::uint64_t n : p.pl_histogram) w.Value(n);
  w.EndArray();
  w.EndObject();
}

}  // namespace

void WriteJsonReport(std::ostream& os, const RunReportInfo& info,
                     const SimConfig& cfg, const Metrics& metrics,
                     const TimelineSampler* timeline, const EventSink* events) {
  JsonWriter w(os);
  w.BeginObject();
  w.KV("schema", "dlpsim-report-v2");
  w.KV("app", info.app);
  w.KV("config", info.config);
  w.KV("scale", info.scale);

  w.Key("sim_config").BeginObject();
  w.KV("policy", ToString(cfg.l1d.policy));
  w.KV("num_cores", cfg.num_cores);
  w.KV("num_partitions", cfg.num_partitions);
  w.Key("l1d").BeginObject();
  w.KV("sets", cfg.l1d.geom.sets);
  w.KV("ways", cfg.l1d.geom.ways);
  w.KV("line_bytes", cfg.l1d.geom.line_bytes);
  w.KV("mshr_entries", cfg.l1d.mshr_entries);
  w.KV("miss_queue_entries", cfg.l1d.miss_queue_entries);
  w.EndObject();
  w.Key("protection").BeginObject();
  w.KV("sample_accesses", cfg.l1d.prot.sample_accesses);
  w.KV("pdpt_entries", cfg.l1d.prot.pdpt_entries);
  w.KV("pd_bits", cfg.l1d.prot.pd_bits);
  w.KV("pd_max", cfg.l1d.prot.pd_max());
  w.EndObject();
  w.EndObject();

  w.Key("metrics");
  WriteMetricsObject(w, metrics);

  w.Key("derived").BeginObject();
  w.KV("ipc", metrics.ipc());
  w.KV("memory_access_ratio", metrics.memory_access_ratio());
  w.KV("avg_load_latency", metrics.avg_load_latency());
  w.KV("l1d_hit_rate", metrics.l1d_hit_rate());
  w.KV("l1d_traffic", metrics.l1d_traffic());
  w.EndObject();

  if (events != nullptr) {
    w.Key("events").BeginObject();
    w.KV("capacity", std::uint64_t{events->capacity()});
    w.KV("retained", std::uint64_t{events->size()});
    w.KV("total_emitted", events->total_emitted());
    w.KV("dropped", events->dropped());
    w.EndObject();
  }

  if (timeline != nullptr) {
    w.Key("timeline").BeginObject();
    w.KV("interval", timeline->interval());
    w.Key("samples").BeginArray();
    for (const TimelineSample& s : timeline->samples()) {
      w.BeginObject();
      w.KV("cycle", s.cycle);
      w.Key("policy");
      WritePolicySnapshot(w, s.policy);
      w.Key("delta");
      WriteMetricsObject(w, s.delta);
      w.Key("cumulative");
      WriteMetricsObject(w, s.cumulative);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }

  w.EndObject();
  os << '\n';
}

void WriteChromeTrace(std::ostream& os, const EventSink& sink,
                      const TimelineSampler* timeline, std::uint32_t num_sms) {
  const std::vector<Event> events = sink.InOrder();
  if (num_sms == 0) {
    for (const Event& e : events) {
      num_sms = std::max(num_sms, std::uint32_t{e.sm} + 1);
    }
  }

  JsonWriter w(os);
  w.BeginObject();
  w.KV("displayTimeUnit", "ms");
  w.Key("otherData").BeginObject();
  w.KV("generator", "dlpsim");
  w.KV("dropped_events", sink.dropped());
  w.EndObject();
  w.Key("traceEvents").BeginArray();

  // Metadata: name the process and one thread per SM.
  w.BeginObject();
  w.KV("name", "process_name");
  w.KV("ph", "M");
  w.KV("pid", 0);
  w.KV("tid", 0);
  w.Key("args").BeginObject().KV("name", "dlpsim L1D").EndObject();
  w.EndObject();
  for (std::uint32_t sm = 0; sm < num_sms; ++sm) {
    w.BeginObject();
    w.KV("name", "thread_name");
    w.KV("ph", "M");
    w.KV("pid", 0);
    w.KV("tid", sm);
    w.Key("args").BeginObject().KV("name", "SM" + std::to_string(sm));
    w.EndObject();
    w.EndObject();
  }

  // Events as instant events; the core cycle maps to the `ts`
  // microsecond axis one-to-one.
  for (const Event& e : events) {
    w.BeginObject();
    w.KV("name", ToString(e.kind));
    w.KV("cat", "l1d");
    w.KV("ph", "i");
    // PD recomputes are rare, global landmarks; everything else is
    // thread(SM)-scoped.
    w.KV("s", e.kind == EventKind::kPdSample ? "p" : "t");
    w.KV("ts", e.cycle);
    w.KV("pid", 0);
    w.KV("tid", e.sm);
    w.Key("args").BeginObject();
    switch (e.kind) {
      case EventKind::kAccess:
        w.KV("result", ToString(static_cast<AccessResult>(e.arg0)));
        w.KV("set", e.set);
        w.KV("block", e.block);
        w.KV("pc", e.pc);
        break;
      case EventKind::kBypass:
        w.KV("reason", BypassReasonName(e.arg0));
        w.KV("set", e.set);
        w.KV("block", e.block);
        w.KV("pc", e.pc);
        break;
      case EventKind::kEviction:
        w.KV("set", e.set);
        w.KV("victim_block", e.block);
        w.KV("victim_pc", e.pc);
        w.KV("dirty", e.arg0 != 0);
        break;
      case EventKind::kFill:
        w.KV("set", e.set);
        w.KV("block", e.block);
        break;
      case EventKind::kVtaHit:
        w.KV("set", e.set);
        w.KV("block", e.block);
        w.KV("pc", e.pc);
        w.KV("insn_id", e.arg0);
        break;
      case EventKind::kPdSample:
        w.KV("mean_pd_before", static_cast<double>(e.arg0) / 1000.0);
        w.KV("mean_pd_after", static_cast<double>(e.arg1) / 1000.0);
        w.KV("path", UpdatePathName(e.arg2));
        break;
      case EventKind::kPlSaturated:
        w.KV("block", e.block);
        w.KV("pc", e.pc);
        w.KV("insn_id", e.arg0);
        break;
    }
    w.EndObject();
    w.EndObject();
  }

  // Timeline counter tracks (Perfetto renders these as line charts).
  if (timeline != nullptr) {
    auto counter = [&w](const char* name, Cycle cycle, double value) {
      w.BeginObject();
      w.KV("name", name);
      w.KV("ph", "C");
      w.KV("ts", cycle);
      w.KV("pid", 0);
      w.KV("tid", 0);
      w.Key("args").BeginObject().KV("value", value).EndObject();
      w.EndObject();
    };
    for (const TimelineSample& s : timeline->samples()) {
      counter("mean_pd", s.cycle, s.policy.mean_pd);
      counter("protected_lines", s.cycle,
              static_cast<double>(s.policy.protected_lines));
      counter("l1d_hits/interval", s.cycle,
              static_cast<double>(s.delta.l1d_load_hits));
      counter("l1d_bypasses/interval", s.cycle,
              static_cast<double>(s.delta.l1d_bypasses));
    }
  }

  w.EndArray();
  w.EndObject();
  os << '\n';
}

void WriteTimelineCsv(std::ostream& os, const TimelineSampler& timeline) {
  os << "cycle";
  // Per-interval deltas, prefixed so they cannot be mistaken for totals.
  for (const MetricsField& f : MetricsFields()) os << ",d_" << f.name;
  os << ",mean_pd,protected_lines,samples_taken";
  for (std::size_t i = 0; i < PolicySnapshot{}.pl_histogram.size(); ++i) {
    os << ",pl_" << i;
  }
  os << '\n';
  for (const TimelineSample& s : timeline.samples()) {
    os << s.cycle;
    for (const MetricsField& f : MetricsFields()) {
      os << ',' << s.delta.*(f.member);
    }
    os << ',' << s.policy.mean_pd << ',' << s.policy.protected_lines << ','
       << s.policy.samples_taken;
    for (const std::uint64_t n : s.policy.pl_histogram) os << ',' << n;
    os << '\n';
  }
}

}  // namespace dlpsim
