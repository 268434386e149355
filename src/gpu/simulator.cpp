#include "gpu/simulator.h"

#include <string>

#include "obs/event_sink.h"
#include "robust/invariants.h"

namespace dlpsim {

namespace {
// Member-init-list validation gate: cfg_ is the first member, so a bad
// configuration or warp count throws ConfigError before any tag array or
// SM can assert on it.
const SimConfig& Validated(const SimConfig& cfg, std::uint32_t warps_per_sm) {
  cfg.ValidateOrThrow();
  if (warps_per_sm == 0 || warps_per_sm > cfg.core.max_warps) {
    throw ConfigError({{"warps_per_sm",
                        "must be in [1, core.max_warps = " +
                            std::to_string(cfg.core.max_warps) + "] (got " +
                            std::to_string(warps_per_sm) + ")"}});
  }
  return cfg;
}
}  // namespace

GpuSimulator::GpuSimulator(const SimConfig& cfg, const Program* program,
                           std::uint32_t warps_per_sm, SchedulerKind sched)
    : cfg_(Validated(cfg, warps_per_sm)),
      icnt_(cfg.icnt, cfg.num_cores, cfg.num_partitions) {
  cores_.reserve(cfg.num_cores);
  for (SmId id = 0; id < cfg.num_cores; ++id) {
    cores_.emplace_back(cfg, id, program, warps_per_sm, sched);
  }
  partitions_.reserve(cfg.num_partitions);
  for (PartitionId id = 0; id < cfg.num_partitions; ++id) {
    partitions_.emplace_back(cfg, id);
  }
  core_domain_ = clocks_.AddDomain(cfg.core_mhz);
  icnt_domain_ = clocks_.AddDomain(cfg.icnt_mhz);
  mem_domain_ = clocks_.AddDomain(cfg.mem_mhz);
  // Cores whose program is empty are inactive from cycle 0.
  core_inactive_.assign(cores_.size(), 0);
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i].Inactive()) {
      core_inactive_[i] = 1;
      ++num_inactive_;
    }
  }
  // Invariant checking is opt-in (DLPSIM_CHECK env / DLPSIM_CHECKED
  // build); when enabled every simulator self-checks without callers
  // having to know the robust/ layer exists.
  owned_checker_ = robust::MakeCheckerFromEnv();
  if (owned_checker_ != nullptr) Attach(owned_checker_.get());
}

GpuSimulator::~GpuSimulator() = default;

void GpuSimulator::AttachObserver(AccessObserver* observer) {
  for (SmCore& core : cores_) core.l1d().SetObserver(observer);
}

void GpuSimulator::Attach(SimObserver* observer) {
  observers_.push_back(observer);
}

void GpuSimulator::SetEventSink(EventSink* sink) {
  for (SmCore& core : cores_) core.l1d().SetEventSink(sink, core.id());
}

PolicySnapshot GpuSimulator::SnapshotPolicy() const {
  PolicySnapshot snap;
  std::uint32_t cores_with_pdpt = 0;
  for (const SmCore& core : cores_) {
    const L1DCache& l1d = core.l1d();
    if (const PdpTable* pdpt = l1d.policy().pdpt(); pdpt != nullptr) {
      snap.mean_pd += pdpt->MeanPd();
      snap.samples_taken += pdpt->samples_taken;
      ++cores_with_pdpt;
    }
    // Incrementally maintained per-L1D counters replace the former
    // 32-set x 4-way tag walk per core per timeline sample.
    const PlCounters& pl = l1d.pl_counters();
    for (std::size_t b = 0; b < snap.pl_histogram.size(); ++b) {
      snap.pl_histogram[b] += pl.histogram[b];
    }
    snap.protected_lines += pl.protected_lines();
  }
  if (cores_with_pdpt > 0) snap.mean_pd /= cores_with_pdpt;
  return snap;
}

void GpuSimulator::Step() {
  for (std::uint32_t domain : clocks_.Tick()) {
    if (domain == mem_domain_) {
      const Cycle now = clocks_.cycles(mem_domain_);
      for (MemoryPartition& p : partitions_) p.Tick(now, icnt_);
    } else if (domain == icnt_domain_) {
      icnt_.Tick(clocks_.cycles(icnt_domain_));
    } else if (domain == core_domain_) {
      const Cycle now = clocks_.cycles(core_domain_);
      // Observers due now: before the cores (injected faults), then after.
      for (SimObserver* o : observers_) {
        if (o->next_due() <= now) o->BeforeCores(*this, now);
      }
      // Skip cores whose TickCore is provably a no-op (drained, no
      // pending background credit, and -- since they have no outstanding
      // loads -- no replies can be routed to them). When every core is
      // inactive the whole domain fast-forwards: the tick only advances
      // the cycle count while icnt/mem drain.
      if (num_inactive_ != cores_.size()) {
        for (std::size_t i = 0; i < cores_.size(); ++i) {
          if (core_inactive_[i] != 0) continue;
          cores_[i].TickCore(now, icnt_);
          if (cores_[i].Inactive()) {
            core_inactive_[i] = 1;
            ++num_inactive_;
          }
        }
      }
      for (SimObserver* o : observers_) {
        if (o->next_due() <= now) o->AfterCores(*this, now);
      }
    }
  }
}

std::uint64_t GpuSimulator::ProgressCount() const {
  std::uint64_t n = 0;
  for (const SmCore& core : cores_) {
    n += core.committed_thread_insns + core.issued_warp_insns;
    const CacheStats& s = core.l1d().stats();
    // Completed cache work only: retried reservation failures increment
    // stats_.reservation_fails forever during a livelock and must NOT
    // mask the stall.
    n += s.accesses + s.fills + s.bypasses;
  }
  n += icnt_.packets_delivered;
  for (const MemoryPartition& p : partitions_) {
    n += p.requests_served + p.dram().reads + p.dram().writes;
  }
  return n;
}

bool GpuSimulator::Done() const {
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    // Inactive implies drained; the flag spares the Drained() call.
    if (core_inactive_[i] == 0 && !cores_[i].Drained()) return false;
  }
  if (!icnt_.Idle()) return false;
  for (const MemoryPartition& p : partitions_) {
    if (!p.Idle()) return false;
  }
  return true;
}

Metrics GpuSimulator::Run() {
  for (;;) {
    if (Done() || clocks_.cycles(core_domain_) >= cfg_.max_core_cycles ||
        run_error_ != robust::RunError::kNone) {
      break;
    }
    Step();
  }
  Metrics m = Collect();
  m.completed = Done() ? 1 : 0;
  if (m.completed != 0) {
    run_error_ = robust::RunError::kNone;
  } else if (run_error_ == robust::RunError::kNone) {
    // The hard budget expired with warps still in flight: a typed error
    // instead of a silent completed=0.
    run_error_ = robust::RunError::kCycleBudget;
  }
  for (SimObserver* o : observers_) o->OnRunEnd(*this, m);
  return m;
}

Metrics GpuSimulator::Collect() const {
  Metrics m;
  m.core_cycles = clocks_.cycles(core_domain_);
  for (const SmCore& core : cores_) {
    m.committed_thread_insns += core.committed_thread_insns;
    m.committed_mem_insns += core.committed_mem_insns;
    m.issued_warp_insns += core.issued_warp_insns;
    m.ldst_stall_cycles += core.ldst().stall_cycles;
    m.load_block_cycles += core.load_block_cycles;
    m.load_block_events += core.load_block_events;
    const CacheStats& s = core.l1d().stats();
    m.l1d_accesses += s.accesses;
    m.l1d_loads += s.loads;
    m.l1d_stores += s.stores;
    m.l1d_load_hits += s.load_hits;
    m.l1d_load_misses += s.load_misses;
    m.l1d_mshr_merges += s.mshr_merges;
    m.l1d_misses_issued += s.misses_issued;
    m.l1d_bypasses += s.bypasses;
    m.l1d_reservation_fails += s.reservation_fails;
    m.l1d_evictions += s.evictions;
    m.l1d_writebacks += s.writebacks;
    m.l1d_fills += s.fills;
  }
  m.icnt_bytes_total = icnt_.total_bytes();
  m.icnt_bytes_l1d = icnt_.bytes_l1d;
  m.icnt_bytes_other = icnt_.bytes_other;
  for (const MemoryPartition& p : partitions_) {
    const CacheStats& s = p.l2().stats();
    m.l2_accesses += s.accesses;
    m.l2_load_hits += s.load_hits;
    m.l2_load_misses += s.load_misses;
    m.dram_reads += p.dram().reads;
    m.dram_writes += p.dram().writes;
    m.dram_row_hits += p.dram().row_hits;
    m.dram_row_misses += p.dram().row_misses;
  }
  return m;
}

obs::Registry GpuSimulator::CounterTable() const {
  obs::Registry t;
  std::uint64_t& accesses = t.GetCounter(
      "cache", "accesses", "L1D accesses committed (hit, miss or bypass)");
  std::uint64_t& fills = t.GetCounter(
      "cache", "fills", "L1D lines filled by returning responses");
  obs::Histogram& mshr = t.GetHistogram(
      "cache", "mshr_occupancy", L1DCache::kMshrOccupancyBounds,
      "MSHR entries in use after each miss allocation");
  std::uint64_t& pl_decrements = t.GetCounter(
      "cache", "pl_decrements",
      "protected-life decrements applied by set-query decay");
  std::uint64_t& pd_recomputes = t.GetCounter(
      "cache", "pd_recomputes",
      "PDPT end-of-window protection-distance recomputations");
  std::uint64_t& vta_hits = t.GetCounter(
      "cache", "vta_hits", "victim-tag-array hits credited on load misses");
  for (const SmCore& core : cores_) {
    const L1DCache& l1d = core.l1d();
    accesses += l1d.stats().accesses;
    fills += l1d.stats().fills;
    mshr.Merge(l1d.mshr_occupancy());
    if (const ProtectionStats* p = l1d.policy().protection_stats()) {
      pl_decrements += p->pl_decrements;
      pd_recomputes += p->pd_recomputes;
      vta_hits += p->vta_hits;
    }
  }
  t.GetCounter("icnt", "packets_delivered",
               "packets landed in a delivery queue") = icnt_.packets_delivered;
  std::uint64_t& dram_reads =
      t.GetCounter("mem", "dram_reads", "DRAM read commands issued");
  std::uint64_t& dram_writes =
      t.GetCounter("mem", "dram_writes", "DRAM write commands issued");
  std::uint64_t& served =
      t.GetCounter("mem", "requests_served",
                   "read replies injected back into the interconnect");
  for (const MemoryPartition& p : partitions_) {
    dram_reads += p.dram().reads;
    dram_writes += p.dram().writes;
    served += p.requests_served;
  }
  return t;
}

}  // namespace dlpsim
