// Whole-GPU wiring: 16 SM cores + crossbar + 12 memory partitions, driven
// by the three clock domains of Table 1 (core/icnt 650 MHz, mem 924 MHz).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/observer.h"
#include "gpu/metrics.h"
#include "gpu/observer.h"
#include "icnt/crossbar.h"
#include "mem/partition.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "robust/error.h"
#include "sim/clock.h"
#include "sim/config.h"
#include "sm/sm_core.h"
#include "workloads/program.h"

namespace dlpsim {

class EventSink;

namespace robust {
class InvariantChecker;
}  // namespace robust

class GpuSimulator {
 public:
  /// Launches `warps_per_sm` warps of `program` on every core. The program
  /// must outlive the simulator. Throws ConfigError when `cfg` fails
  /// SimConfig::Validate(), or when `warps_per_sm` is 0 or above
  /// cfg.core.max_warps -- before any subsystem is built, so a bad
  /// configuration can never reach UB inside the tag arrays.
  GpuSimulator(const SimConfig& cfg, const Program* program,
               std::uint32_t warps_per_sm,
               SchedulerKind sched = SchedulerKind::kGto);
  ~GpuSimulator();  // out of line: unique_ptr to fwd-declared checker

  /// Attaches a clock-loop observer (fault injector, timeline, progress
  /// meter, invariant checker, watchdog, ...). Observers are called in
  /// attach order and must outlive the runs. When DLPSIM_CHECK asks for
  /// it, the constructor has already attached an owned checker.
  void Attach(SimObserver* observer);

  /// Attaches one observer to every SM's L1D. NOTE: reuse-distance
  /// profiling must use one observer per SM (see analysis/per_sm_profiler.h)
  /// or per-set counters interleave across cores; a shared observer is
  /// only appropriate for aggregate counting.
  void AttachObserver(AccessObserver* observer);

  /// Attaches one event sink to every SM's L1D (and its policy),
  /// tagging each core's events with its SM id. Events are purely
  /// observational: attaching a sink never changes simulation results.
  /// Pass nullptr to detach. The sink must outlive the simulator runs.
  void SetEventSink(EventSink* sink);

  /// Aggregated protection state across every SM's L1D right now.
  PolicySnapshot SnapshotPolicy() const;

  /// Runs until every core drains (or the max_core_cycles cap) and
  /// returns aggregated metrics.
  Metrics Run();

  /// Single-step variants for tests.
  void Step();          // one clock-domain event
  bool Done() const;    // all cores drained, network and memory idle

  Metrics Collect() const;

  /// This run's mechanism counters as a metrics table, read from the
  /// components' own counters and summed over SMs and partitions:
  /// cache.{accesses, fills, mshr_occupancy, pl_decrements, pd_recomputes,
  /// vta_hits}, icnt.packets_delivered and mem.{dram_reads, dram_writes,
  /// requests_served}. Every entry is present whatever the policy.
  obs::Registry CounterTable() const;

  /// Ends Run() before its next step with `error`: an observer's verdict,
  /// such as a watchdog trip.
  void Stop(robust::RunError error) { run_error_ = error; }

  /// Why the last Run() stopped (kNone while running / after a clean
  /// drain; kCycleBudget when max_core_cycles expired; otherwise the
  /// error an observer passed to Stop()).
  robust::RunError run_error() const { return run_error_; }

  /// Monotone count of completed architectural work: committed and issued
  /// instructions, cache fills/bypasses/stores, delivered packets, served
  /// memory requests. Constant across cycles exactly when the machine
  /// made no forward progress (retried reservation failures and burned
  /// issue slots do NOT count). The watchdog's progress signature.
  std::uint64_t ProgressCount() const;

  std::vector<SmCore>& cores() { return cores_; }
  const std::vector<SmCore>& cores() const { return cores_; }
  Crossbar& icnt() { return icnt_; }
  const Crossbar& icnt() const { return icnt_; }
  std::vector<MemoryPartition>& partitions() { return partitions_; }
  const std::vector<MemoryPartition>& partitions() const {
    return partitions_;
  }
  Cycle core_cycles() const { return clocks_.cycles(core_domain_); }

 private:
  SimConfig cfg_;
  std::vector<SmCore> cores_;
  Crossbar icnt_;
  std::vector<MemoryPartition> partitions_;
  // Sticky per-core "TickCore is a no-op forever" flags (SmCore::
  // Inactive). Once every core is inactive the stepper fast-forwards the
  // core domain -- only icnt/mem still need draining -- and Done() skips
  // their drain checks. Results are bit-identical either way.
  std::vector<std::uint8_t> core_inactive_;
  std::uint32_t num_inactive_ = 0;
  ClockDomainSet clocks_;
  std::uint32_t core_domain_ = 0;
  std::uint32_t icnt_domain_ = 0;
  std::uint32_t mem_domain_ = 0;
  std::vector<SimObserver*> observers_;
  std::unique_ptr<robust::InvariantChecker> owned_checker_;  // env-enabled
  robust::RunError run_error_ = robust::RunError::kNone;
};

}  // namespace dlpsim
