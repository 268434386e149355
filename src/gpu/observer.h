// The one way to watch a running GpuSimulator from its clock loop. An
// observer names the next core cycle it needs; on that core edge the
// simulator calls it before and after the cores tick, and once more when
// Run() ends. Observers are attached with GpuSimulator::Attach and called
// in attach order. Only the fault injector writes to the machine, and it
// does so before the cores tick, so that "a fault at cycle X" is visible
// to cycle X's accesses; every other observer leaves results identical.
#pragma once

#include "gpu/metrics.h"
#include "sim/types.h"

namespace dlpsim {

class GpuSimulator;

class SimObserver {
 public:
  /// next_due() of an observer that needs no further callback.
  static constexpr Cycle kNever = ~Cycle{0};

  virtual ~SimObserver() = default;

  /// The next core cycle this observer needs, or kNever. Both edge
  /// callbacks run on every core edge at or after it, so an observer
  /// moves it forward from inside one of them.
  virtual Cycle next_due() const = 0;

  /// Core clock edge `now`, before and after the cores tick.
  virtual void BeforeCores(GpuSimulator& /*gpu*/, Cycle /*now*/) {}
  virtual void AfterCores(GpuSimulator& /*gpu*/, Cycle /*now*/) {}

  /// Run() is returning `final` (completed already set); called whether
  /// or not the observer was ever due.
  virtual void OnRunEnd(const GpuSimulator& /*gpu*/,
                        const Metrics& /*final*/) {}
};

}  // namespace dlpsim
