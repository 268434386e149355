// Typed run-termination causes for GpuSimulator::Run().
//
// A run normally ends with every warp drained (kNone). The resilience
// layer adds two abnormal-but-diagnosed endings: the forward-progress
// watchdog tripping (no architectural state change for its stall window)
// and the hard cycle budget (SimConfig::max_core_cycles) expiring before
// the machine drained. Both leave the simulator in a consistent,
// inspectable state instead of spinning or aborting.
#pragma once

#include <stdexcept>
#include <string>

namespace dlpsim::robust {

enum class RunError {
  kNone,           // drained normally
  kWatchdogStall,  // watchdog: no forward progress for stall_cycles
  kCycleBudget,    // max_core_cycles reached while !Done()
};

inline const char* ToString(RunError e) {
  switch (e) {
    case RunError::kNone:
      return "none";
    case RunError::kWatchdogStall:
      return "watchdog_stall";
    case RunError::kCycleBudget:
      return "cycle_budget";
  }
  return "?";
}

/// Exception carrying a typed RunError. The bench harness throws this on
/// watchdog trips so callers can tell a stalled run from other failures
/// without matching on the message.
class RunErrorException : public std::runtime_error {
 public:
  RunErrorException(RunError kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  RunError kind() const { return kind_; }

 private:
  RunError kind_;
};

}  // namespace dlpsim::robust
