// Machine-speed reference for the end-to-end timings.
//
// On a shared machine the host speed of this single-threaded simulator
// drifts by tens of percent over minutes (neighbours contend for the
// caches and memory), which is more than any regression worth catching.
// The benchmark therefore times this fixed kernel -- a random
// read-modify-write walk over a 2 MiB table, close to the simulator's
// own mix of cache misses and data-dependent branches -- between cells,
// and reports each end-to-end time scaled to a machine on which the
// kernel takes exactly kNominalNsPerIteration per iteration:
//
//     reported seconds = measured seconds * kNominalNsPerIteration
//                                         / measured ns per iteration
//
// The kernel is part of the benchmark, not of the simulator, so a change
// to the simulator moves the reported numbers by exactly its own effect.
// Runs print the unscaled figures and the measured speed too.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Reference speed of a quiet 4-vCPU Xeon VM, where the benchmark was
/// defined; only sets the scale of the reported numbers.
inline constexpr double kNominalNsPerIteration = 11.0;

class SpeedReference {
 public:
  SpeedReference();

  /// Runs the kernel twice (about a millisecond each) and returns host
  /// nanoseconds per iteration of the second run.
  double Measure();

 private:
  void Walk();

  std::vector<std::uint64_t> table_;
  std::uint64_t state_ = 0x9e3779b97f4a7c15ull;
  std::uint64_t sum_ = 0;
};

}  // namespace perfbench
