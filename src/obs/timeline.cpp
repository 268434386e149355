#include "obs/timeline.h"

#include <algorithm>

#include "gpu/simulator.h"

namespace dlpsim {

TimelineSampler::TimelineSampler(Cycle interval)
    : interval_(std::max<Cycle>(interval, 1)), next_(interval_) {}

void TimelineSampler::Record(Cycle now, const Metrics& cumulative,
                             const PolicySnapshot& snapshot) {
  TimelineSample s;
  s.cycle = now;
  s.cumulative = cumulative;
  s.policy = snapshot;
  for (const MetricsField& f : MetricsFields()) {
    s.delta.*(f.member) = cumulative.*(f.member) - last_.*(f.member);
  }
  last_ = cumulative;
  samples_.push_back(std::move(s));
  // Fixed grid (not now + interval) so a late sample does not shift
  // every following one.
  while (next_ <= now) next_ += interval_;
}

void TimelineSampler::AfterCores(GpuSimulator& gpu, Cycle now) {
  Record(now, gpu.Collect(), gpu.SnapshotPolicy());
}

void TimelineSampler::OnRunEnd(const GpuSimulator& gpu, const Metrics& final) {
  const Cycle now = final.core_cycles;
  if (!samples_.empty() && samples_.back().cycle == now) {
    // The run drained on a sampling instant: replace that sample rather
    // than add a second row at the same cycle.
    samples_.pop_back();
    last_ = samples_.empty() ? Metrics{} : samples_.back().cumulative;
  }
  Record(now, final, gpu.SnapshotPolicy());
}

void TimelineSampler::Clear() {
  samples_.clear();
  last_ = Metrics{};
  next_ = interval_;
}

}  // namespace dlpsim
