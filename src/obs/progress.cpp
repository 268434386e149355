#include "obs/progress.h"

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "gpu/simulator.h"

namespace dlpsim::obs {

ProgressMeter::ProgressMeter(std::uint64_t interval_cycles,
                             std::string label, std::ostream* os)
    : interval_(std::max<std::uint64_t>(1, interval_cycles)),
      next_(std::max<std::uint64_t>(1, interval_cycles)),
      label_(std::move(label)),
      os_(os != nullptr ? os : &std::cerr) {}

void ProgressMeter::AfterCores(GpuSimulator& gpu, Cycle now) {
  ProgressSample sample;
  sample.cycle = now;
  for (const SmCore& core : gpu.cores()) {
    sample.accesses += core.l1d().stats().accesses;
    for (const Warp& w : core.warps()) {
      ++sample.warps_total;
      if (w.Finished()) ++sample.warps_finished;
    }
  }
  Emit(sample);
}

void ProgressMeter::Emit(const ProgressSample& sample) {
  const double elapsed = clock_.Seconds();
  const double rate =
      elapsed > 0.0 ? static_cast<double>(sample.accesses) / elapsed : 0.0;
  std::string line = "[progress]";
  if (!label_.empty()) {
    line += ' ';
    line += label_;
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                " cycle=%llu acc/s=%.0f warps=%llu/%llu",
                static_cast<unsigned long long>(sample.cycle), rate,
                static_cast<unsigned long long>(sample.warps_finished),
                static_cast<unsigned long long>(sample.warps_total));
  line += buf;
  if (sample.warps_total > 0 && sample.warps_finished > 0 &&
      sample.warps_finished < sample.warps_total) {
    const double f = static_cast<double>(sample.warps_finished) /
                     static_cast<double>(sample.warps_total);
    std::snprintf(buf, sizeof(buf), " eta=%.1fs", elapsed * (1.0 - f) / f);
    line += buf;
  }
  (*os_) << line << '\n';
  os_->flush();
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_line_ = std::move(line);
  }
  // Next due point strictly after this sample's cycle, on the grid.
  while (next_ <= sample.cycle) next_ += interval_;
}

std::string ProgressMeter::last_line() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_line_;
}

}  // namespace dlpsim::obs
