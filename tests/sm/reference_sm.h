// Naive reference copies of the original SM front end, for lockstep
// differential tests: the per-lane coalescer (one AccessPattern address
// per lane, a fresh vector per instruction), the full-scan GTO/LRR warp
// picker, and the warp-walking drain checks. Lives in tests/ only.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/types.h"
#include "sm/ldst_unit.h"
#include "sm/scheduler.h"
#include "sm/warp.h"
#include "sm/warp_mask.h"
#include "workloads/patterns.h"

namespace dlpsim::reference {

inline std::vector<Addr> RefTransactions(const AccessPattern& pattern,
                                         std::uint64_t warp,
                                         std::uint64_t iter,
                                         std::uint32_t warp_size,
                                         std::uint32_t line_bytes) {
  std::vector<Addr> lines;
  for (std::uint32_t lane = 0; lane < warp_size; ++lane) {
    const Addr line =
        pattern.AddressFor(warp, iter, lane) / line_bytes * line_bytes;
    if (std::find(lines.begin(), lines.end(), line) == lines.end()) {
      lines.push_back(line);
    }
  }
  return lines;
}

class RefScheduler {
 public:
  RefScheduler(SchedulerKind kind, std::uint32_t index,
               std::uint32_t num_schedulers)
      : kind_(kind), index_(index), stride_(num_schedulers) {}

  std::uint32_t Pick(const std::vector<Warp>& warps, Cycle now) const {
    const std::uint32_t n = static_cast<std::uint32_t>(warps.size());

    if (kind_ == SchedulerKind::kGto) {
      if (last_ != kInvalidIndex && last_ < n && warps[last_].Issueable(now)) {
        return last_;
      }
      for (std::uint32_t w = index_; w < n; w += stride_) {
        if (warps[w].Issueable(now)) return w;
      }
      return kInvalidIndex;
    }

    const std::uint32_t owned = (n + stride_ - 1 - index_) / stride_;
    std::uint32_t start_slot = 0;
    if (last_ != kInvalidIndex && last_ % stride_ == index_) {
      start_slot = (last_ - index_) / stride_ + 1;
    }
    for (std::uint32_t k = 0; k < owned; ++k) {
      const std::uint32_t slot = (start_slot + k) % owned;
      const std::uint32_t w = index_ + slot * stride_;
      if (w < n && warps[w].Issueable(now)) return w;
    }
    return kInvalidIndex;
  }

  void OnIssued(std::uint32_t warp_index) { last_ = warp_index; }

 private:
  SchedulerKind kind_;
  std::uint32_t index_;
  std::uint32_t stride_;
  std::uint32_t last_ = kInvalidIndex;
};

inline bool RefFinished(const std::vector<Warp>& warps) {
  for (const Warp& w : warps) {
    if (!w.Finished()) return false;
  }
  return true;
}

inline bool RefDrained(const std::vector<Warp>& warps, const LdStUnit& ldst,
                       bool l1d_has_outgoing) {
  if (!RefFinished(warps) || !ldst.Idle() || l1d_has_outgoing) return false;
  for (const Warp& w : warps) {
    if (!w.Quiescent()) return false;
  }
  return true;
}

/// The finished and kWaitMem masks re-derived by a walk of `warps`.
struct WalkedMasks {
  WarpMask finished;
  WarpMask wait_mem;
};

inline WalkedMasks WalkMasks(const std::vector<Warp>& warps) {
  const auto n = static_cast<std::uint32_t>(warps.size());
  WalkedMasks m{WarpMask(n), WarpMask(n)};
  for (std::uint32_t w = 0; w < n; ++w) {
    if (warps[w].Finished()) m.finished.Set(w);
    if (!warps[w].Quiescent()) m.wait_mem.Set(w);
  }
  return m;
}

}  // namespace dlpsim::reference
