// Warp schedulers. The baseline configuration (Table 1) uses two GTO
// (Greedy-Then-Oldest) schedulers per SM; LRR (loose round robin) is
// provided for ablations. Each scheduler owns the warps whose id is
// congruent to its index modulo the scheduler count (GPGPU-Sim's split).
//
// Picking visits only candidate warps: the set bits of the owned mask
// minus the SM's finished and kWaitMem masks. Each candidate is still
// asked Warp::Issueable(now), which rejects warps whose SFU latency has
// not elapsed.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/types.h"
#include "sm/warp.h"
#include "sm/warp_mask.h"

namespace dlpsim {

enum class SchedulerKind : std::uint8_t { kGto, kLrr };

class WarpScheduler {
 public:
  /// Scheduler `index` of `num_schedulers` on an SM with `num_warps` warps.
  WarpScheduler(SchedulerKind kind, std::uint32_t index,
                std::uint32_t num_schedulers, std::uint32_t num_warps);

  /// Picks the warp to issue from this cycle, or kInvalidIndex. GTO: keep
  /// the last-issued warp while it stays issueable, else the oldest
  /// (lowest id) issueable warp. LRR: rotate from the warp after the last
  /// issued one. `finished` and `wait_mem` mark the warps that have
  /// retired their program and the warps in Warp::State::kWaitMem.
  std::uint32_t Pick(const std::vector<Warp>& warps, const WarpMask& finished,
                     const WarpMask& wait_mem, Cycle now) const {
    const auto n = static_cast<std::uint32_t>(warps.size());
    assert(n == owned_.size() && n == finished.size() && n == wait_mem.size());

    if (kind_ == SchedulerKind::kGto) {
      // Greedy: stick with the last warp while it can issue.
      if (last_ != kInvalidIndex && last_ < n && warps[last_].Issueable(now)) {
        return last_;
      }
      // Then-oldest: lowest warp id owned by this scheduler.
      return FirstIssueable(warps, finished, wait_mem, now, 0, n);
    }

    // LRR: start at the owned slot after the last issued warp, wrap
    // around once.
    if (owned_count_ == 0) return kInvalidIndex;
    std::uint32_t start = index_;
    if (last_ != kInvalidIndex && Owns(last_)) {
      start += ((last_ - index_) / stride_ + 1) % owned_count_ * stride_;
    }
    const std::uint32_t w =
        FirstIssueable(warps, finished, wait_mem, now, start, n);
    if (w != kInvalidIndex) return w;
    return FirstIssueable(warps, finished, wait_mem, now, 0, start);
  }

  /// Informs the scheduler what was issued (updates greedy/rotation state).
  void OnIssued(std::uint32_t warp_index) { last_ = warp_index; }

  SchedulerKind kind() const { return kind_; }

 private:
  bool Owns(std::uint32_t warp_index) const {
    return warp_index % stride_ == index_;
  }

  /// Lowest issueable candidate in [from, to), or kInvalidIndex.
  std::uint32_t FirstIssueable(const std::vector<Warp>& warps,
                               const WarpMask& finished,
                               const WarpMask& wait_mem, Cycle now,
                               std::uint32_t from, std::uint32_t to) const {
    for (std::size_t i = from / 64; i * 64 < to; ++i) {
      std::uint64_t candidates =
          owned_.word(i) & ~finished.word(i) & ~wait_mem.word(i);
      if (i == from / 64) candidates &= ~std::uint64_t{0} << (from % 64);
      while (candidates != 0) {
        const auto w = static_cast<std::uint32_t>(
            i * 64 + static_cast<std::uint32_t>(std::countr_zero(candidates)));
        if (w >= to) return kInvalidIndex;
        if (warps[w].Issueable(now)) return w;
        candidates &= candidates - 1;
      }
    }
    return kInvalidIndex;
  }

  SchedulerKind kind_;
  std::uint32_t index_;
  std::uint32_t stride_;
  std::uint32_t owned_count_ = 0;
  WarpMask owned_;
  std::uint32_t last_ = kInvalidIndex;
};

}  // namespace dlpsim
