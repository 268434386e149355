// Memory-access coalescer: folds the 32 per-lane addresses of one warp
// memory instruction into the minimal set of line transactions, in lane
// order (GPGPU-Sim generates one transaction per distinct 128B segment).
//
// AccessPattern puts each group of lanes_per_line() lanes on consecutive
// words of one pattern line, so the coalescer works a lane group at a
// time: a group whose first and last lane fall in the same cache line
// adds that line once; only a group that straddles a line boundary
// (unaligned base, a line size other than the pattern's, a partial last
// group) is folded lane by lane. The result is the per-lane first-touch
// order either way.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.h"
#include "workloads/patterns.h"

namespace dlpsim {

class Coalescer {
 public:
  explicit Coalescer(std::uint32_t warp_size, std::uint32_t line_bytes)
      : warp_size_(warp_size), line_bytes_(line_bytes) {}

  /// Replaces `lines` with the distinct line-aligned addresses touched by
  /// lanes [0, warp_size) of `pattern` at (warp, iter), in order of first
  /// touch. Reuses the capacity of `lines`.
  void Transactions(const AccessPattern& pattern, std::uint64_t warp,
                    std::uint64_t iter, std::vector<Addr>& lines) const;

  /// Same, from raw lane addresses (unit tests / custom generators).
  void TransactionsFromLanes(const std::vector<Addr>& lane_addrs,
                             std::vector<Addr>& lines) const;

 private:
  std::uint32_t warp_size_;
  std::uint32_t line_bytes_;
};

}  // namespace dlpsim
