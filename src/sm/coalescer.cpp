#include "sm/coalescer.h"

#include <algorithm>
#include <cassert>

namespace dlpsim {

namespace {

// Appends the line of `addr` unless an earlier lane already touched it.
void AddLane(Addr addr, std::uint32_t line_bytes, std::vector<Addr>& lines) {
  const Addr line = addr / line_bytes * line_bytes;
  if (std::find(lines.begin(), lines.end(), line) == lines.end()) {
    lines.push_back(line);
  }
}

}  // namespace

void Coalescer::Transactions(const AccessPattern& pattern, std::uint64_t warp,
                             std::uint64_t iter,
                             std::vector<Addr>& lines) const {
  lines.clear();
  const std::uint32_t lanes_per_group = pattern.lanes_per_line();
  assert(lanes_per_group > 0);
  std::uint32_t group = 0;
  for (std::uint32_t first = 0; first < warp_size_;
       first += lanes_per_group, ++group) {
    const std::uint32_t lanes =
        std::min(lanes_per_group, warp_size_ - first);
    const Addr lane0 = pattern.GroupAddress(warp, iter, group);
    const Addr last = lane0 + Addr{lanes - 1} * kWordBytes;
    if (lane0 / line_bytes_ == last / line_bytes_) {
      AddLane(lane0, line_bytes_, lines);
      continue;
    }
    for (std::uint32_t k = 0; k < lanes; ++k) {
      AddLane(lane0 + Addr{k} * kWordBytes, line_bytes_, lines);
    }
  }
}

void Coalescer::TransactionsFromLanes(const std::vector<Addr>& lane_addrs,
                                      std::vector<Addr>& lines) const {
  lines.clear();
  for (Addr a : lane_addrs) AddLane(a, line_bytes_, lines);
}

}  // namespace dlpsim
