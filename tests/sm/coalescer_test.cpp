#include "sm/coalescer.h"

#include <gtest/gtest.h>

#include "workloads/patterns.h"

namespace dlpsim {
namespace {

std::vector<Addr> Lines(const Coalescer& c, const AccessPattern& p,
                        std::uint64_t warp, std::uint64_t iter) {
  std::vector<Addr> lines;
  c.Transactions(p, warp, iter, lines);
  return lines;
}

std::vector<Addr> LinesFromLanes(const Coalescer& c,
                                 const std::vector<Addr>& lanes) {
  std::vector<Addr> lines;
  c.TransactionsFromLanes(lanes, lines);
  return lines;
}

TEST(Coalescer, FullyCoalescedWarpIsOneTransaction) {
  Coalescer c(32, 128);
  StreamingPattern p(0, /*lanes_per_line=*/32, 32, /*iters_hint=*/10);
  const auto lines = Lines(c, p, 0, 0);
  EXPECT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0] % 128, 0u);
}

TEST(Coalescer, LanesPerLineControlsTransactionCount) {
  Coalescer c(32, 128);
  for (std::uint32_t lanes : {32u, 16u, 8u, 4u, 2u, 1u}) {
    StreamingPattern p(0, lanes, 32, 10);
    EXPECT_EQ(Lines(c, p, 3, 7).size(), 32u / lanes)
        << "lanes_per_line=" << lanes;
  }
}

TEST(Coalescer, TransactionsAreLineAlignedAndUnique) {
  Coalescer c(32, 128);
  IndirectPattern p(0, 4, 32, 1000, 0.0, 42);
  const auto lines = Lines(c, p, 5, 9);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i] % 128, 0u);
    for (std::size_t j = i + 1; j < lines.size(); ++j) {
      EXPECT_NE(lines[i], lines[j]);
    }
  }
}

TEST(Coalescer, DuplicateLaneAddressesFold) {
  Coalescer c(32, 128);
  // All lanes to the same word.
  std::vector<Addr> lanes(32, 0x1000);
  EXPECT_EQ(LinesFromLanes(c, lanes).size(), 1u);
  // Two distinct lines interleaved across lanes.
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    lanes[i] = (i % 2 == 0) ? 0x1000 : 0x2000;
  }
  EXPECT_EQ(LinesFromLanes(c, lanes).size(), 2u);
}

TEST(Coalescer, FirstTouchOrderPreserved) {
  Coalescer c(32, 128);
  std::vector<Addr> lanes = {0x2000, 0x1000, 0x2040, 0x3000};
  const auto lines = LinesFromLanes(c, lanes);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], 0x2000u);
  EXPECT_EQ(lines[1], 0x1000u);
  EXPECT_EQ(lines[2], 0x3000u);
}

TEST(Coalescer, BroadcastSharedTileIsOneTransaction) {
  Coalescer c(32, 128);
  SharedTilePattern p(0, 32, 32, /*tile_lines=*/16, /*share_degree=*/0);
  // Two warps at the same iteration touch the same line.
  const auto a = Lines(c, p, 0, 3);
  const auto b = Lines(c, p, 17, 3);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0], b[0]);
}

}  // namespace
}  // namespace dlpsim
