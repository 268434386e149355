#include "sim/ring_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>

#include "sim/rng.h"

namespace dlpsim {
namespace {

TEST(RingQueue, FifoOrderAcrossWrapAndGrowth) {
  // Random pushes and pops against std::deque: the head wraps around the
  // storage many times, and storage grows while the contents are wrapped.
  RingQueue<std::uint64_t> ring(2);
  std::deque<std::uint64_t> ref;
  Rng rng(5);
  std::uint64_t next = 0;
  for (int step = 0; step < 20000; ++step) {
    // Phases that mostly push, then mostly pop, so the size swings.
    const bool push_phase = (step / 1000) % 2 == 0;
    if (rng.Below(4) < (push_phase ? 3u : 1u)) {
      ring.push_back(next);
      ref.push_back(next);
      ++next;
    } else if (!ref.empty()) {
      const std::size_t n = 1 + rng.Below(ref.size() < 3 ? ref.size() : 3);
      ring.pop_front(n);
      ref.erase(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(n));
    }
    ASSERT_EQ(ring.size(), ref.size());
    ASSERT_EQ(ring.empty(), ref.empty());
    if (!ref.empty()) {
      ASSERT_EQ(ring.front(), ref.front());
      ASSERT_EQ(ring.back(), ref.back());
      const std::size_t i = rng.Below(ref.size());
      ASSERT_EQ(ring[i], ref[i]);
    }
  }
}

TEST(RingQueue, GrowsWhileWrapped) {
  RingQueue<int> ring(4);
  for (int v = 0; v < 4; ++v) ring.push_back(v);
  ring.pop_front(2);  // 2 3, head in the middle of the storage
  ring.push_back(4);  // 4 and 5 wrap to the start of the storage
  ring.push_back(5);
  ring[1] = 30;       // 2 30 4 5
  ring.push_back(6);  // full: storage doubles and is unrolled
  const int want[] = {2, 30, 4, 5, 6};
  ASSERT_EQ(ring.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(ring[i], want[i]);
}

}  // namespace
}  // namespace dlpsim
