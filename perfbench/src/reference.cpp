#include "reference.h"

#include "spans.h"

namespace perfbench {

namespace {
constexpr std::size_t kTableWords = (2u << 20) / sizeof(std::uint64_t);
constexpr int kIterations = 64 * 1024;
}  // namespace

SpeedReference::SpeedReference() : table_(kTableWords, 1) {}

void SpeedReference::Walk() {
  std::uint64_t x = state_;
  std::uint64_t sum = sum_;
  for (int i = 0; i < kIterations; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    std::uint64_t& e = table_[(x >> 20) & (kTableWords - 1)];
    if ((e & 1) != 0) {
      sum += e;
    } else {
      e += x;
    }
    e ^= sum;
  }
  state_ = x;
  sum_ = sum;  // kept, so the loop cannot be optimized away
}

double SpeedReference::Measure() {
  // The untimed first walk brings the table back into the caches, so the
  // timing does not depend on how much of it the last cell evicted.
  Walk();
  const std::int64_t start = NowNs();
  Walk();
  return static_cast<double>(NowNs() - start) / kIterations;
}

}  // namespace perfbench
