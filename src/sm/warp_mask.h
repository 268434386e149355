// One bit per warp of an SM, in as many 64-bit words as the warp count
// needs. SmCore keeps two of these in lockstep with its warps (finished,
// and blocked in kWaitMem) so that warp picking scans only candidate
// warps and the drain checks are word compares instead of warp walks.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace dlpsim {

class WarpMask {
 public:
  WarpMask() = default;
  explicit WarpMask(std::uint32_t bits)
      : rest_(bits > 64 ? (bits - 1) / 64 : 0, 0), bits_(bits) {}

  std::uint32_t size() const { return bits_; }
  std::uint64_t word(std::size_t i) const {
    return i == 0 ? first_ : rest_[i - 1];
  }

  bool Test(std::uint32_t i) const {
    assert(i < bits_);
    return (word(i / 64) >> (i % 64) & 1) != 0;
  }
  void Set(std::uint32_t i) {
    assert(i < bits_);
    Word(i / 64) |= std::uint64_t{1} << (i % 64);
  }
  void Reset(std::uint32_t i) {
    assert(i < bits_);
    Word(i / 64) &= ~(std::uint64_t{1} << (i % 64));
  }

  /// No bit set.
  bool None() const {
    if (first_ != 0) return false;
    for (std::uint64_t w : rest_) {
      if (w != 0) return false;
    }
    return true;
  }

  /// Every one of the size() bits set.
  bool All() const {
    const std::size_t full = bits_ / 64;
    for (std::size_t i = 0; i < full; ++i) {
      if (word(i) != ~std::uint64_t{0}) return false;
    }
    const std::uint32_t tail = bits_ % 64;
    return tail == 0 || word(full) == (std::uint64_t{1} << tail) - 1;
  }

  bool operator==(const WarpMask&) const = default;

 private:
  std::uint64_t& Word(std::size_t i) { return i == 0 ? first_ : rest_[i - 1]; }

  // Warps 0-63 live inline, so SMs of up to 64 warps never allocate a
  // mask; the words for later warps follow on the heap.
  std::uint64_t first_ = 0;
  std::vector<std::uint64_t> rest_;
  std::uint32_t bits_ = 0;
};

}  // namespace dlpsim
