// Miss Status Holding Register table with request merging.
//
// One entry tracks one in-flight line; later misses to the same line merge
// into the entry (up to mshr_max_merged targets) instead of generating new
// interconnect traffic. A full table or an unmergeable entry is one of the
// reservation-failure stall reasons in the L1D pipeline.
//
// Storage is sized once at construction: live entries are kept dense in
// [0, size()) and looked up by a scan (the table holds a few dozen
// entries), and each entry's targets live in a fixed-size slot of one
// token array. Allocating, merging and retiring never touch the heap.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/types.h"

namespace dlpsim {

/// Opaque handle the requester attaches to a miss; returned on fill so the
/// SM can wake the right warp/lane group.
using MshrToken = std::uint64_t;

class MshrTable {
 public:
  MshrTable(std::uint32_t entries, std::uint32_t max_merged);

  bool Full() const { return size_ >= capacity_; }
  bool HasEntry(Addr block) const { return Find(block) != kNone; }

  /// True iff `block` has an entry with room for another merged target.
  bool CanMerge(Addr block) const {
    const std::uint32_t i = Find(block);
    return i != kNone && entries_[i].count < max_merged_;
  }

  /// True iff a brand-new entry can be allocated.
  bool CanAllocate() const { return !Full(); }

  /// Allocates a new entry for `block`. Pre: !HasEntry(block), !Full().
  void Allocate(Addr block, MshrToken token);

  /// Merges into the existing entry. Pre: CanMerge(block).
  void Merge(Addr block, MshrToken token);

  /// Retires the entry on fill, returning all merged tokens in merge
  /// order (empty when `block` has no entry). The view stays valid until
  /// the next Allocate().
  std::span<const MshrToken> Retire(Addr block);

  std::size_t size() const { return size_; }
  std::uint32_t capacity() const { return capacity_; }

  /// Number of targets currently merged for `block` (0 if absent).
  std::size_t TargetCount(Addr block) const {
    const std::uint32_t i = Find(block);
    return i == kNone ? 0 : entries_[i].count;
  }

  /// All blocks with in-flight entries, in ascending address order. Used
  /// by the invariant checker (robust/) to cross-check the MSHR against
  /// the tag array's RESERVED lines; sorted so any consumer that prints
  /// or compares the list stays deterministic.
  std::vector<Addr> Blocks() const {
    std::vector<Addr> out;
    out.reserve(size_);
    for (std::uint32_t i = 0; i < size_; ++i) out.push_back(entries_[i].block);
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  static constexpr std::uint32_t kNone = ~0u;

  /// Dense index of `block`'s live entry, or kNone.
  std::uint32_t Find(Addr block) const {
    for (std::uint32_t i = 0; i < size_; ++i) {
      if (entries_[i].block == block) return i;
    }
    return kNone;
  }

  std::uint32_t capacity_;
  std::uint32_t max_merged_;
  std::uint32_t slot_tokens_;  // max(1, max_merged): Allocate always fits
  std::uint32_t size_ = 0;
  struct Entry {
    Addr block = 0;
    std::uint32_t count = 0;  // merged targets
    std::uint32_t slot = 0;   // token slot in tokens_
  };
  // Live entries in [0, size_); the entries past them hold the free
  // token slots.
  std::vector<Entry> entries_;
  // capacity_ * slot_tokens_, written before it is read: left
  // uninitialized so that building a cache does not clear it.
  std::unique_ptr<MshrToken[]> tokens_;
};

}  // namespace dlpsim
