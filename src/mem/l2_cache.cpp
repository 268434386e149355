#include "mem/l2_cache.h"

#include <algorithm>
#include <cassert>

namespace dlpsim {

L2Cache::L2Cache(const L2Config& cfg) : cfg_(cfg), tags_(cfg.geom) {
  pending_blocks_.reserve(cfg.mshr_entries);
  pending_waiters_.reserve(cfg.mshr_entries);
  filled_.reserve(cfg.mshr_max_merged);
}

std::size_t L2Cache::FindPending(Addr block) const {
  return static_cast<std::size_t>(
      std::find(pending_blocks_.begin(), pending_blocks_.end(), block) -
      pending_blocks_.begin());
}

void L2Cache::AddWaiter(std::size_t entry, const IcntPacket& waiter) {
  std::uint32_t node = free_waiter_;
  if (node == kNoWaiter) {
    node = static_cast<std::uint32_t>(waiter_pool_.size());
    waiter_pool_.emplace_back();
  } else {
    free_waiter_ = waiter_pool_[node].next;
  }
  waiter_pool_[node] = WaiterNode{waiter, kNoWaiter};
  Waiters& list = pending_waiters_[entry];
  if (list.count == 0) {
    list.head = node;
  } else {
    waiter_pool_[list.tail].next = node;
  }
  list.tail = node;
  ++list.count;
}

L2Cache::Result L2Cache::AccessRead(Addr block, const IcntPacket& waiter) {
  const std::uint32_t set = tags_.SetOfBlock(block);
  const std::uint32_t way = tags_.Probe(set, block);

  if (way != kInvalidIndex && IsFilled(tags_.At(set, way).state)) {
    ++stats_.accesses;
    ++stats_.loads;
    ++stats_.load_hits;
    tags_.Touch(set, way);
    return Result::kHit;
  }

  // In flight already? Merge (bounded by the per-entry merge limit).
  const std::size_t entry = FindPending(block);
  if (entry < pending_blocks_.size()) {
    if (pending_waiters_[entry].count >= cfg_.mshr_max_merged) {
      ++stats_.reservation_fails;
      return Result::kStall;
    }
    ++stats_.accesses;
    ++stats_.loads;
    ++stats_.load_misses;
    ++stats_.mshr_merges;
    AddWaiter(entry, waiter);
    return Result::kMissMerged;
  }

  if (pending_blocks_.size() >= cfg_.mshr_entries) {
    ++stats_.reservation_fails;
    return Result::kStall;
  }

  ++stats_.accesses;
  ++stats_.loads;
  ++stats_.load_misses;
  ++stats_.misses_issued;
  pending_blocks_.push_back(block);
  pending_waiters_.emplace_back();
  AddWaiter(pending_blocks_.size() - 1, waiter);
  return Result::kMissIssued;
}

L2Cache::Result L2Cache::AccessWrite(Addr block) {
  ++stats_.accesses;
  ++stats_.stores;
  const std::uint32_t set = tags_.SetOfBlock(block);
  const std::uint32_t way = tags_.Probe(set, block);
  if (way != kInvalidIndex && IsFilled(tags_.At(set, way).state)) {
    ++stats_.store_hits;
    tags_.At(set, way).state = LineState::kModified;
    tags_.Touch(set, way);
    return Result::kHit;
  }
  // Write no-allocate: forward to DRAM.
  return Result::kMissIssued;
}

const std::vector<IcntPacket>& L2Cache::Fill(Addr block) {
  const std::size_t entry = FindPending(block);
  assert(entry < pending_blocks_.size() && "L2 fill without a pending fetch");
  // Hand out the waiters in arrival order and free their nodes.
  filled_.clear();
  for (std::uint32_t node = pending_waiters_[entry].head;
       node != kNoWaiter;) {
    WaiterNode& n = waiter_pool_[node];
    filled_.push_back(n.pkt);
    const std::uint32_t next = n.next;
    n.next = free_waiter_;
    free_waiter_ = node;
    node = next;
  }
  pending_blocks_[entry] = pending_blocks_.back();
  pending_blocks_.pop_back();
  pending_waiters_[entry] = pending_waiters_.back();
  pending_waiters_.pop_back();
  ++stats_.fills;

  // Allocate on fill: displace the LRU line (never RESERVED under this
  // policy, so a victim always exists).
  const std::uint32_t set = tags_.SetOfBlock(block);
  if (tags_.Probe(set, block) == kInvalidIndex) {
    const std::uint32_t way =
        tags_.LruWayWhere(set, [](const CacheLine&) { return true; });
    assert(way != kInvalidIndex);
    const CacheLine previous = tags_.Reserve(set, way, block, 0);
    tags_.Fill(set, block);
    if (IsFilled(previous.state)) {
      ++stats_.evictions;
      if (previous.state == LineState::kModified) {
        ++stats_.writebacks;
        writebacks_.push_back(previous.block);
      }
    }
  }
  return filled_;
}

const std::vector<Addr>& L2Cache::TakeWritebacks() {
  taken_.clear();
  taken_.swap(writebacks_);
  return taken_;
}

}  // namespace dlpsim
