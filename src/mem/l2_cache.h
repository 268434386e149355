// One L2 slice (per memory partition): set-associative, LRU, write-back,
// allocate-on-fill, with MSHR-style merging of concurrent read misses.
//
// Unlike the L1D (allocate-on-miss, the paper's contention point), the L2
// allocates lines when the DRAM fill returns. This means a slice never
// holds RESERVED lines, so its sets cannot be exhausted by in-flight
// fetches -- only the MSHR bounds memory-level parallelism. The L2 slices
// reuse the generic TagArray substrate; they are not managed by DLP (the
// paper modifies only the L1D).
#pragma once

#include <cstdint>
#include <vector>

#include "cache/stats.h"
#include "cache/tag_array.h"
#include "icnt/crossbar.h"
#include "sim/config.h"
#include "sim/types.h"

namespace dlpsim {

class L2Cache {
 public:
  explicit L2Cache(const L2Config& cfg);

  enum class Result : std::uint8_t {
    kHit,         // reply can be scheduled after cfg.latency
    kMissIssued,  // caller must fetch from DRAM
    kMissMerged,  // already being fetched; reply joins the entry
    kStall,       // MSHR full / merge limit; retry next cycle
  };

  /// A read for `block` on behalf of `waiter` (the original core packet).
  Result AccessRead(Addr block, const IcntPacket& waiter);

  /// A write of `block` (write-through from L1 or L1 writeback).
  /// Returns kHit when absorbed by the slice (line dirtied), kMissIssued
  /// when it must be forwarded to DRAM (no-allocate).
  Result AccessWrite(Addr block);

  /// DRAM returned `block`: allocate the line (possibly displacing a
  /// dirty victim -> TakeWritebacks) and collect all merged waiters, in
  /// arrival order. The returned buffer is reused: it stays valid until
  /// the next Fill.
  const std::vector<IcntPacket>& Fill(Addr block);

  /// Dirty lines displaced since the last call (the partition turns them
  /// into DRAM writes). The returned buffer is reused: it stays valid
  /// until the next TakeWritebacks.
  const std::vector<Addr>& TakeWritebacks();

  const CacheStats& stats() const { return stats_; }
  std::size_t pending_fetches() const { return pending_blocks_.size(); }
  const TagArray& tags() const { return tags_; }
  const L2Config& config() const { return cfg_; }

 private:
  /// Index of `block`'s MSHR entry, or pending_blocks_.size() if none.
  std::size_t FindPending(Addr block) const;
  /// Appends `waiter` to MSHR entry `entry`'s list.
  void AddWaiter(std::size_t entry, const IcntPacket& waiter);

  static constexpr std::uint32_t kNoWaiter = ~0u;

  struct Waiters {  // one MSHR entry's list, linked through waiter_pool_
    std::uint32_t head = kNoWaiter;
    std::uint32_t tail = kNoWaiter;
    std::uint32_t count = 0;
  };
  struct WaiterNode {
    IcntPacket pkt;
    std::uint32_t next = kNoWaiter;
  };

  L2Config cfg_;
  TagArray tags_;
  // MSHR: entry i fetches pending_blocks_[i] for the requests listed in
  // pending_waiters_[i]. The entries are dense (a fill moves the last one
  // into the hole) and the block column is scanned linearly. Waiters live
  // in one node pool with a free list, so a warmed slice allocates
  // nothing per miss or fill.
  std::vector<Addr> pending_blocks_;
  std::vector<Waiters> pending_waiters_;
  std::vector<WaiterNode> waiter_pool_;
  std::uint32_t free_waiter_ = kNoWaiter;  // free-list head in the pool
  std::vector<IcntPacket> filled_;  // Fill's reused result buffer
  std::vector<Addr> writebacks_;
  std::vector<Addr> taken_;  // TakeWritebacks' reused result buffer
  CacheStats stats_;
};

}  // namespace dlpsim
