// Lockstep differential: MemoryPartition (with its L2Cache and
// DramChannel) against naive reference copies of their original
// implementations: a hash-map MSHR with one waiter vector per entry, a
// single reply FIFO scanned and erased in the middle on every tick, and
// fresh result vectors per call. Each side drives its own crossbar with
// identical seeded traffic (reads, writes and background packets over a
// working set that produces L2 hits, misses, merges, MSHR stalls and
// dirty evictions) plus identical controller stalls. Replies delivered to
// the cores, Depths(), Idle() and every counter must agree on every tick.
// A planted-bug reference whose reply queue blocks behind a reply that is
// not ready yet must diverge.
#include <cassert>
#include <deque>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "icnt/crossbar.h"
#include "mem/partition.h"
#include "reference_dram.h"
#include "sim/rng.h"

namespace dlpsim {
namespace {

using reference::RefDram;

class RefL2 {
 public:
  explicit RefL2(const L2Config& cfg) : cfg_(cfg), tags_(cfg.geom) {}

  L2Cache::Result AccessRead(Addr block, const IcntPacket& waiter) {
    const std::uint32_t set = tags_.SetOfBlock(block);
    const std::uint32_t way = tags_.Probe(set, block);
    if (way != kInvalidIndex && IsFilled(tags_.At(set, way).state)) {
      ++stats_.accesses;
      ++stats_.loads;
      ++stats_.load_hits;
      tags_.Touch(set, way);
      return L2Cache::Result::kHit;
    }
    auto it = pending_.find(block);
    if (it != pending_.end()) {
      if (it->second.size() >= cfg_.mshr_max_merged) {
        ++stats_.reservation_fails;
        return L2Cache::Result::kStall;
      }
      ++stats_.accesses;
      ++stats_.loads;
      ++stats_.load_misses;
      ++stats_.mshr_merges;
      it->second.push_back(waiter);
      return L2Cache::Result::kMissMerged;
    }
    if (pending_.size() >= cfg_.mshr_entries) {
      ++stats_.reservation_fails;
      return L2Cache::Result::kStall;
    }
    ++stats_.accesses;
    ++stats_.loads;
    ++stats_.load_misses;
    ++stats_.misses_issued;
    pending_.emplace(block, std::vector<IcntPacket>{waiter});
    return L2Cache::Result::kMissIssued;
  }

  L2Cache::Result AccessWrite(Addr block) {
    ++stats_.accesses;
    ++stats_.stores;
    const std::uint32_t set = tags_.SetOfBlock(block);
    const std::uint32_t way = tags_.Probe(set, block);
    if (way != kInvalidIndex && IsFilled(tags_.At(set, way).state)) {
      ++stats_.store_hits;
      tags_.At(set, way).state = LineState::kModified;
      tags_.Touch(set, way);
      return L2Cache::Result::kHit;
    }
    return L2Cache::Result::kMissIssued;
  }

  std::vector<IcntPacket> Fill(Addr block) {
    auto it = pending_.find(block);
    assert(it != pending_.end());
    std::vector<IcntPacket> waiters = std::move(it->second);
    pending_.erase(it);
    ++stats_.fills;
    const std::uint32_t set = tags_.SetOfBlock(block);
    if (tags_.Probe(set, block) == kInvalidIndex) {
      const std::uint32_t way =
          tags_.LruWayWhere(set, [](const CacheLine&) { return true; });
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
    return waiters;
  }

  std::vector<Addr> TakeWritebacks() {
    std::vector<Addr> out;
    out.swap(writebacks_);
    return out;
  }

  const CacheStats& stats() const { return stats_; }
  std::size_t pending_fetches() const { return pending_.size(); }

 private:
  L2Config cfg_;
  TagArray tags_;
  std::unordered_map<Addr, std::vector<IcntPacket>> pending_;
  std::vector<Addr> writebacks_;
  CacheStats stats_;
};

class RefPartition {
 public:
  // planted_bug: replies leave strictly in FIFO order, so one that is not
  // ready yet blocks every reply behind it.
  RefPartition(const SimConfig& cfg, PartitionId id, bool planted_bug)
      : cfg_(cfg),
        id_(id),
        l2_(cfg.l2),
        dram_(cfg.dram, cfg.l2.geom.line_bytes, /*planted_bug=*/false),
        planted_bug_(planted_bug) {}

  void InjectStallFor(std::uint64_t cycles) { fault_stall_cycles_ += cycles; }

  void Tick(Cycle now, Crossbar& icnt) {
    if (fault_stall_cycles_ > 0) {
      --fault_stall_cycles_;
      return;
    }
    for (const DramChannel::Completion& done : dram_.Tick(now)) {
      if (done.write) continue;
      for (const IcntPacket& waiter : l2_.Fill(done.block)) {
        ScheduleReply(waiter, now);
      }
      for (Addr wb : l2_.TakeWritebacks()) {
        dram_backlog_.push_back(DramChannel::Request{wb, true, 0});
      }
    }

    IcntPacket pkt;
    bool have = false;
    if (!retry_.empty()) {
      pkt = retry_.front();
      retry_.pop_front();
      have = true;
    } else if (icnt.HasForPartition(id_)) {
      pkt = icnt.PopForPartition(id_);
      have = true;
    }
    if (have) {
      const Addr block = pkt.addr / cfg_.l2.geom.line_bytes;
      switch (pkt.kind) {
        case IcntPacket::Kind::kReadRequest:
          switch (l2_.AccessRead(block, pkt)) {
            case L2Cache::Result::kHit:
              ScheduleReply(pkt, now + cfg_.l2.latency);
              break;
            case L2Cache::Result::kMissIssued:
              dram_backlog_.push_back(DramChannel::Request{block, false, 0});
              break;
            case L2Cache::Result::kMissMerged:
              break;
            case L2Cache::Result::kStall:
              retry_.push_back(pkt);
              break;
          }
          break;
        case IcntPacket::Kind::kWrite:
          if (l2_.AccessWrite(block) == L2Cache::Result::kMissIssued) {
            dram_backlog_.push_back(DramChannel::Request{block, true, 0});
          }
          break;
        case IcntPacket::Kind::kOther:
        case IcntPacket::Kind::kReadReply:
          break;
      }
      for (Addr wb : l2_.TakeWritebacks()) {
        dram_backlog_.push_back(DramChannel::Request{wb, true, 0});
      }
    }

    while (!dram_backlog_.empty() && dram_.CanAccept()) {
      dram_.Enqueue(dram_backlog_.front());
      dram_backlog_.pop_front();
    }

    auto it = replies_.begin();
    while (it != replies_.end()) {
      if (it->ready_at <= now && icnt.CanInjectFromPartition(id_)) {
        icnt.InjectFromPartition(id_, it->pkt);
        ++requests_served;
        it = replies_.erase(it);
      } else if (planted_bug_) {
        break;
      } else {
        ++it;
      }
    }
  }

  bool Idle() const {
    return replies_.empty() && retry_.empty() && dram_backlog_.empty() &&
           dram_.Idle();
  }

  MemoryPartition::QueueDepths Depths() const {
    MemoryPartition::QueueDepths d;
    d.retry = retry_.size();
    d.replies = replies_.size();
    d.dram_backlog = dram_backlog_.size();
    d.dram_queue = dram_.queue_depth();
    d.dram_in_service = dram_.in_service_depth();
    d.l2_pending = l2_.pending_fetches();
    return d;
  }

  const RefL2& l2() const { return l2_; }
  const RefDram& dram() const { return dram_; }

  std::uint64_t requests_served = 0;

 private:
  struct PendingReply {
    IcntPacket pkt;
    Cycle ready_at = 0;
  };

  void ScheduleReply(const IcntPacket& request, Cycle ready_at) {
    IcntPacket reply;
    reply.kind = IcntPacket::Kind::kReadReply;
    reply.addr = request.addr;
    reply.src = id_;
    reply.dst = request.src;
    reply.no_fill = request.no_fill;
    reply.token = request.token;
    reply.pc = request.pc;
    reply.bytes = cfg_.l2.geom.line_bytes + cfg_.icnt.control_overhead;
    replies_.push_back(PendingReply{reply, ready_at});
  }

  SimConfig cfg_;
  PartitionId id_;
  RefL2 l2_;
  RefDram dram_;
  std::deque<PendingReply> replies_;
  std::deque<IcntPacket> retry_;
  std::deque<DramChannel::Request> dram_backlog_;
  std::uint64_t fault_stall_cycles_ = 0;
  bool planted_bug_;
};

bool SamePacket(const IcntPacket& a, const IcntPacket& b) {
  return a.kind == b.kind && a.addr == b.addr && a.src == b.src &&
         a.dst == b.dst && a.no_fill == b.no_fill && a.token == b.token &&
         a.pc == b.pc && a.bytes == b.bytes;
}

bool SameDepths(const MemoryPartition::QueueDepths& a,
                const MemoryPartition::QueueDepths& b) {
  return a.retry == b.retry && a.replies == b.replies &&
         a.dram_backlog == b.dram_backlog && a.dram_queue == b.dram_queue &&
         a.dram_in_service == b.dram_in_service &&
         a.l2_pending == b.l2_pending;
}

bool SameStats(const CacheStats& a, const CacheStats& b) {
  return a.accesses == b.accesses && a.loads == b.loads &&
         a.stores == b.stores && a.load_hits == b.load_hits &&
         a.load_misses == b.load_misses && a.store_hits == b.store_hits &&
         a.mshr_merges == b.mshr_merges &&
         a.misses_issued == b.misses_issued &&
         a.reservation_fails == b.reservation_fails && a.fills == b.fills &&
         a.evictions == b.evictions && a.writebacks == b.writebacks;
}

struct LockstepStats {
  std::uint64_t replies = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t merges = 0;
  std::uint64_t stalls = 0;  // L2 reservation fails (retry path)
  std::uint64_t writebacks = 0;
};

std::string RunLockstep(std::uint64_t seed, bool planted_bug,
                        LockstepStats* stats) {
  Rng rng(seed);
  SimConfig cfg;
  cfg.num_cores = 3;
  cfg.num_partitions = 2;
  cfg.icnt.latency = 1 + static_cast<std::uint32_t>(rng.Below(6));
  cfg.l2.geom.sets = 4;
  cfg.l2.geom.ways = 2;
  cfg.l2.mshr_entries = 2 + static_cast<std::uint32_t>(rng.Below(6));
  cfg.l2.mshr_max_merged = 1 + static_cast<std::uint32_t>(rng.Below(3));
  cfg.l2.latency = 1 + static_cast<std::uint32_t>(rng.Below(40));
  cfg.dram.banks = 1 + static_cast<std::uint32_t>(rng.Below(4));
  cfg.dram.t_row_hit = 1 + static_cast<std::uint32_t>(rng.Below(10));
  cfg.dram.t_row_miss =
      cfg.dram.t_row_hit + static_cast<std::uint32_t>(rng.Below(20));
  cfg.dram.t_rc = static_cast<std::uint32_t>(rng.Below(10));

  Crossbar opt_icnt(cfg.icnt, cfg.num_cores, cfg.num_partitions);
  Crossbar ref_icnt(cfg.icnt, cfg.num_cores, cfg.num_partitions);
  std::vector<MemoryPartition> opt;
  std::vector<RefPartition> ref;
  for (PartitionId p = 0; p < cfg.num_partitions; ++p) {
    opt.emplace_back(cfg, p);
    ref.emplace_back(cfg, p, planted_bug);
  }
  // A working set of a few times the L2 capacity (2 x 8 lines), skewed so
  // that hot lines hit and merge while cold ones miss and evict.
  const std::uint64_t hot_lines = 4 + rng.Below(8);
  const std::uint64_t cold_lines = 64;
  const double inject_p = 0.1 + 0.5 * rng.NextDouble();

  auto diverged = [](Cycle now, const std::string& what) {
    std::ostringstream os;
    os << "cycle " << now << ": " << what;
    return os.str();
  };

  for (Cycle now = 1; now <= 5000; ++now) {
    for (std::uint32_t c = 0; c < cfg.num_cores; ++c) {
      if (!opt_icnt.CanInjectFromCore(c) || rng.NextDouble() >= inject_p) {
        continue;
      }
      const bool hot = rng.Below(2) == 0;
      const Addr line = hot ? rng.Below(hot_lines)
                            : hot_lines + rng.Below(cold_lines);
      IcntPacket pkt;
      const std::uint64_t kind = rng.Below(10);
      pkt.kind = kind < 6   ? IcntPacket::Kind::kReadRequest
                 : kind < 9 ? IcntPacket::Kind::kWrite
                            : IcntPacket::Kind::kOther;
      pkt.addr = line * cfg.l2.geom.line_bytes;
      pkt.src = c;
      pkt.dst = static_cast<std::uint32_t>(line % cfg.num_partitions);
      pkt.token = rng.Next();
      pkt.pc = rng.Below(16);
      pkt.bytes = pkt.kind == IcntPacket::Kind::kWrite ? 136 : 8;
      opt_icnt.InjectFromCore(c, pkt);
      ref_icnt.InjectFromCore(c, pkt);
    }
    if (rng.Below(300) == 0) {
      const PartitionId p =
          static_cast<PartitionId>(rng.Below(cfg.num_partitions));
      const std::uint64_t len = 1 + rng.Below(30);
      opt[p].InjectStallFor(len);
      ref[p].InjectStallFor(len);
    }

    opt_icnt.Tick(now);
    ref_icnt.Tick(now);
    for (PartitionId p = 0; p < cfg.num_partitions; ++p) {
      opt[p].Tick(now, opt_icnt);
      ref[p].Tick(now, ref_icnt);
    }

    for (std::uint32_t c = 0; c < cfg.num_cores; ++c) {
      while (opt_icnt.HasForCore(c) || ref_icnt.HasForCore(c)) {
        if (opt_icnt.HasForCore(c) != ref_icnt.HasForCore(c)) {
          return diverged(now, "reply arrival at core " + std::to_string(c));
        }
        if (!SamePacket(opt_icnt.PopForCore(c), ref_icnt.PopForCore(c))) {
          return diverged(now, "reply at core " + std::to_string(c));
        }
        ++stats->replies;
      }
    }
    for (PartitionId p = 0; p < cfg.num_partitions; ++p) {
      const std::string where = "partition " + std::to_string(p) + " ";
      if (!SameDepths(opt[p].Depths(), ref[p].Depths())) {
        return diverged(now, where + "Depths()");
      }
      if (opt[p].Idle() != ref[p].Idle()) {
        return diverged(now, where + "Idle()");
      }
      if (opt[p].requests_served != ref[p].requests_served) {
        return diverged(now, where + "requests_served");
      }
      if (!SameStats(opt[p].l2().stats(), ref[p].l2().stats())) {
        return diverged(now, where + "L2 stats");
      }
      const DramChannel& od = opt[p].dram();
      const RefDram& rd = ref[p].dram();
      if (od.reads != rd.reads || od.writes != rd.writes ||
          od.row_hits != rd.row_hits || od.row_misses != rd.row_misses) {
        return diverged(now, where + "DRAM counters");
      }
    }
  }
  for (const MemoryPartition& p : opt) {
    stats->l2_hits += p.l2().stats().load_hits;
    stats->merges += p.l2().stats().mshr_merges;
    stats->stalls += p.l2().stats().reservation_fails;
    stats->writebacks += p.l2().stats().writebacks;
  }
  return "";
}

TEST(PartitionDifferential, MatchesReferenceTickByTick) {
  LockstepStats stats;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const std::string divergence = RunLockstep(seed, false, &stats);
    ASSERT_EQ(divergence, "") << "seed " << seed;
  }
  // Every path the rewrite touched must have been exercised.
  EXPECT_GT(stats.replies, 10000u);
  EXPECT_GT(stats.l2_hits, 1000u);
  EXPECT_GT(stats.merges, 100u);
  EXPECT_GT(stats.stalls, 100u);
  EXPECT_GT(stats.writebacks, 100u);
}

TEST(PartitionDifferential, PlantedHeadOfLineReplyBugIsCaught) {
  // A seed with a very short L2 latency can leave no hit reply unready
  // ahead of a fill, so the bug needs most seeds, not all, to show.
  std::size_t caught = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    LockstepStats stats;
    if (!RunLockstep(seed, true, &stats).empty()) ++caught;
  }
  EXPECT_GE(caught, 6u);
}

}  // namespace
}  // namespace dlpsim
