// Lockstep differential: the Crossbar against a naive reference copy of
// its original implementation (std::deque queues, a full rebuild of the
// in-flight list on every tick, an O(ports) drain walk). Seeded random
// injection with delivery-queue backpressure and fault stalls; delivered
// packet sequences, Depths(), Idle() and every counter must agree on
// every tick. A planted-bug reference that ignores the deliver_at
// cut-off must diverge, so the harness cannot pass by being blind.
#include <deque>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "icnt/crossbar.h"
#include "sim/rng.h"

namespace dlpsim {
namespace {

class RefCrossbar {
 public:
  RefCrossbar(const IcntConfig& cfg, std::uint32_t num_cores,
              std::uint32_t num_partitions, bool ignore_deliver_at)
      : cfg_(cfg),
        core_ports_(num_cores),
        partition_ports_(num_partitions),
        to_partition_(num_partitions),
        to_core_(num_cores),
        ignore_deliver_at_(ignore_deliver_at) {}

  bool CanInjectFromCore(std::uint32_t core) const {
    return core_ports_[core].queue.size() < kInjectQueueCap;
  }
  void InjectFromCore(std::uint32_t core, const IcntPacket& pkt) {
    bytes_core_to_mem += pkt.bytes;
    if (pkt.kind == IcntPacket::Kind::kOther) {
      bytes_other += pkt.bytes;
    } else {
      bytes_l1d += pkt.bytes;
    }
    core_ports_[core].queue.push_back(pkt);
  }
  bool CanInjectFromPartition(std::uint32_t part) const {
    return partition_ports_[part].queue.size() < kInjectQueueCap;
  }
  void InjectFromPartition(std::uint32_t part, const IcntPacket& pkt) {
    bytes_mem_to_core += pkt.bytes;
    bytes_l1d += pkt.bytes;
    partition_ports_[part].queue.push_back(pkt);
  }
  bool HasForCore(std::uint32_t core) const {
    return !to_core_[core].empty();
  }
  IcntPacket PopForCore(std::uint32_t core) {
    IcntPacket pkt = to_core_[core].front();
    to_core_[core].pop_front();
    return pkt;
  }
  bool HasForPartition(std::uint32_t part) const {
    return !to_partition_[part].empty();
  }
  IcntPacket PopForPartition(std::uint32_t part) {
    IcntPacket pkt = to_partition_[part].front();
    to_partition_[part].pop_front();
    return pkt;
  }

  void Tick(Cycle now) {
    if (fault_stall_cycles_ > 0) {
      --fault_stall_cycles_;
      return;
    }
    for (Port& p : core_ports_) TickPort(p, false, now);
    for (Port& p : partition_ports_) TickPort(p, true, now);
    Deliver(now);
  }

  void InjectStallFor(std::uint64_t cycles) { fault_stall_cycles_ += cycles; }

  bool Idle() const {
    if (!flight_.empty()) return false;
    for (const Port& p : core_ports_) {
      if (!p.queue.empty()) return false;
    }
    for (const Port& p : partition_ports_) {
      if (!p.queue.empty()) return false;
    }
    for (const auto& q : to_partition_) {
      if (!q.empty()) return false;
    }
    for (const auto& q : to_core_) {
      if (!q.empty()) return false;
    }
    return true;
  }

  Crossbar::QueueDepths Depths() const {
    Crossbar::QueueDepths d;
    for (const Port& p : core_ports_) d.core_inject += p.queue.size();
    for (const Port& p : partition_ports_) {
      d.partition_inject += p.queue.size();
    }
    d.in_flight = flight_.size();
    for (const auto& q : to_partition_) d.to_partition += q.size();
    for (const auto& q : to_core_) d.to_core += q.size();
    return d;
  }

  std::uint64_t bytes_core_to_mem = 0;
  std::uint64_t bytes_mem_to_core = 0;
  std::uint64_t bytes_l1d = 0;
  std::uint64_t bytes_other = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t blocked_due = 0;  // coverage: due packets held back

 private:
  struct InFlight {
    IcntPacket pkt;
    Cycle deliver_at = 0;
    bool to_core = false;
  };
  struct Port {
    std::deque<IcntPacket> queue;
    std::uint32_t sent_bytes = 0;
  };

  void TickPort(Port& port, bool to_core, Cycle now) {
    if (port.queue.empty()) return;
    const IcntPacket& head = port.queue.front();
    port.sent_bytes += cfg_.bytes_per_cycle_per_port;
    if (port.sent_bytes < head.bytes) return;
    flight_.push_back(InFlight{head, now + cfg_.latency, to_core});
    port.queue.pop_front();
    port.sent_bytes = 0;
  }

  void Deliver(Cycle now) {
    std::deque<InFlight> still_flying;
    for (InFlight& f : flight_) {
      const bool due = ignore_deliver_at_ || f.deliver_at <= now;
      auto& queues = f.to_core ? to_core_ : to_partition_;
      if (due && queues[f.pkt.dst].size() < kDeliveryQueueCap) {
        queues[f.pkt.dst].push_back(f.pkt);
        ++packets_delivered;
      } else {
        if (due) ++blocked_due;
        still_flying.push_back(f);
      }
    }
    flight_.swap(still_flying);
  }

  static constexpr std::size_t kInjectQueueCap = 8;
  static constexpr std::size_t kDeliveryQueueCap = 16;

  IcntConfig cfg_;
  std::vector<Port> core_ports_;
  std::vector<Port> partition_ports_;
  std::deque<InFlight> flight_;
  std::vector<std::deque<IcntPacket>> to_partition_;
  std::vector<std::deque<IcntPacket>> to_core_;
  std::uint64_t fault_stall_cycles_ = 0;
  bool ignore_deliver_at_;
};

bool SamePacket(const IcntPacket& a, const IcntPacket& b) {
  return a.kind == b.kind && a.addr == b.addr && a.src == b.src &&
         a.dst == b.dst && a.no_fill == b.no_fill && a.token == b.token &&
         a.pc == b.pc && a.bytes == b.bytes;
}

bool SameDepths(const Crossbar::QueueDepths& a,
                const Crossbar::QueueDepths& b) {
  return a.core_inject == b.core_inject &&
         a.partition_inject == b.partition_inject &&
         a.in_flight == b.in_flight && a.to_partition == b.to_partition &&
         a.to_core == b.to_core;
}

struct LockstepStats {
  std::uint64_t delivered = 0;
  std::uint64_t blocked_due = 0;  // due packets held by a full queue
  std::uint64_t stall_injections = 0;
};

constexpr IcntPacket::Kind kCoreKinds[] = {IcntPacket::Kind::kReadRequest,
                                           IcntPacket::Kind::kWrite,
                                           IcntPacket::Kind::kOther};

// Runs one seeded scenario; returns "" or a description of the first
// divergence.
std::string RunLockstep(std::uint64_t seed, bool planted_bug,
                        LockstepStats* stats) {
  Rng rng(seed);
  IcntConfig cfg;
  cfg.latency = 1 + static_cast<std::uint32_t>(rng.Below(12));
  cfg.bytes_per_cycle_per_port = 8u << rng.Below(3);  // 8, 16 or 32
  // Some seeds use more than 64 injection ports, so the busy-port bitmask
  // spans several words.
  const bool many_ports = seed % 6 == 0;
  const std::uint32_t cores = (many_ports ? 64 : 2) +
                              static_cast<std::uint32_t>(rng.Below(5));
  const std::uint32_t parts =
      (many_ports ? 4 : 1) + static_cast<std::uint32_t>(rng.Below(4));
  Crossbar opt(cfg, cores, parts);
  RefCrossbar ref(cfg, cores, parts, planted_bug);
  // Many-port seeds inject less per port, or the few partitions would
  // only ever see a flooded fabric.
  const double inject_p =
      (0.2 + 0.6 * rng.NextDouble()) * (many_ports ? 0.02 : 1.0);

  std::uint64_t next_addr = 0;
  auto make_packet = [&](IcntPacket::Kind kind, std::uint32_t src,
                         std::uint32_t dst) {
    IcntPacket p;
    p.kind = kind;
    p.addr = next_addr++ * 128;
    p.src = src;
    p.dst = dst;
    p.no_fill = rng.Below(2) == 1;
    p.token = rng.Next();
    p.pc = rng.Below(64);
    p.bytes = 8 + static_cast<std::uint32_t>(rng.Below(129));
    return p;
  };

  auto diverged = [](Cycle now, const std::string& what) {
    std::ostringstream os;
    os << "tick " << now << ": " << what;
    return os.str();
  };

  for (Cycle now = 1; now <= 4000; ++now) {
    // Slow consumers create delivery-queue backpressure; the drain
    // probability alternates so queues both fill and empty.
    const double drain_p = (now / 500) % 2 == 0 ? 0.05 : 0.7;
    for (std::uint32_t c = 0; c < cores; ++c) {
      if (opt.CanInjectFromCore(c) != ref.CanInjectFromCore(c)) {
        return diverged(now, "CanInjectFromCore");
      }
      if (rng.NextDouble() < inject_p && opt.CanInjectFromCore(c)) {
        const IcntPacket p =
            make_packet(kCoreKinds[rng.Below(3)], c,
                        static_cast<std::uint32_t>(rng.Below(parts)));
        opt.InjectFromCore(c, p);
        ref.InjectFromCore(c, p);
      }
    }
    for (std::uint32_t q = 0; q < parts; ++q) {
      if (opt.CanInjectFromPartition(q) != ref.CanInjectFromPartition(q)) {
        return diverged(now, "CanInjectFromPartition");
      }
      if (rng.NextDouble() < inject_p && opt.CanInjectFromPartition(q)) {
        const IcntPacket p =
            make_packet(IcntPacket::Kind::kReadReply, q,
                        static_cast<std::uint32_t>(rng.Below(cores)));
        opt.InjectFromPartition(q, p);
        ref.InjectFromPartition(q, p);
      }
    }
    if (rng.Below(400) == 0) {
      const std::uint64_t len = 1 + rng.Below(20);
      opt.InjectStallFor(len);
      ref.InjectStallFor(len);
      ++stats->stall_injections;
    }

    opt.Tick(now);
    ref.Tick(now);

    for (std::uint32_t c = 0; c < cores; ++c) {
      if (rng.NextDouble() >= drain_p) continue;
      while (opt.HasForCore(c) || ref.HasForCore(c)) {
        if (opt.HasForCore(c) != ref.HasForCore(c)) {
          return diverged(now, "HasForCore");
        }
        if (!SamePacket(opt.PopForCore(c), ref.PopForCore(c))) {
          return diverged(now, "packet delivered to core differs");
        }
        ++stats->delivered;
      }
    }
    for (std::uint32_t q = 0; q < parts; ++q) {
      if (rng.NextDouble() >= drain_p) continue;
      // Partitions pop one packet per cycle, as MemoryPartition does.
      if (opt.HasForPartition(q) != ref.HasForPartition(q)) {
        return diverged(now, "HasForPartition");
      }
      if (opt.HasForPartition(q)) {
        if (!SamePacket(opt.PopForPartition(q), ref.PopForPartition(q))) {
          return diverged(now, "packet delivered to partition differs");
        }
        ++stats->delivered;
      }
    }

    const Crossbar::QueueDepths od = opt.Depths();
    if (!SameDepths(od, ref.Depths())) return diverged(now, "Depths()");
    if (opt.Idle() != ref.Idle()) return diverged(now, "Idle()");
    if (opt.packets_in_network() != od.core_inject + od.partition_inject +
                                        od.in_flight + od.to_partition +
                                        od.to_core) {
      return diverged(now, "packets_in_network() vs Depths()");
    }
    if (opt.bytes_core_to_mem != ref.bytes_core_to_mem ||
        opt.bytes_mem_to_core != ref.bytes_mem_to_core ||
        opt.bytes_l1d != ref.bytes_l1d || opt.bytes_other != ref.bytes_other ||
        opt.packets_delivered != ref.packets_delivered) {
      return diverged(now, "byte / packet counters");
    }
  }
  stats->blocked_due += ref.blocked_due;
  return "";
}

TEST(CrossbarDifferential, MatchesReferenceTickByTick) {
  LockstepStats stats;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const std::string divergence = RunLockstep(seed, false, &stats);
    ASSERT_EQ(divergence, "") << "seed " << seed;
  }
  // The scenarios must actually exercise what the fast path relies on:
  // traffic, full delivery queues (blocked due packets) and fault stalls.
  EXPECT_GT(stats.delivered, 10000u);
  EXPECT_GT(stats.blocked_due, 1000u);
  EXPECT_GT(stats.stall_injections, 50u);
}

TEST(CrossbarDifferential, PlantedEarlyDeliveryBugIsCaught) {
  // A reference that delivers packets before their deliver_at must be
  // told apart from the real crossbar on every seed.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    LockstepStats stats;
    EXPECT_NE(RunLockstep(seed, true, &stats), "") << "seed " << seed;
  }
}

}  // namespace
}  // namespace dlpsim
