#include "icnt/crossbar.h"

#include <bit>
#include <cassert>

namespace dlpsim {

Crossbar::Crossbar(const IcntConfig& cfg, std::uint32_t num_cores,
                   std::uint32_t num_partitions)
    : cfg_(cfg),
      num_cores_(num_cores),
      ports_(num_cores + num_partitions),
      busy_ports_((num_cores + num_partitions + 63) / 64, 0),
      to_partition_(num_partitions, RingQueue<IcntPacket>(kDeliveryQueueCap)),
      to_core_(num_cores, RingQueue<IcntPacket>(kDeliveryQueueCap)) {}

void Crossbar::Inject(std::size_t port, const IcntPacket& pkt) {
  ports_[port].queue.push_back(pkt);
  busy_ports_[port / 64] |= std::uint64_t{1} << (port % 64);
  ++in_network_;
}

bool Crossbar::CanInjectFromCore(std::uint32_t core) const {
  return ports_[core].queue.size() < kInjectQueueCap;
}

void Crossbar::InjectFromCore(std::uint32_t core, const IcntPacket& pkt) {
  assert(CanInjectFromCore(core));
  bytes_core_to_mem += pkt.bytes;
  if (pkt.kind == IcntPacket::Kind::kOther) {
    bytes_other += pkt.bytes;
  } else {
    bytes_l1d += pkt.bytes;
  }
  Inject(core, pkt);
}

bool Crossbar::CanInjectFromPartition(std::uint32_t part) const {
  return ports_[num_cores_ + part].queue.size() < kInjectQueueCap;
}

void Crossbar::InjectFromPartition(std::uint32_t part, const IcntPacket& pkt) {
  assert(CanInjectFromPartition(part));
  bytes_mem_to_core += pkt.bytes;
  bytes_l1d += pkt.bytes;
  Inject(num_cores_ + part, pkt);
}

bool Crossbar::HasForCore(std::uint32_t core) const {
  return !to_core_[core].empty();
}

IcntPacket Crossbar::PopForCore(std::uint32_t core) {
  assert(HasForCore(core));
  IcntPacket pkt = to_core_[core].front();
  to_core_[core].pop_front();
  --in_network_;
  return pkt;
}

bool Crossbar::HasForPartition(std::uint32_t part) const {
  return !to_partition_[part].empty();
}

IcntPacket Crossbar::PopForPartition(std::uint32_t part) {
  assert(HasForPartition(part));
  IcntPacket pkt = to_partition_[part].front();
  to_partition_[part].pop_front();
  --in_network_;
  return pkt;
}

void Crossbar::TickPort(std::size_t index, Cycle now) {
  Port& port = ports_[index];
  const IcntPacket& head = port.queue.front();
  port.sent_bytes += cfg_.bytes_per_cycle_per_port;
  if (port.sent_bytes < head.bytes) return;
  // Head packet fully serialized this cycle; it arrives after the hop
  // latency and then waits for delivery-queue space. The latency is
  // constant, so flight_ stays ordered by deliver_at.
  const Cycle deliver_at = now + cfg_.latency;
  assert(flight_.empty() || flight_.back().deliver_at <= deliver_at);
  flight_.push_back(InFlight{head, deliver_at, index >= num_cores_});
  port.queue.pop_front();
  port.sent_bytes = 0;
  if (port.queue.empty()) {
    busy_ports_[index / 64] &= ~(std::uint64_t{1} << (index % 64));
  }
}

void Crossbar::Deliver(Cycle now) {
  // flight_ is ordered by deliver_at, so only its prefix is due. A due
  // packet lands when its destination queue has room; otherwise it stays,
  // and so does every later packet to that destination (the queue stays
  // full for the rest of the pass), which preserves point-to-point order.
  // Blocked packets are compacted stably to [0, kept).
  std::size_t due = 0;
  std::size_t kept = 0;
  for (; due < flight_.size(); ++due) {
    const InFlight& f = flight_[due];
    if (f.deliver_at > now) break;
    auto& queue = (f.to_core ? to_core_ : to_partition_)[f.pkt.dst];
    if (queue.size() < kDeliveryQueueCap) {
      queue.push_back(f.pkt);
      ++packets_delivered;
    } else {
      if (kept != due) flight_[kept] = f;
      ++kept;
    }
  }
  // Close the gap left by the delivered packets: move the blocked ones up
  // against the not-yet-due tail and drop the front.
  const std::size_t gap = due - kept;
  if (gap == 0) return;
  for (std::size_t i = kept; i-- > 0;) flight_[i + gap] = flight_[i];
  flight_.pop_front(gap);
}

void Crossbar::Tick(Cycle now) {
  if (fault_stall_cycles_ > 0) {
    // Injected fabric stall: the cycle passes with no movement at all.
    --fault_stall_cycles_;
    return;
  }
  // Busy ports in ascending index order: cores, then partitions.
  for (std::size_t word = 0; word < busy_ports_.size(); ++word) {
    for (std::uint64_t bits = busy_ports_[word]; bits != 0;
         bits &= bits - 1) {
      TickPort(word * 64 + static_cast<std::size_t>(std::countr_zero(bits)),
               now);
    }
  }
  Deliver(now);
}

Crossbar::QueueDepths Crossbar::Depths() const {
  QueueDepths d;
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    (i < num_cores_ ? d.core_inject : d.partition_inject) +=
        ports_[i].queue.size();
  }
  d.in_flight = flight_.size();
  for (const auto& q : to_partition_) d.to_partition += q.size();
  for (const auto& q : to_core_) d.to_core += q.size();
  return d;
}

}  // namespace dlpsim
