#include "mem/partition.h"

#include <cassert>

namespace dlpsim {

MemoryPartition::MemoryPartition(const SimConfig& cfg, PartitionId id)
    : cfg_(cfg),
      id_(id),
      l2_(cfg.l2),
      dram_(cfg.dram, cfg.l2.geom.line_bytes) {}

void MemoryPartition::ScheduleReply(const IcntPacket& request,
                                    Cycle ready_at,
                                    RingQueue<PendingReply>& queue) {
  IcntPacket reply;
  reply.kind = IcntPacket::Kind::kReadReply;
  reply.addr = request.addr;
  reply.src = id_;
  reply.dst = request.src;
  reply.no_fill = request.no_fill;
  reply.token = request.token;
  reply.pc = request.pc;
  reply.bytes = cfg_.l2.geom.line_bytes + cfg_.icnt.control_overhead;
  assert(queue.empty() || queue.back().ready_at <= ready_at);
  queue.push_back(PendingReply{reply, ready_at, next_reply_seq_++});
}

void MemoryPartition::HandleDramCompletions(Cycle now) {
  for (const DramChannel::Completion& done : dram_.Tick(now)) {
    if (done.write) continue;  // fire-and-forget
    for (const IcntPacket& waiter : l2_.Fill(done.block)) {
      ScheduleReply(waiter, now, fill_replies_);
    }
    // Allocate-on-fill can displace a dirty line at fill time.
    for (Addr wb : l2_.TakeWritebacks()) {
      dram_backlog_.push_back(DramChannel::Request{wb, /*write=*/true, 0});
    }
  }
}

void MemoryPartition::PushReplies(Cycle now, Crossbar& icnt) {
  // Ready replies leave in scheduling order until the partition port is
  // full. Each queue's ready replies are a prefix of it, so merging the
  // two prefixes by sequence number yields exactly that order.
  while (icnt.CanInjectFromPartition(id_)) {
    const bool hit_ready =
        !hit_replies_.empty() && hit_replies_.front().ready_at <= now;
    const bool fill_ready =
        !fill_replies_.empty() && fill_replies_.front().ready_at <= now;
    if (!hit_ready && !fill_ready) break;
    RingQueue<PendingReply>& queue =
        hit_ready && (!fill_ready || hit_replies_.front().seq <
                                         fill_replies_.front().seq)
            ? hit_replies_
            : fill_replies_;
    icnt.InjectFromPartition(id_, queue.front().pkt);
    ++requests_served;
    queue.pop_front();
  }
}

void MemoryPartition::Tick(Cycle now, Crossbar& icnt) {
  if (fault_stall_cycles_ > 0) {
    // Injected controller stall: the memory cycle passes unused.
    --fault_stall_cycles_;
    return;
  }
  // Nothing queued here and nothing arriving: every step below would be
  // a no-op (the DRAM channel is idle too).
  if (Idle() && !icnt.HasForPartition(id_)) return;
  HandleDramCompletions(now);

  // One L2 access per memory cycle (single-ported slice). Stalled requests
  // retry ahead of new arrivals to preserve ordering.
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
      case IcntPacket::Kind::kReadRequest: {
        switch (l2_.AccessRead(block, pkt)) {
          case L2Cache::Result::kHit:
            ScheduleReply(pkt, now + cfg_.l2.latency, hit_replies_);
            break;
          case L2Cache::Result::kMissIssued:
            dram_backlog_.push_back(
                DramChannel::Request{block, /*write=*/false, /*tag=*/0});
            break;
          case L2Cache::Result::kMissMerged:
            break;
          case L2Cache::Result::kStall:
            retry_.push_back(pkt);
            break;
        }
        break;
      }
      case IcntPacket::Kind::kWrite: {
        if (l2_.AccessWrite(block) == L2Cache::Result::kMissIssued) {
          dram_backlog_.push_back(
              DramChannel::Request{block, /*write=*/true, /*tag=*/0});
        }
        break;
      }
      case IcntPacket::Kind::kOther:
        // Background L1I/L1C/L1T traffic: consumes interconnect bandwidth
        // (already accounted) and is absorbed here.
        break;
      case IcntPacket::Kind::kReadReply:
        assert(false && "replies never flow towards partitions");
        break;
    }
    // L2 evictions of dirty lines turn into DRAM writes.
    for (Addr wb : l2_.TakeWritebacks()) {
      dram_backlog_.push_back(DramChannel::Request{wb, /*write=*/true, 0});
    }
  }

  while (!dram_backlog_.empty() && dram_.CanAccept()) {
    dram_.Enqueue(dram_backlog_.front());
    dram_backlog_.pop_front();
  }

  PushReplies(now, icnt);
}

MemoryPartition::QueueDepths MemoryPartition::Depths() const {
  QueueDepths d;
  d.retry = retry_.size();
  d.replies = hit_replies_.size() + fill_replies_.size();
  d.dram_backlog = dram_backlog_.size();
  d.dram_queue = dram_.queue_depth();
  d.dram_in_service = dram_.in_service_depth();
  d.l2_pending = l2_.pending_fetches();
  return d;
}

bool MemoryPartition::Idle() const {
  return hit_replies_.empty() && fill_replies_.empty() && retry_.empty() &&
         dram_backlog_.empty() && dram_.Idle();
}

}  // namespace dlpsim
