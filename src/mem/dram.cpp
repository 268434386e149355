#include "mem/dram.h"

#include <algorithm>
#include <cassert>

namespace dlpsim {

DramChannel::DramChannel(const DramConfig& cfg, std::uint32_t line_bytes)
    : cfg_(cfg),
      line_bytes_(line_bytes),
      lines_per_row_(std::max(1u, cfg.row_bytes / line_bytes)),
      burst_(std::max<Cycle>(1, (line_bytes + cfg.bus_bytes_per_cycle - 1) /
                                    cfg.bus_bytes_per_cycle)),
      banks_(cfg.banks) {
  queue_.reserve(kQueueCap);
}

std::uint32_t DramChannel::BankOf(Addr block) const {
  // Row-granular interleave: consecutive lines share a row (streaming
  // gets row hits), consecutive rows rotate across banks.
  return static_cast<std::uint32_t>((block / lines_per_row_) % cfg_.banks);
}

std::uint64_t DramChannel::RowOf(Addr block) const {
  return (block / lines_per_row_) / cfg_.banks;
}

void DramChannel::Enqueue(const Request& req) {
  assert(CanAccept());
  queue_.push_back(Queued{req, BankOf(req.block), RowOf(req.block)});
}

void DramChannel::IssueFirstReady(Cycle now) {
  // Issue at most one command per cycle to the first queued request whose
  // bank is free (first-ready scheduling; the bounded queue prevents
  // unbounded starvation of blocked-bank requests).
  //
  // Latency and occupancy are separate: a row hit keeps the bank busy for
  // only the burst (column accesses pipeline), a row miss additionally
  // occupies it for the precharge+activate window; the requester sees the
  // full t_row_hit / t_row_miss latency plus shared-data-bus queueing.
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    Bank& bank = banks_[it->bank];
    if (bank.busy_until > now) continue;
    const Request& req = it->req;
    const bool row_hit = bank.open_row == it->row;
    row_hit ? ++row_hits : ++row_misses;
    const Cycle latency = row_hit ? cfg_.t_row_hit : cfg_.t_row_miss;
    const Cycle occupancy = row_hit ? burst_ : cfg_.t_rc + burst_;
    bank.open_row = it->row;
    bank.busy_until = now + occupancy;
    // The bus only moves forward, so in_service_ stays ordered by done_at.
    bus_busy_until_ = std::max(bus_busy_until_, now + latency) + burst_;
    req.write ? ++writes : ++reads;
    in_service_.push_back(InService{
        Completion{req.block, req.write, req.tag}, bus_busy_until_});
    queue_.erase(it);
    first_bank_free_at_ = bank.busy_until;
    for (const Bank& b : banks_) {
      first_bank_free_at_ = std::min(first_bank_free_at_, b.busy_until);
    }
    return;
  }
}

const std::vector<DramChannel::Completion>& DramChannel::Tick(Cycle now) {
  done_.clear();
  // No request can issue before the earliest bank frees up. An idle
  // channel falls through both checks.
  if (!queue_.empty() && now >= first_bank_free_at_) IssueFirstReady(now);
  while (!in_service_.empty() && in_service_.front().done_at <= now) {
    done_.push_back(in_service_.front().completion);
    in_service_.pop_front();
  }
  return done_;
}

}  // namespace dlpsim
