// Naive reference copy of the original DramChannel implementation, for
// lockstep differential tests: bank and row re-derived by division on
// every scan, an in-service list scanned and erased in the middle, and a
// fresh result vector per tick. Lives in tests/ only.
#pragma once

#include <algorithm>
#include <deque>
#include <vector>

#include "mem/dram.h"

namespace dlpsim::reference {

class RefDram {
 public:
  // planted_bug: the reference retires only the first due completion per
  // tick, so a tick on which two land tells it apart.
  RefDram(const DramConfig& cfg, std::uint32_t line_bytes, bool planted_bug)
      : cfg_(cfg),
        line_bytes_(line_bytes),
        lines_per_row_(std::max(1u, cfg.row_bytes / line_bytes)),
        banks_(cfg.banks),
        planted_bug_(planted_bug) {}

  bool CanAccept() const { return queue_.size() < kQueueCap; }
  void Enqueue(const DramChannel::Request& req) { queue_.push_back(req); }
  bool Idle() const { return queue_.empty() && in_service_.empty(); }
  std::size_t queue_depth() const { return queue_.size(); }
  std::size_t in_service_depth() const { return in_service_.size(); }

  std::vector<DramChannel::Completion> Tick(Cycle now) {
    const Cycle burst = std::max<Cycle>(
        1, (line_bytes_ + cfg_.bus_bytes_per_cycle - 1) /
               cfg_.bus_bytes_per_cycle);
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      Bank& bank = banks_[BankOf(it->block)];
      if (bank.busy_until > now) continue;
      const std::uint64_t row = RowOf(it->block);
      const bool row_hit = bank.open_row == row;
      row_hit ? ++row_hits : ++row_misses;
      const Cycle latency = row_hit ? cfg_.t_row_hit : cfg_.t_row_miss;
      const Cycle occupancy = row_hit ? burst : cfg_.t_rc + burst;
      bank.open_row = row;
      bank.busy_until = now + occupancy;
      bus_busy_until_ = std::max(bus_busy_until_, now + latency) + burst;
      it->write ? ++writes : ++reads;
      in_service_.push_back(InService{
          DramChannel::Completion{it->block, it->write, it->tag},
          bus_busy_until_});
      queue_.erase(it);
      break;
    }
    std::vector<DramChannel::Completion> done;
    auto it = in_service_.begin();
    while (it != in_service_.end()) {
      if (it->done_at <= now && !(planted_bug_ && !done.empty())) {
        done.push_back(it->completion);
        it = in_service_.erase(it);
      } else {
        ++it;
      }
    }
    return done;
  }

  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;

 private:
  struct Bank {
    Cycle busy_until = 0;
    std::uint64_t open_row = ~0ull;
  };
  struct InService {
    DramChannel::Completion completion;
    Cycle done_at = 0;
  };

  std::uint32_t BankOf(Addr block) const {
    return static_cast<std::uint32_t>((block / lines_per_row_) % cfg_.banks);
  }
  std::uint64_t RowOf(Addr block) const {
    return (block / lines_per_row_) / cfg_.banks;
  }

  static constexpr std::size_t kQueueCap = 32;

  DramConfig cfg_;
  std::uint32_t line_bytes_;
  std::uint32_t lines_per_row_;
  std::deque<DramChannel::Request> queue_;
  std::vector<Bank> banks_;
  std::vector<InService> in_service_;
  Cycle bus_busy_until_ = 0;
  bool planted_bug_;
};

}  // namespace dlpsim::reference
