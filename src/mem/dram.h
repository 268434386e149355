// Simplified GDDR5 DRAM channel model: per-bank row buffers with
// open-page policy, bank busy times for row hits vs misses, and a shared
// data bus whose occupancy bounds the partition's bandwidth.
//
// Host cost: bank and row are decoded once at Enqueue, and the
// first-ready scan is skipped while every bank is busy. The in-service
// list is ordered by done_at (the data bus never runs backwards), so
// completions retire from its front. Completions come back in a reused
// buffer, so steady-state ticks never allocate.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/config.h"
#include "sim/ring_queue.h"
#include "sim/types.h"

namespace dlpsim {

class DramChannel {
 public:
  DramChannel(const DramConfig& cfg, std::uint32_t line_bytes);

  struct Request {
    Addr block = 0;     // line index within the global space
    bool write = false;
    std::uint64_t tag = 0;  // opaque id returned on completion (reads)
  };

  struct Completion {
    Addr block = 0;
    bool write = false;
    std::uint64_t tag = 0;
  };

  bool CanAccept() const { return queue_.size() < kQueueCap; }
  void Enqueue(const Request& req);

  /// Advances one memory-domain cycle; returns completions that finished
  /// at or before `now`, in issue order. The returned buffer is reused:
  /// it stays valid until the next Tick.
  const std::vector<Completion>& Tick(Cycle now);

  bool Idle() const { return queue_.empty() && in_service_.empty(); }
  std::size_t queue_depth() const { return queue_.size(); }
  std::size_t in_service_depth() const { return in_service_.size(); }

  // --- derived mapping (exposed for tests) ---
  std::uint32_t BankOf(Addr block) const;
  std::uint64_t RowOf(Addr block) const;

  // --- statistics ---
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;

 private:
  struct Bank {
    Cycle busy_until = 0;
    std::uint64_t open_row = ~0ull;
  };

  struct Queued {
    Request req;
    std::uint32_t bank = 0;  // BankOf(req.block)
    std::uint64_t row = 0;   // RowOf(req.block)
  };

  struct InService {
    Completion completion;
    Cycle done_at = 0;
  };

  void IssueFirstReady(Cycle now);

  DramConfig cfg_;
  std::uint32_t line_bytes_;
  std::uint32_t lines_per_row_;
  Cycle burst_;  // data-bus cycles per line
  std::vector<Queued> queue_;  // arrival order; capacity kQueueCap
  std::vector<Bank> banks_;
  RingQueue<InService> in_service_;  // ordered by done_at
  std::vector<Completion> done_;     // Tick's reused result buffer
  Cycle bus_busy_until_ = 0;
  Cycle first_bank_free_at_ = 0;  // min busy_until over banks_

  static constexpr std::size_t kQueueCap = 32;
};

}  // namespace dlpsim
