// Lockstep differential: the DramChannel against a naive reference copy
// of its original implementation (bank and row re-derived by division on
// every scan, an in-service list scanned and erased in the middle, a fresh
// result vector per tick). Seeded mixed bank/row request streams with
// gaps in the tick sequence (partition stalls); completion lists, queue
// and in-service depths, Idle() and every counter must agree on every
// tick. A planted-bug reference must diverge.
#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mem/dram.h"
#include "reference_dram.h"
#include "sim/rng.h"

namespace dlpsim {
namespace {

using reference::RefDram;

struct LockstepStats {
  std::uint64_t completions = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t multi_completion_ticks = 0;  // >1 completion in one tick
};

// A request stream mixing the patterns the scheduler distinguishes:
// streaming runs within one row (row hits), row ping-pong inside one bank
// (misses, bank conflicts) and scattered blocks across all banks.
class StreamMix {
 public:
  StreamMix(Rng& rng, std::uint32_t lines_per_row, std::uint32_t banks)
      : rng_(rng), lines_per_row_(lines_per_row), banks_(banks) {}

  Addr Next() {
    if (run_left_ == 0) {
      mode_ = rng_.Below(3);
      run_left_ = 1 + rng_.Below(24);
      cursor_ = rng_.Below(1u << 16);
    }
    --run_left_;
    switch (mode_) {
      case 0:  // sequential lines
        return cursor_++;
      case 1: {  // two rows of one bank, alternating
        const Addr row_stride = Addr{lines_per_row_} * banks_;
        return cursor_ + (rng_.Below(2) * row_stride) +
               rng_.Below(lines_per_row_);
      }
      default:  // scattered
        return rng_.Below(1u << 16);
    }
  }

 private:
  Rng& rng_;
  std::uint32_t lines_per_row_;
  std::uint32_t banks_;
  std::uint64_t mode_ = 0;
  std::uint64_t run_left_ = 0;
  Addr cursor_ = 0;
};

std::string RunLockstep(std::uint64_t seed, bool planted_bug,
                        LockstepStats* stats) {
  Rng rng(seed);
  DramConfig cfg;
  cfg.banks = 1 + static_cast<std::uint32_t>(rng.Below(8));
  cfg.row_bytes = 128u << rng.Below(6);  // 128 B .. 4 KiB
  cfg.t_row_hit = 1 + static_cast<std::uint32_t>(rng.Below(40));
  cfg.t_row_miss = cfg.t_row_hit + static_cast<std::uint32_t>(rng.Below(80));
  cfg.t_rc = static_cast<std::uint32_t>(rng.Below(40));
  cfg.bus_bytes_per_cycle = 8u << rng.Below(4);  // 8 .. 64
  const std::uint32_t line_bytes = 128;
  DramChannel opt(cfg, line_bytes);
  RefDram ref(cfg, line_bytes, planted_bug);
  StreamMix stream(rng, std::max(1u, cfg.row_bytes / line_bytes), cfg.banks);
  const double enqueue_p = 0.1 + 0.8 * rng.NextDouble();
  const double write_p = 0.3 * rng.NextDouble();

  auto diverged = [](Cycle now, const std::string& what) {
    std::ostringstream os;
    os << "cycle " << now << ": " << what;
    return os.str();
  };

  std::uint64_t tag = 0;
  Cycle now = 0;
  for (int step = 0; step < 6000; ++step) {
    // Ticks normally come every cycle; a stalled partition skips some.
    now += rng.Below(50) == 0 ? 1 + rng.Below(200) : 1;
    if (opt.CanAccept() != ref.CanAccept()) {
      return diverged(now, "CanAccept");
    }
    while (opt.CanAccept() && rng.NextDouble() < enqueue_p) {
      const DramChannel::Request req{stream.Next(),
                                     rng.NextDouble() < write_p, tag++};
      opt.Enqueue(req);
      ref.Enqueue(req);
    }

    const std::vector<DramChannel::Completion> got = opt.Tick(now);
    const std::vector<DramChannel::Completion> want = ref.Tick(now);
    if (got.size() != want.size()) {
      return diverged(now, "completion count " + std::to_string(got.size()) +
                               " vs " + std::to_string(want.size()));
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i].block != want[i].block || got[i].write != want[i].write ||
          got[i].tag != want[i].tag) {
        return diverged(now, "completion " + std::to_string(i));
      }
    }
    stats->completions += got.size();
    if (got.size() > 1) ++stats->multi_completion_ticks;

    if (opt.queue_depth() != ref.queue_depth() ||
        opt.in_service_depth() != ref.in_service_depth()) {
      return diverged(now, "queue / in-service depth");
    }
    if (opt.Idle() != ref.Idle()) return diverged(now, "Idle()");
    if (opt.reads != ref.reads || opt.writes != ref.writes ||
        opt.row_hits != ref.row_hits || opt.row_misses != ref.row_misses) {
      return diverged(now, "counters");
    }
  }
  stats->row_hits += opt.row_hits;
  stats->row_misses += opt.row_misses;
  return "";
}

TEST(DramDifferential, MatchesReferenceTickByTick) {
  LockstepStats stats;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const std::string divergence = RunLockstep(seed, false, &stats);
    ASSERT_EQ(divergence, "") << "seed " << seed;
  }
  // The streams must exercise both row outcomes and ticks on which
  // several completions retire together (stalls followed by a catch-up).
  EXPECT_GT(stats.completions, 30000u);
  EXPECT_GT(stats.row_hits, 5000u);
  EXPECT_GT(stats.row_misses, 5000u);
  EXPECT_GT(stats.multi_completion_ticks, 100u);
}

TEST(DramDifferential, PlantedOneCompletionPerTickBugIsCaught) {
  std::size_t caught = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    LockstepStats stats;
    if (!RunLockstep(seed, true, &stats).empty()) ++caught;
  }
  EXPECT_EQ(caught, 8u);
}

}  // namespace
}  // namespace dlpsim
