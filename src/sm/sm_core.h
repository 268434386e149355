// One Streaming Multiprocessor: warps + dual GTO schedulers + LD/ST unit
// + the L1D cache, exchanging packets with the interconnect.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/l1d_cache.h"
#include "icnt/crossbar.h"
#include "sim/config.h"
#include "sim/types.h"
#include "sm/coalescer.h"
#include "sm/ldst_unit.h"
#include "sm/scheduler.h"
#include "sm/warp.h"
#include "sm/warp_mask.h"

namespace dlpsim {

class SmCore {
 public:
  /// `warps` warps run `program`; global warp ids are
  /// id * warps + local_id so patterns can address across the whole GPU.
  SmCore(const SimConfig& cfg, SmId id, const Program* program,
         std::uint32_t warps, SchedulerKind sched = SchedulerKind::kGto);

  /// One core-clock cycle: accept responses, dispatch memory ops, issue
  /// from both schedulers, and push outgoing traffic into the crossbar.
  void TickCore(Cycle now, Crossbar& icnt);

  /// All warps retired their program.
  bool Finished() const { return finished_.All(); }
  /// Finished, no warp waiting on memory (a warp is quiescent exactly
  /// when it is not in kWaitMem), and the LD/ST and L1D outgoing queues
  /// empty.
  bool Drained() const {
    return Finished() && wait_mem_.None() && ldst_.Idle() &&
           !l1d_->HasOutgoing();
  }

  /// TickCore is a permanent no-op for this core: drained AND no
  /// background-traffic credit left that could still inject a packet.
  /// Sticky -- nothing can reactivate a core once this returns true --
  /// so the simulator skips inactive cores without changing results.
  bool Inactive() const {
    if (!Drained()) return false;
    // A drained core can still owe the interconnect a background packet
    // if it crossed the credit threshold while the crossbar was
    // congested; keep ticking it until that credit is spent.
    return cfg_.other_traffic_per_insns == 0 ||
           other_traffic_credit_ < std::uint64_t{cfg_.other_traffic_per_insns} *
                                       cfg_.core.warp_size;
  }

  L1DCache& l1d() { return *l1d_; }
  const L1DCache& l1d() const { return *l1d_; }
  const LdStUnit& ldst() const { return ldst_; }
  const std::vector<Warp>& warps() const { return warps_; }
  /// Warps that retired their program (Warp::Finished()).
  const WarpMask& finished_mask() const { return finished_; }
  /// Warps in Warp::State::kWaitMem, i.e. not Warp::Quiescent().
  const WarpMask& wait_mem_mask() const { return wait_mem_; }
  /// Mutable warp access for white-box tests that plant a warp state the
  /// masks above do not know about. Never used on the simulation path.
  std::vector<Warp>& mutable_warps() { return warps_; }
  SmId id() const { return id_; }

  // --- statistics ---
  std::uint64_t committed_thread_insns = 0;
  std::uint64_t committed_mem_insns = 0;    // thread-level memory insns
  std::uint64_t issued_warp_insns = 0;
  std::uint64_t issue_idle_cycles = 0;      // no scheduler issued
  std::uint64_t mem_blocked_issues = 0;     // mem issue blocked: queue full
  std::uint64_t load_block_cycles = 0;      // total warp-blocked-on-load time
  std::uint64_t load_block_events = 0;

 private:
  void AcceptResponses(Cycle now, Crossbar& icnt);
  /// Issues warp `w` picked by `sched`; false when a full LD/ST queue
  /// holds a memory instruction back.
  bool Issue(WarpScheduler& sched, std::uint32_t w, Cycle now);
  void DrainOutgoing(Crossbar& icnt);
  void InjectBackgroundTraffic(Crossbar& icnt);

  SimConfig cfg_;
  SmId id_;
  const Program* program_;
  std::vector<Warp> warps_;
  std::vector<WarpScheduler> schedulers_;
  std::unique_ptr<L1DCache> l1d_;
  LdStUnit ldst_;
  Coalescer coalescer_;
  // Kept in lockstep with warps_ where their state changes: Issue
  // (finish, BlockOnMem), AcceptResponses and LdStUnit::Tick (wake-up).
  WarpMask finished_;
  WarpMask wait_mem_;
  std::uint64_t other_traffic_credit_ = 0;  // committed insns since last pkt
  std::uint64_t other_traffic_rr_ = 0;      // destination rotation
  std::vector<MshrToken> woken_;  // AcceptResponses' reused fill buffer
};

}  // namespace dlpsim
