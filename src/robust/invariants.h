// Opt-in structural invariant checker for the L1D and its DLP side
// structures, the SM's maintained warp masks, and the crossbar's
// maintained occupancy count.
//
// The protection machinery maintains several redundant encodings of the
// same state (PL fields vs the incremental PlCounters histogram, RESERVED
// lines vs MSHR entries, saturating PDPT counters vs their bit widths);
// a bug in any maintenance path corrupts replacement decisions silently.
// The checker re-derives each encoding by brute force and compares. The
// crossbar's O(1) drain check reads a packets-in-network count that is
// likewise re-derived from a walk of every queue, and the SM's warp
// picking and drain checks read finished/kWaitMem bitsets that are
// re-derived from a walk of every warp.
//
// Enabled either per-process (DLPSIM_CHECK=1) or for a whole build
// (-DDLPSIM_CHECKED=ON, which the CI Debug job uses); DLPSIM_CHECK=0
// overrides the build default. GpuSimulator constructs, owns and attaches
// a checker automatically when enabled; as a SimObserver it runs every
// `check_interval` core cycles plus once at the end of Run(). Checks never
// mutate simulator state, so enabling them cannot change results.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "gpu/observer.h"
#include "sim/types.h"

namespace dlpsim {
class Crossbar;
class GpuSimulator;
class L1DCache;
class SmCore;
}  // namespace dlpsim

namespace dlpsim::robust {

/// Thrown (by default) on the first violated invariant.
class InvariantError : public std::runtime_error {
 public:
  /// Sentinel sm() for violations outside any SM (the crossbar).
  static constexpr std::uint32_t kNoSm = ~0u;

  InvariantError(std::string check, std::uint32_t sm, std::string details)
      : InvariantError(std::move(check), sm, "sm" + std::to_string(sm),
                       std::move(details)) {}
  /// A violation in the interconnect rather than in one SM's L1D.
  static InvariantError Icnt(std::string check, std::string details) {
    return InvariantError(std::move(check), kNoSm, "icnt",
                          std::move(details));
  }

  const std::string& check() const { return check_; }
  std::uint32_t sm() const { return sm_; }
  const std::string& details() const { return details_; }

 private:
  InvariantError(std::string check, std::uint32_t sm,
                 const std::string& where, std::string details)
      : std::runtime_error("invariant '" + check + "' violated on " + where +
                           ": " + details),
        check_(std::move(check)),
        sm_(sm),
        details_(std::move(details)) {}

  std::string check_;
  std::uint32_t sm_;
  std::string details_;
};

/// Each check returns an empty string when the invariant holds, else a
/// description of the first violation found. All are pure observers.
///
/// Every cached line's PL fits the 4-bit field (<= prot.pd_max()).
std::string CheckPlClamp(const L1DCache& l1d);
/// The incremental PlCounters histogram equals a brute-force tag walk.
std::string CheckPlCounters(const L1DCache& l1d);
/// RESERVED lines and MSHR entries are in bijection.
std::string CheckMshrConsistency(const L1DCache& l1d);
/// Per set: occupied lines have distinct blocks and distinct LRU stamps.
std::string CheckLruValidity(const L1DCache& l1d);
/// Every PDPT entry's PD and hit counters respect their bit widths.
std::string CheckPdpt(const L1DCache& l1d);

/// Runs every check against one L1D; returns "" or the first violation
/// (prefixed with the check name).
std::string CheckL1D(const L1DCache& l1d);

/// The crossbar's maintained packets_in_network() count equals a walk of
/// every injection, in-flight and delivery queue (Depths()).
std::string CheckIcntOccupancy(const Crossbar& icnt);

/// The SM's maintained warp masks agree with a walk of its warps: the
/// finished bit is Warp::Finished(), the kWaitMem bit is the warp's
/// kWaitMem state, and a warp is in kWaitMem exactly when it is not
/// Warp::Quiescent() (the equivalence SmCore::Drained() relies on).
std::string CheckWarpMasks(const SmCore& core);

class InvariantChecker : public SimObserver {
 public:
  explicit InvariantChecker(Cycle check_interval = 4096,
                            bool throw_on_violation = true)
      : interval_(check_interval), throw_(throw_on_violation) {}

  Cycle next_due() const override { return next_check_; }
  void AfterCores(GpuSimulator& gpu, Cycle now) override { CheckAll(gpu, now); }
  /// Close-of-run check: catches drift that never aligned with the
  /// periodic interval.
  void OnRunEnd(const GpuSimulator& gpu, const Metrics& final) override {
    CheckAll(gpu, final.core_cycles);
  }

  /// Checks every SM's L1D and warp masks, then the crossbar occupancy
  /// count. Throws InvariantError on the first violation (or records it,
  /// when constructed with throw_on_violation=false).
  void CheckAll(const GpuSimulator& gpu, Cycle now);

  std::uint64_t checks_run() const { return checks_run_; }
  std::uint64_t violations() const { return violations_; }
  const std::string& last_violation() const { return last_violation_; }

 private:
  Cycle interval_;
  bool throw_;
  Cycle next_check_ = 0;
  std::uint64_t checks_run_ = 0;
  std::uint64_t violations_ = 0;
  std::string last_violation_;
};

/// True when invariant checking is requested for this process: the
/// DLPSIM_CHECK environment variable when set ("0" disables, anything
/// else enables), otherwise the DLPSIM_CHECKED compile-time default.
bool ChecksEnabledByEnv();

/// Returns an owning checker when ChecksEnabledByEnv(), else nullptr.
std::unique_ptr<InvariantChecker> MakeCheckerFromEnv();

}  // namespace dlpsim::robust
