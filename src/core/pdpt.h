// Protection Distance Prediction Table (paper §4.1.3) and the Fig. 9
// protection-distance computation (§4.2).
//
// The PDPT has 128 entries indexed by the hashed PC ("instruction ID") of
// a load. Each entry holds saturating TDA/VTA hit counters for the current
// sample and the instruction's current protection distance. At the end of
// each sample the PD update runs:
//
//   if (global VTA hits > global TDA hits)           // under-protected
//     for each insn: PD += Nasc * step(HitVTA/HitTDA)   (clamped to pd_max)
//   else if (global VTA hits < global TDA hits / 2)  // lines hit enough
//     for each insn: PD -= Nasc                         (clamped to 0)
//   else: hold
//
// step() is the paper's shift-based "step comparison" replacing a divide:
// HitVTA is compared against 4x, 2x, 1x and 1/2x HitTDA and the adjustment
// is 4*Nasc, 2*Nasc, Nasc, Nasc/2 respectively (upper limit 4*Nasc).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/config.h"
#include "sim/types.h"

namespace dlpsim {

/// Saturating hit counter (the PDPT's hardware counters saturate; paper
/// §4.3 gives their widths).
class SaturatingCounter {
 public:
  explicit SaturatingCounter(std::uint32_t bits = 8)
      : max_((bits >= 32) ? 0xffffffffu : ((1u << bits) - 1u)) {}

  void Increment() {
    if (value_ < max_) ++value_;
  }
  void Reset() { value_ = 0; }
  std::uint32_t value() const { return value_; }
  std::uint32_t max() const { return max_; }

 private:
  std::uint32_t max_;
  std::uint32_t value_ = 0;
};

class PdpTable {
 public:
  /// `nasc` is the VTA associativity (paper: equals the TDA's).
  PdpTable(const ProtectionConfig& cfg, std::uint32_t nasc);

  std::uint32_t IndexOf(Pc pc) const {
    return HashPc(pc, cfg_.insn_id_bits) % cfg_.pdpt_entries;
  }

  // --- per-access bookkeeping ---
  void CreditTdaHit(std::uint32_t insn_id);
  void CreditVtaHit(std::uint32_t insn_id);

  /// Current protection distance for an instruction ID.
  std::uint32_t Pd(std::uint32_t insn_id) const {
    return entries_[insn_id].pd;
  }
  std::uint32_t PdForPc(Pc pc) const { return Pd(IndexOf(pc)); }

  // --- sampling ---
  /// Runs the Fig. 9 update over all entries and resets the sample's hit
  /// counters. Returns which path was taken (tests/ablation reporting).
  enum class UpdatePath { kIncrease, kDecrease, kHold };
  UpdatePath EndSample();

  /// The step-comparison adjustment for one instruction (exposed for unit
  /// tests; pure function of the two counters).
  std::uint32_t StepAdjustment(std::uint32_t vta_hits,
                               std::uint32_t tda_hits) const;

  std::uint64_t global_tda_hits() const { return global_tda_hits_; }
  std::uint64_t global_vta_hits() const { return global_vta_hits_; }

  std::uint32_t tda_hits(std::uint32_t insn_id) const {
    return entries_[insn_id].tda_hits.value();
  }
  std::uint32_t vta_hits(std::uint32_t insn_id) const {
    return entries_[insn_id].vta_hits.value();
  }

  std::uint32_t size() const { return cfg_.pdpt_entries; }
  std::uint32_t nasc() const { return nasc_; }
  std::uint32_t pd_max() const { return cfg_.pd_max(); }

  /// Mean protection distance over all entries (telemetry).
  double MeanPd() const;

  /// Resets PDs and counters (between kernels).
  void Clear();

  /// Overwrites one entry's protection distance, clamped to pd_max().
  /// Fault-injection hook (robust/): models a bit flip in the PDPT's PD
  /// field. Never called on the normal simulation path.
  void OverridePd(std::uint32_t insn_id, std::uint32_t pd) {
    entries_[insn_id].pd = pd > pd_max() ? pd_max() : pd;
  }

  // Lifetime statistics for reporting.
  std::uint64_t samples_taken = 0;
  std::uint64_t increase_samples = 0;
  std::uint64_t decrease_samples = 0;

 private:
  struct Entry {
    SaturatingCounter tda_hits;
    SaturatingCounter vta_hits;
    std::uint32_t pd = 0;
    Entry(std::uint32_t tda_bits, std::uint32_t vta_bits)
        : tda_hits(tda_bits), vta_hits(vta_bits) {}
  };

  ProtectionConfig cfg_;
  std::uint32_t nasc_;
  std::vector<Entry> entries_;
  // Global (per-sample) hit totals. Wider than the per-entry counters so
  // the global comparison is exact.
  std::uint64_t global_tda_hits_ = 0;
  std::uint64_t global_vta_hits_ = 0;
};

/// Tracks when a sample ends: after `sample_accesses` cache accesses, or
/// after `sample_max_cycles` core cycles for load-starved (CS) kernels
/// (paper §4.1.4).
class SampleWindow {
 public:
  explicit SampleWindow(const ProtectionConfig& cfg) : cfg_(cfg) {}

  /// Called once per cache access. Returns true when the sample is due.
  bool OnAccess(Cycle now) {
    if (start_valid_ == false) {
      start_cycle_ = now;
      start_valid_ = true;
    }
    ++accesses_;
    return Due(now);
  }

  /// Time-based check (callable from the core clock without an access).
  bool Due(Cycle now) const {
    if (accesses_ >= cfg_.sample_accesses) return true;
    return start_valid_ && accesses_ > 0 &&
           now - start_cycle_ >= cfg_.sample_max_cycles;
  }

  void Restart(Cycle now) {
    accesses_ = 0;
    start_cycle_ = now;
    start_valid_ = true;
  }

  std::uint32_t accesses() const { return accesses_; }

 private:
  ProtectionConfig cfg_;
  std::uint32_t accesses_ = 0;
  Cycle start_cycle_ = 0;
  bool start_valid_ = false;
};

}  // namespace dlpsim
