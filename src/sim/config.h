// Simulation configuration structs. Defaults encode Table 1 of the paper
// (Tesla M2090 / Fermi as configured in GPGPU-Sim).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "sim/types.h"

namespace dlpsim {

/// One structured validation finding: which field is wrong and why.
struct ConfigIssue {
  std::string field;    // dotted path, e.g. "l1d.geom.sets"
  std::string message;  // human-readable constraint, e.g. "must be a power of two (got 33)"

  std::string ToString() const { return field + ": " + message; }
};

/// Thrown by ValidateOrThrow(): carries every issue found, not just the
/// first, so a misconfigured sweep can be fixed in one pass.
class ConfigError : public std::invalid_argument {
 public:
  explicit ConfigError(std::vector<ConfigIssue> issues);
  const std::vector<ConfigIssue>& issues() const { return issues_; }

 private:
  std::vector<ConfigIssue> issues_;
};

/// Which L1D management scheme to run (paper §5.3).
enum class PolicyKind : std::uint8_t {
  kBaseline,          // plain LRU, stall on reservation failure
  kStallBypass,       // bypass whenever the access would stall
  kGlobalProtection,  // single global protection distance (PDP emulation)
  kDlp,               // per-instruction protection distances (the paper)
};

const char* ToString(PolicyKind k);

/// How cache set indices are derived from addresses.
enum class IndexFunction : std::uint8_t {
  kLinear,  // bits directly above the line offset
  kHash,    // xor-folded bits (paper Table 1: L1D uses "Hash index")
};

/// Geometry + behaviour of one cache (L1D or an L2 slice).
struct CacheGeometry {
  std::uint32_t sets = 32;
  std::uint32_t ways = 4;
  std::uint32_t line_bytes = 128;
  IndexFunction index = IndexFunction::kHash;

  std::uint32_t num_lines() const { return sets * ways; }
  std::uint64_t size_bytes() const {
    return static_cast<std::uint64_t>(sets) * ways * line_bytes;
  }

  /// Structural constraints (power-of-two sets/line size, nonzero ways);
  /// `prefix` labels the owning cache in the issue's field path.
  void AppendIssues(const std::string& prefix,
                    std::vector<ConfigIssue>& issues) const;
};

/// DLP / Global-Protection tunables (paper §4).
struct ProtectionConfig {
  // Sampling (paper §4.1.4): a sample ends after this many cache accesses.
  std::uint32_t sample_accesses = 200;
  // CS applications with few loads would otherwise sample forever; the
  // paper caps sampling by instructions executed. We use core cycles as
  // the equivalent observable at the cache boundary.
  std::uint64_t sample_max_cycles = 50000;
  // PDPT size: 128 entries, 7-bit hashed instruction IDs (paper §4.1.3).
  std::uint32_t pdpt_entries = 128;
  std::uint32_t insn_id_bits = 7;
  // PD / PL field width: 4 bits (paper §4.3) -> values clamped to [0, 15].
  std::uint32_t pd_bits = 4;
  // VTA: same number of sets as the TDA; associativity equals the TDA's
  // (paper footnote 2). 0 means "mirror the TDA associativity".
  std::uint32_t vta_ways = 0;
  // Saturating hit counters: TDA hits 8 bits, VTA hits 10 bits (§4.3).
  std::uint32_t tda_hit_bits = 8;
  std::uint32_t vta_hit_bits = 10;

  std::uint32_t pd_max() const { return (1u << pd_bits) - 1u; }
};

/// Store handling in the L1D.
enum class WritePolicy : std::uint8_t {
  kWriteEvict,      // store hit invalidates the line; all stores go to L2
  kWriteBackOnHit,  // store hit dirties the line; misses write through
};

/// L1D front-end configuration.
struct L1DConfig {
  CacheGeometry geom;  // 16KB: 32 sets x 4 ways x 128B
  WritePolicy write_policy = WritePolicy::kWriteBackOnHit;
  std::uint32_t mshr_entries = 32;  // GPGPU-Sim Fermi L1D default
  std::uint32_t mshr_max_merged = 8;
  std::uint32_t miss_queue_entries = 8;
  std::uint32_t hit_latency = 1;  // core cycles
  ProtectionConfig prot;
  PolicyKind policy = PolicyKind::kBaseline;

  /// L1D-level constraints (geometry, MSHR/miss-queue sizing vs the write
  /// policy, protection-table consistency). Used by SimConfig::Validate()
  /// and directly by cache-only drivers (TraceReplayer).
  std::vector<ConfigIssue> Validate() const;
  void ValidateOrThrow() const;
};

/// One L2 slice (per memory partition). Table 1: 768KB total over 12
/// partitions = 64KB per slice = 64 sets x 8 ways x 128B, linear index.
struct L2Config {
  CacheGeometry geom{64, 8, 128, IndexFunction::kLinear};
  std::uint32_t mshr_entries = 64;
  std::uint32_t mshr_max_merged = 8;
  std::uint32_t miss_queue_entries = 8;
  std::uint32_t latency = 150;  // memory-domain cycles from input to hit reply
};

/// Simplified GDDR5 bank timing (memory-domain cycles).
struct DramConfig {
  std::uint32_t banks = 6;          // Table 1: 6 banks / partition
  std::uint32_t row_bytes = 2048;   // row-buffer reach
  std::uint32_t t_row_hit = 60;     // column-access latency (CAS + I/O)
  std::uint32_t t_row_miss = 160;   // precharge + activate + CAS latency
  std::uint32_t t_rc = 37;          // bank occupancy of a row miss (tRC)
  // Effective data-bus bandwidth per partition in bytes per memory-domain
  // cycle. 177.4 GB/s / 12 partitions / 924 MHz ~= 16 B/cycle (the 32-bit
  // GDDR5 bus runs at a multiplied data rate).
  std::uint32_t bus_bytes_per_cycle = 16;
};

/// Crossbar interconnect configuration.
struct IcntConfig {
  std::uint32_t latency = 60;                 // icnt-domain cycles per hop
  std::uint32_t bytes_per_cycle_per_port = 32;  // per SM / per partition
  std::uint32_t request_size = 8;             // read-request packet bytes
  std::uint32_t control_overhead = 8;         // header bytes on data packets
};

/// SM core configuration (Table 1).
struct CoreConfig {
  std::uint32_t warp_size = 32;
  std::uint32_t max_warps = 48;
  std::uint32_t num_schedulers = 2;  // GTO
  std::uint32_t ldst_width = 1;      // L1D transactions accepted per cycle
  std::uint32_t ldst_queue_entries = 8;  // pending warp memory ops
  std::uint32_t alu_latency = 10;    // result latency of a default ALU op
  std::uint32_t sfu_latency = 20;
};

/// Whole-GPU configuration (Table 1 defaults).
struct SimConfig {
  std::uint32_t num_cores = 16;
  std::uint32_t num_partitions = 12;
  CoreConfig core;
  L1DConfig l1d;
  L2Config l2;
  DramConfig dram;
  IcntConfig icnt;

  // Clock domains in MHz (Table 1: core/icnt 650, memory 924).
  double core_mhz = 650.0;
  double icnt_mhz = 650.0;
  double mem_mhz = 924.0;

  // Address interleaving granularity across partitions.
  std::uint32_t partition_chunk_bytes = 256;

  // Background (L1I/L1C/L1T) interconnect traffic: bytes injected per
  // SM per `other_traffic_per_insns` committed warp instructions. This
  // models the paper's observation (§6.4) that the icnt also serves the
  // other L1 caches, diluting L1D traffic reductions.
  std::uint32_t other_traffic_bytes = 136;
  std::uint32_t other_traffic_per_insns = 50;

  // Safety cap so no experiment can hang: simulation aborts after this
  // many core cycles even if warps have not drained.
  Cycle max_core_cycles = 3'000'000;

  /// Which memory partition services a byte address. The chunk index is
  /// hashed before the modulo, as Fermi hashes its partition selection:
  /// plain interleaving makes any access stride that is a multiple of
  /// num_partitions * chunk camp on a single partition (and warp-strided
  /// GPU layouts hit exactly that).
  PartitionId PartitionOf(Addr addr) const {
    const Addr chunk = addr / partition_chunk_bytes;
    return static_cast<PartitionId>(SplitMix64(chunk) % num_partitions);
  }

  /// Convenience: named presets used throughout tests and benches.
  static SimConfig Baseline16KB();   // Table 1 exactly
  static SimConfig Cache32KB();      // 8-way, same sets (paper §5.3)
  static SimConfig Cache64KB();      // 16-way, same sets (Fig. 4/5)
  static SimConfig WithPolicy(PolicyKind k);  // baseline geometry + policy

  /// Whole-config structural validation. Returns every violated
  /// constraint (empty = valid); a bad config would otherwise produce UB
  /// (non-power-of-two set indexing), a guaranteed livelock (a write-back
  /// L1D whose miss queue cannot ever fit a dirty miss) or nonsense
  /// metrics (zero clocks). GpuSimulator's constructor calls
  /// ValidateOrThrow() so experiments fail fast with a structured error.
  std::vector<ConfigIssue> Validate() const;
  void ValidateOrThrow() const;
};

/// Canonical, field-complete text form of a SimConfig: one "dotted.path
/// value" line per field, in a fixed order. Two configs serialize to the
/// same text iff every simulation-relevant field matches, so hashing this
/// text gives a content address for "the exact machine that was
/// simulated" (the bench result cache keys on it, see bench/harness.h).
/// Extend this function whenever SimConfig grows a field;
/// tests/sim/config_test.cpp pins that edits to representative fields in
/// every sub-struct change the text.
std::string CanonicalText(const SimConfig& cfg);

}  // namespace dlpsim
