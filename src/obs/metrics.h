// Typed metrics registry: counters, gauges and fixed-bucket histograms
// with per-subsystem scopes ("cache", "icnt", "mem", "exec", ...).
//
// Instruments are registered once (GetCounter/GetGauge/GetHistogram are
// get-or-create and return stable pointers) and updated lock-free on the
// hot path: every instrument holds a fixed array of cache-line-padded
// per-thread shards, each thread hashes to one shard via a thread-local
// id, and updates are relaxed atomic adds. Because every merge operation
// is commutative (sums of unsigned/two's-complement integers, per-bucket
// sums for histograms), a Snapshot() -- which merges shards in shard-
// index order and sorts instruments by (scope, name) -- is byte-identical
// for any thread schedule that performs the same updates. That is the
// property the exec determinism suite pins: a grid run at DLPSIM_JOBS=1
// and DLPSIM_JOBS=8 must produce identical WriteText() dumps.
//
// Values are integers only (no float accumulation): floating-point adds
// do not commute bit-exactly, so a double-valued counter would break the
// byte-identity guarantee the registry exists to provide.
//
// Export formats (all deterministic, sorted by scope then name):
//   WriteText - Prometheus-style text exposition (# HELP/# TYPE lines,
//               histogram _bucket{le=...}/_sum/_count series).
//   WriteJson - one self-describing JSON document.
//   WriteCsv  - flat scope,name,kind,value rows (histograms one row per
//               bucket), with RFC-4180 quoting for hostile names.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <mutex>

namespace dlpsim::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

const char* ToString(MetricKind kind);

/// Number of per-thread shards per instrument. Threads beyond this many
/// wrap onto existing shards; updates stay correct (relaxed atomic adds)
/// and merged totals stay schedule-independent.
inline constexpr std::size_t kMetricShards = 64;

namespace detail {
/// One cache-line-padded accumulator slot (avoids false sharing between
/// worker threads updating the same instrument).
struct alignas(64) Slot {
  std::atomic<std::int64_t> v{0};
};

/// This thread's shard index in [0, kMetricShards).
std::size_t ThisShard();
}  // namespace detail

/// Monotone event counter. Add() is lock-free and wait-free.
class Counter {
 public:
  void Add(std::uint64_t n = 1) {
    slots_[detail::ThisShard()].v.fetch_add(static_cast<std::int64_t>(n),
                                            std::memory_order_relaxed);
  }

  /// Merged total over all shards (shard-index order; sums commute).
  std::uint64_t Value() const;

  void Reset();

 private:
  std::array<detail::Slot, kMetricShards> slots_;
};

/// Up/down instrument for occupancy-style values (queue depth, jobs in
/// flight). The merged Value() is the net sum of all Add/Sub calls, so it
/// is deterministic exactly at quiescent points (e.g. after a pool
/// drained: every Add has been matched by its Sub on some shard).
class Gauge {
 public:
  void Add(std::int64_t d = 1) {
    slots_[detail::ThisShard()].v.fetch_add(d, std::memory_order_relaxed);
  }
  void Sub(std::int64_t d = 1) { Add(-d); }

  std::int64_t Value() const;

  void Reset();

 private:
  std::array<detail::Slot, kMetricShards> slots_;
};

/// Fixed-bucket histogram over unsigned integer observations. Bucket i
/// counts observations v with v <= bounds[i] (and v > bounds[i-1]);
/// observations above the last bound land in the overflow (+Inf) bucket.
/// Bounds are fixed at registration, strictly increasing.
class Histogram {
 public:
  explicit Histogram(std::span<const std::uint64_t> bounds);

  void Observe(std::uint64_t v);

  const std::vector<std::uint64_t>& bounds() const { return bounds_; }

  /// Merged per-bucket counts; size bounds().size() + 1, last = overflow.
  std::vector<std::uint64_t> BucketCounts() const;
  std::uint64_t Count() const;  // total observations
  std::uint64_t Sum() const;    // sum of observed values

  void Reset();

 private:
  std::vector<std::uint64_t> bounds_;
  // Shard-major layout: shard s, bucket b at [s * (buckets + 1) + b];
  // the extra slot per shard is the observed-value sum.
  std::vector<detail::Slot> slots_;
  std::size_t stride_ = 0;
};

/// Identity + metadata of one registered instrument.
struct MetricInfo {
  std::string scope;
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
};

/// One merged instrument value at Snapshot() time.
struct MetricSample {
  MetricInfo info;
  std::uint64_t counter = 0;                // kCounter
  std::int64_t gauge = 0;                   // kGauge
  std::vector<std::uint64_t> bounds;        // kHistogram
  std::vector<std::uint64_t> bucket_counts; // size bounds+1, last = +Inf
  std::uint64_t count = 0;                  // kHistogram observations
  std::uint64_t sum = 0;                    // kHistogram value sum
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create; the returned pointer is stable for the registry's
  /// lifetime and safe to cache in constructors. Throws std::logic_error
  /// when (scope, name) is already registered with a different kind (or,
  /// for histograms, different bounds).
  Counter* GetCounter(std::string_view scope, std::string_view name,
                      std::string_view help = "");
  Gauge* GetGauge(std::string_view scope, std::string_view name,
                  std::string_view help = "");
  Histogram* GetHistogram(std::string_view scope, std::string_view name,
                          std::span<const std::uint64_t> bounds,
                          std::string_view help = "");

  /// Merged values of every instrument, sorted by (scope, name).
  std::vector<MetricSample> Snapshot() const;

  /// Zeroes every instrument's accumulators; registrations (and handed-
  /// out pointers) stay valid. Callers must quiesce updaters first.
  void Reset();

  std::size_t size() const;

  void WriteText(std::ostream& os) const;  // Prometheus exposition
  void WriteJson(std::ostream& os) const;
  void WriteCsv(std::ostream& os) const;

  /// The process-wide registry the simulator subsystems register into.
  static Registry& Global();

 private:
  struct Entry {
    MetricInfo info;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrNull(const std::string& key);

  mutable std::mutex mu_;
  // Keyed "scope\x1f<name>": std::map iteration is already the stable
  // (scope, name) order every exporter needs.
  std::map<std::string, Entry> entries_;
};

/// Sanitized Prometheus metric name: "dlpsim_<scope>_<name>" with every
/// character outside [a-zA-Z0-9_] replaced by '_' (and a leading '_' when
/// the result would start with a digit).
std::string PrometheusName(std::string_view scope, std::string_view name);

/// Escapes a Prometheus label value (backslash, double quote, newline).
std::string PrometheusLabelEscape(std::string_view s);

/// RFC-4180 CSV field: quoted (with doubled quotes) when the value
/// contains a comma, quote, CR or LF; verbatim otherwise.
std::string CsvField(std::string_view s);

}  // namespace dlpsim::obs
