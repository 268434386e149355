// Metrics table: integer counters and fixed-bucket histograms keyed by
// (scope, name), e.g. ("cache", "accesses").
//
// A table is a plain single-threaded value. The simulator builds one per
// run at dump time from its components' own counters
// (GpuSimulator::CounterTable), and a grid sums the per-run tables with
// Merge. Values are integers only, so merging is exact and commutative:
// the summed table does not depend on the order the runs finished in,
// which is what keeps a DLPSIM_METRICS dump byte-identical at any
// DLPSIM_JOBS.
//
// Export formats (both deterministic, sorted by scope then name):
//   WriteText - Prometheus-style text exposition (# HELP/# TYPE lines,
//               histogram _bucket{le=...}/_sum/_count series).
//   WriteJson - one self-describing JSON document.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dlpsim::obs {

enum class MetricKind : std::uint8_t { kCounter, kHistogram };

const char* ToString(MetricKind kind);

/// Fixed-bucket histogram over unsigned integer observations. Bucket i
/// counts observations v with v <= bounds[i] (and v > bounds[i-1]);
/// observations above the last bound land in the overflow (+Inf) bucket.
/// Bounds are fixed at construction, strictly increasing.
class Histogram {
 public:
  /// Throws std::logic_error unless `bounds` is strictly increasing.
  explicit Histogram(std::span<const std::uint64_t> bounds);

  void Observe(std::uint64_t v);

  /// Adds `other`'s observations. Throws std::logic_error when the bounds
  /// differ.
  void Merge(const Histogram& other);

  const std::vector<std::uint64_t>& bounds() const { return bounds_; }
  /// Per-bucket counts; size bounds().size() + 1, last = overflow.
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }
  std::uint64_t Count() const;  // total observations
  std::uint64_t Sum() const { return sum_; }

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t sum_ = 0;
};

class Registry {
 public:
  /// Get-or-create. The returned reference stays valid for the table's
  /// lifetime. Throws std::logic_error when (scope, name) is already
  /// registered as a histogram.
  std::uint64_t& GetCounter(std::string_view scope, std::string_view name,
                            std::string_view help = "");

  /// Get-or-create. Throws std::logic_error when (scope, name) is already
  /// registered as a counter or with different bounds.
  Histogram& GetHistogram(std::string_view scope, std::string_view name,
                          std::span<const std::uint64_t> bounds,
                          std::string_view help = "");

  /// Read-only lookups: 0 / nullptr when (scope, name) is absent or of
  /// the other kind.
  std::uint64_t CounterValue(std::string_view scope,
                             std::string_view name) const;
  const Histogram* FindHistogram(std::string_view scope,
                                 std::string_view name) const;

  /// Adds every entry of `other` into this table (creating missing ones).
  /// Throws std::logic_error on a kind or bounds clash.
  void Merge(const Registry& other);

  std::size_t size() const { return entries_.size(); }

  void WriteText(std::ostream& os) const;  // Prometheus exposition
  void WriteJson(std::ostream& os) const;

 private:
  struct Entry {
    std::string scope;
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::uint64_t counter = 0;
    std::optional<Histogram> histogram;
  };

  Entry& Emplace(std::string_view scope, std::string_view name,
                 std::string_view help, MetricKind kind);
  const Entry* Find(std::string_view scope, std::string_view name) const;

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

}  // namespace dlpsim::obs
