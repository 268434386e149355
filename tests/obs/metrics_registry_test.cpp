// Unit tests for the metrics table (obs/metrics.h): counter and
// histogram semantics, get-or-create identity, kind and bounds mismatch
// detection, merging, and hostile-name escaping in both export formats.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/json.h"

namespace dlpsim::obs {
namespace {

TEST(Counter, AddAndMerge) {
  Registry reg;
  std::uint64_t& c = reg.GetCounter("test", "adds");
  EXPECT_EQ(c, 0u);
  c += 1;
  c += 41;
  EXPECT_EQ(reg.CounterValue("test", "adds"), 42u);

  Registry other;
  other.GetCounter("test", "adds") = 8;
  reg.Merge(other);
  EXPECT_EQ(reg.CounterValue("test", "adds"), 50u);
  EXPECT_EQ(reg.CounterValue("test", "absent"), 0u);
}

TEST(Histogram, BucketBoundariesUseLeSemantics) {
  Registry reg;
  const std::uint64_t bounds[] = {0, 1, 4};
  Histogram& h = reg.GetHistogram("test", "occ", bounds);

  h.Observe(0);  // le=0 bucket: v <= 0
  h.Observe(1);  // le=1 bucket: exact bound lands inside it
  h.Observe(2);  // le=4 bucket
  h.Observe(4);  // le=4 bucket: exact bound again
  h.Observe(5);  // overflow (+Inf)
  h.Observe(1u << 30);

  const std::vector<std::uint64_t>& counts = h.buckets();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 2u);
  EXPECT_EQ(counts[3], 2u);
  EXPECT_EQ(h.Count(), 6u);
  EXPECT_EQ(h.Sum(), 0u + 1 + 2 + 4 + 5 + (1u << 30));
}

TEST(Histogram, RejectsNonIncreasingBounds) {
  Registry reg;
  const std::uint64_t bad[] = {1, 1};
  EXPECT_THROW(reg.GetHistogram("test", "bad", bad), std::logic_error);
  const std::uint64_t decreasing[] = {4, 2};
  EXPECT_THROW(reg.GetHistogram("test", "bad2", decreasing),
               std::logic_error);
  // A rejected histogram leaves no half-made entry behind.
  EXPECT_EQ(reg.size(), 0u);
}

TEST(Histogram, MergeAddsBucketsAndSums) {
  const std::uint64_t bounds[] = {1, 4};
  Histogram h(bounds);
  Histogram other(bounds);
  other.Observe(0);
  other.Observe(9);
  h.Observe(3);
  h.Merge(other);
  EXPECT_EQ(h.buckets(), (std::vector<std::uint64_t>{1, 1, 1}));
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.Sum(), 12u);
  const std::uint64_t other_bounds[] = {1, 8};
  EXPECT_THROW(h.Merge(Histogram(other_bounds)), std::logic_error);
}

TEST(Registry, GetOrCreateReturnsStablePointers) {
  Registry reg;
  std::uint64_t* a = &reg.GetCounter("cache", "hits", "help text");
  std::uint64_t* b = &reg.GetCounter("cache", "hits");
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.size(), 1u);

  const std::uint64_t bounds[] = {1, 2};
  Histogram* h1 = &reg.GetHistogram("cache", "occ", bounds);
  // Later registrations never move earlier entries.
  for (int i = 0; i < 100; ++i) reg.GetCounter("cache", std::to_string(i));
  Histogram* h2 = &reg.GetHistogram("cache", "occ", bounds);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(&reg.GetCounter("cache", "hits"), a);
  EXPECT_EQ(reg.FindHistogram("cache", "occ"), h1);
}

TEST(Registry, KindMismatchThrows) {
  Registry reg;
  reg.GetCounter("s", "n");
  const std::uint64_t bounds[] = {1};
  EXPECT_THROW(reg.GetHistogram("s", "n", bounds), std::logic_error);
  reg.GetHistogram("s", "h", bounds);
  EXPECT_THROW(reg.GetCounter("s", "h"), std::logic_error);
  EXPECT_EQ(reg.FindHistogram("s", "n"), nullptr);
  EXPECT_EQ(reg.CounterValue("s", "h"), 0u);
}

TEST(Registry, HistogramBoundsMismatchThrows) {
  Registry reg;
  const std::uint64_t bounds[] = {1, 2, 3};
  reg.GetHistogram("s", "h", bounds);
  const std::uint64_t other[] = {1, 2};
  EXPECT_THROW(reg.GetHistogram("s", "h", other), std::logic_error);

  Registry clash;
  clash.GetHistogram("s", "h", other);
  EXPECT_THROW(reg.Merge(clash), std::logic_error);
}

TEST(Registry, ScopeNameKeyNeverCollides) {
  // ("a", "b_c") and ("a_b", "c") would collide under naive "a_b_c"
  // joining; the \x1f key separator keeps them distinct.
  Registry reg;
  std::uint64_t* x = &reg.GetCounter("a", "b_c");
  std::uint64_t* y = &reg.GetCounter("a_b", "c");
  EXPECT_NE(x, y);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Registry, SnapshotSortedByScopeThenName) {
  Registry reg;
  reg.GetCounter("zeta", "a");
  reg.GetCounter("alpha", "b");
  reg.GetCounter("alpha", "a");
  std::ostringstream os;
  reg.WriteJson(os);
  bool ok = false;
  const JsonValue doc = ParseJson(os.str(), &ok);
  ASSERT_TRUE(ok);
  const std::vector<JsonValue>& m = doc.Find("metrics")->array;
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0].Find("scope")->string, "alpha");
  EXPECT_EQ(m[0].Find("name")->string, "a");
  EXPECT_EQ(m[1].Find("scope")->string, "alpha");
  EXPECT_EQ(m[1].Find("name")->string, "b");
  EXPECT_EQ(m[2].Find("scope")->string, "zeta");
}

TEST(Registry, MergeIsOrderIndependent) {
  // A grid's total must not depend on which cell finished first.
  const std::uint64_t bounds[] = {2, 8};
  std::vector<Registry> runs(3);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    runs[i].GetCounter("cache", "accesses", "help") = 10 * (i + 1);
    runs[i].GetHistogram("cache", "occ", bounds).Observe(3 * i);
  }
  runs[2].GetCounter("mem", "only_in_one_run") = 5;

  Registry forward;
  Registry backward;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    forward.Merge(runs[i]);
    backward.Merge(runs[runs.size() - 1 - i]);
  }
  std::ostringstream f;
  std::ostringstream b;
  forward.WriteText(f);
  backward.WriteText(b);
  EXPECT_EQ(f.str(), b.str());
  EXPECT_EQ(forward.CounterValue("cache", "accesses"), 60u);
  EXPECT_EQ(forward.CounterValue("mem", "only_in_one_run"), 5u);
  ASSERT_NE(forward.FindHistogram("cache", "occ"), nullptr);
  EXPECT_EQ(forward.FindHistogram("cache", "occ")->Count(), 3u);
  EXPECT_EQ(forward.FindHistogram("cache", "occ")->Sum(), 0u + 3 + 6);
}

// --- exposition formats ---

TEST(Exposition, PrometheusNameSanitizes) {
  EXPECT_EQ(PrometheusName("cache", "pl_decrements"),
            "dlpsim_cache_pl_decrements");
  EXPECT_EQ(PrometheusName("we ird", "na-me!"), "dlpsim_we_ird_na_me_");
}

TEST(Exposition, PrometheusLabelEscapes) {
  EXPECT_EQ(PrometheusLabelEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(Exposition, WriteTextEmitsHelpTypeAndHistogramSeries) {
  Registry reg;
  reg.GetCounter("cache", "hits", "L1D load hits") += 7;
  const std::uint64_t bounds[] = {1, 4};
  Histogram& h = reg.GetHistogram("cache", "occ", bounds);
  h.Observe(1);
  h.Observe(2);
  h.Observe(9);

  std::ostringstream os;
  reg.WriteText(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# HELP dlpsim_cache_hits L1D load hits"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dlpsim_cache_hits counter"), std::string::npos);
  EXPECT_NE(
      text.find("dlpsim_cache_hits{scope=\"cache\",name=\"hits\"} 7"),
      std::string::npos);
  // Cumulative bucket counts: le=1 -> 1, le=4 -> 2, +Inf -> 3.
  EXPECT_NE(text.find("le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("le=\"4\"} 2"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("dlpsim_cache_occ_sum{scope=\"cache\",name=\"occ\"} 12"),
            std::string::npos);
  EXPECT_NE(
      text.find("dlpsim_cache_occ_count{scope=\"cache\",name=\"occ\"} 3"),
      std::string::npos);
}

TEST(Exposition, HostileNamesSurviveEveryFormat) {
  Registry reg;
  const std::string scope = "we\"ird\\scope";
  const std::string name = "name,with\n\"hostility\"";
  reg.GetCounter(scope, name, "help \"quoted\"\nline") += 1;

  // Prometheus: label values escaped, metric name fully sanitized.
  std::ostringstream prom;
  reg.WriteText(prom);
  EXPECT_NE(prom.str().find("scope=\"we\\\"ird\\\\scope\""),
            std::string::npos);
  EXPECT_EQ(prom.str().find("name=\"name,with\n"), std::string::npos);

  // JSON: the document parses and round-trips the raw strings exactly.
  std::ostringstream json;
  reg.WriteJson(json);
  bool ok = false;
  const JsonValue doc = ParseJson(json.str(), &ok);
  ASSERT_TRUE(ok) << json.str();
  const JsonValue* metrics = doc.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->array.size(), 1u);
  EXPECT_EQ(metrics->array[0].Find("scope")->string, scope);
  EXPECT_EQ(metrics->array[0].Find("name")->string, name);
  EXPECT_EQ(metrics->array[0].U64("value"), 1u);
}

TEST(Exposition, WriteJsonParsesAndCarriesHistograms) {
  Registry reg;
  const std::uint64_t bounds[] = {2, 8};
  Histogram& h = reg.GetHistogram("mem", "burst", bounds, "burst size");
  h.Observe(1);
  h.Observe(8);
  h.Observe(100);
  reg.GetCounter("exec", "depth") = 2;

  std::ostringstream os;
  reg.WriteJson(os);
  bool ok = false;
  const JsonValue doc = ParseJson(os.str(), &ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(doc.Find("schema")->string, "dlpsim-metrics-v1");
  const JsonValue* metrics = doc.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->array.size(), 2u);
  // Sorted by scope: exec before mem.
  const JsonValue& counter = metrics->array[0];
  EXPECT_EQ(counter.Find("kind")->string, "counter");
  EXPECT_EQ(counter.U64("value"), 2u);
  const JsonValue& hist = metrics->array[1];
  EXPECT_EQ(hist.Find("kind")->string, "histogram");
  EXPECT_EQ(hist.Find("help")->string, "burst size");
  ASSERT_EQ(hist.Find("buckets")->array.size(), 3u);
  EXPECT_EQ(hist.Find("buckets")->array[0].number_u64, 1u);
  EXPECT_EQ(hist.Find("buckets")->array[1].number_u64, 1u);
  EXPECT_EQ(hist.Find("buckets")->array[2].number_u64, 1u);
  EXPECT_EQ(hist.U64("count"), 3u);
  EXPECT_EQ(hist.U64("sum"), 109u);
}

}  // namespace
}  // namespace dlpsim::obs
