// JsonWriter / ParseJson unit tests plus the report round-trip: a
// WriteJsonReport document must parse back and reproduce every Metrics
// counter exactly.
#include "obs/json.h"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/exporters.h"
#include "obs/timeline.h"
#include "obs/event_sink.h"
#include "sim/config.h"

namespace dlpsim {
namespace {

TEST(JsonWriter, EscapesStrings) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriter, NestedDocument) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.KV("name", "dlp");
  w.KV("count", std::uint64_t{42});
  w.KV("rate", 0.5);
  w.KV("on", true);
  w.Key("list").BeginArray().Value(std::uint64_t{1}).Value(std::uint64_t{2});
  w.EndArray();
  w.Key("inner").BeginObject().KV("x", std::int64_t{-3}).EndObject();
  w.EndObject();
  EXPECT_EQ(w.depth(), 0u);

  bool ok = false;
  const JsonValue v = ParseJson(os.str(), &ok);
  ASSERT_TRUE(ok);
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.Find("name")->string, "dlp");
  EXPECT_EQ(v.U64("count"), 42u);
  EXPECT_DOUBLE_EQ(v.Find("rate")->number, 0.5);
  EXPECT_TRUE(v.Find("on")->boolean);
  ASSERT_TRUE(v.Find("list")->is_array());
  EXPECT_EQ(v.Find("list")->array.size(), 2u);
  EXPECT_EQ(v.Find("inner")->U64("x"), 0u);  // negative: no exact u64
  EXPECT_DOUBLE_EQ(v.Find("inner")->Find("x")->number, -3.0);
}

TEST(ParseJson, LargeCountersSurviveExactly) {
  bool ok = false;
  const JsonValue v = ParseJson(R"({"big": 18446744073709551615})", &ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(v.U64("big"), 18446744073709551615ull);
}

TEST(ParseJson, RejectsGarbage) {
  bool ok = true;
  ParseJson("{", &ok);
  EXPECT_FALSE(ok);
  ok = true;
  ParseJson("{\"a\": 1} trailing", &ok);
  EXPECT_FALSE(ok);
  ok = true;
  ParseJson("", &ok);
  EXPECT_FALSE(ok);
  ok = true;
  ParseJson("[1, 2,]", &ok);
  EXPECT_FALSE(ok);
}

TEST(ParseJson, StringEscapes) {
  bool ok = false;
  const JsonValue v = ParseJson(R"({"s": "AB\n\t\"x\""})", &ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(v.Find("s")->string, "AB\n\t\"x\"");
}

Metrics SampleMetrics() {
  Metrics m;
  std::uint64_t seed = 7;
  // Give every reflected counter a distinct nonzero value.
  for (const MetricsField& f : MetricsFields()) {
    m.*(f.member) = seed;
    seed = seed * 31 + 11;
  }
  return m;
}

TEST(JsonReport, RoundTripsMetricsFields) {
  const Metrics m = SampleMetrics();
  const SimConfig cfg = SimConfig::WithPolicy(PolicyKind::kDlp);
  const RunReportInfo info{.app = "BFS", .config = "dlp", .scale = 0.5};

  EventSink sink(8);
  sink.SetNow(10);
  sink.Emit(Event{.kind = EventKind::kAccess});

  TimelineSampler timeline(100);
  timeline.Record(100, m, PolicySnapshot{});

  std::ostringstream os;
  WriteJsonReport(os, info, cfg, m, &timeline, &sink);

  bool ok = false;
  const JsonValue v = ParseJson(os.str(), &ok);
  ASSERT_TRUE(ok) << os.str();
  ASSERT_TRUE(v.is_object());

  EXPECT_EQ(v.Find("schema")->string, "dlpsim-report-v2");
  EXPECT_EQ(v.Find("app")->string, "BFS");
  EXPECT_EQ(v.Find("config")->string, "dlp");
  EXPECT_DOUBLE_EQ(v.Find("scale")->number, 0.5);

  const JsonValue* metrics = v.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  for (const MetricsField& f : MetricsFields()) {
    ASSERT_NE(metrics->Find(f.name), nullptr) << f.name;
    EXPECT_EQ(metrics->U64(f.name), m.*(f.member)) << f.name;
  }

  const JsonValue* sim = v.Find("sim_config");
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(sim->Find("policy")->string, ToString(cfg.l1d.policy));
  EXPECT_EQ(sim->U64("num_cores"), cfg.num_cores);
  EXPECT_EQ(sim->Find("l1d")->U64("sets"), cfg.l1d.geom.sets);

  EXPECT_EQ(v.Find("trace"), nullptr);
  const JsonValue* events = v.Find("events");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->U64("retained"), 1u);
  EXPECT_EQ(events->U64("total_emitted"), 1u);
  EXPECT_EQ(events->U64("dropped"), 0u);

  const JsonValue* tl = v.Find("timeline");
  ASSERT_NE(tl, nullptr);
  EXPECT_EQ(tl->U64("interval"), 100u);
  ASSERT_TRUE(tl->Find("samples")->is_array());
  ASSERT_EQ(tl->Find("samples")->array.size(), 1u);
  const JsonValue& sample = tl->Find("samples")->array[0];
  EXPECT_EQ(sample.U64("cycle"), 100u);
  // First sample: delta == cumulative == the metrics we recorded.
  for (const MetricsField& f : MetricsFields()) {
    EXPECT_EQ(sample.Find("delta")->U64(f.name), m.*(f.member)) << f.name;
    EXPECT_EQ(sample.Find("cumulative")->U64(f.name), m.*(f.member)) << f.name;
  }
}

TEST(ChromeTrace, IsParseableAndShapedRight) {
  EventSink sink(16);
  sink.SetNow(5);
  sink.Emit(Event{.arg0 = 0, .kind = EventKind::kAccess});
  sink.SetNow(6);
  sink.Emit(Event{.arg0 = 1, .sm = 1, .kind = EventKind::kBypass});

  TimelineSampler timeline(50);
  timeline.Record(50, Metrics{}, PolicySnapshot{});

  std::ostringstream os;
  WriteChromeTrace(os, sink, &timeline, 2);

  bool ok = false;
  const JsonValue v = ParseJson(os.str(), &ok);
  ASSERT_TRUE(ok) << os.str();
  const JsonValue* events = v.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::size_t meta = 0, instant = 0, counters = 0;
  for (const JsonValue& e : events->array) {
    const std::string& ph = e.Find("ph")->string;
    if (ph == "M") ++meta;
    if (ph == "i") ++instant;
    if (ph == "C") ++counters;
  }
  EXPECT_EQ(meta, 3u);     // process_name + 2 thread_name records
  EXPECT_EQ(instant, 2u);  // one per event
  EXPECT_EQ(counters, 4u); // 4 counter tracks x 1 sample
}

}  // namespace
}  // namespace dlpsim
