// Ring-buffer semantics of the event sink: ordering, wrap/overflow
// accounting, cycle stamping and kind filtering.
#include "obs/event_sink.h"

#include <gtest/gtest.h>

namespace dlpsim {
namespace {

Event Ev(EventKind kind, std::uint64_t arg0 = 0) {
  Event e;
  e.kind = kind;
  e.arg0 = arg0;
  return e;
}

TEST(EventSink, StoresEventsInOrderBelowCapacity) {
  EventSink sink(8);
  EXPECT_TRUE(sink.empty());
  for (std::uint64_t i = 0; i < 5; ++i) {
    sink.SetNow(100 + i);
    sink.Emit(Ev(EventKind::kAccess, i));
  }
  EXPECT_EQ(sink.size(), 5u);
  EXPECT_EQ(sink.total_emitted(), 5u);
  EXPECT_EQ(sink.dropped(), 0u);

  const auto events = sink.InOrder();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].arg0, i);
    EXPECT_EQ(events[i].cycle, 100 + i);  // stamped from SetNow
  }
}

TEST(EventSink, WrapOverwritesOldestAndCountsDrops) {
  EventSink sink(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    sink.SetNow(i);
    sink.Emit(Ev(EventKind::kAccess, i));
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.capacity(), 4u);
  EXPECT_EQ(sink.total_emitted(), 10u);
  EXPECT_EQ(sink.dropped(), 6u);

  // The four *youngest* events survive, oldest-first.
  const auto events = sink.InOrder();
  ASSERT_EQ(events.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].arg0, 6 + i);
    EXPECT_EQ(events[i].cycle, 6 + i);
  }
}

TEST(EventSink, ExactlyFullDoesNotDrop) {
  EventSink sink(3);
  for (std::uint64_t i = 0; i < 3; ++i) {
    sink.Emit(Ev(EventKind::kFill, i));
  }
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(sink.InOrder().front().arg0, 0u);
  EXPECT_EQ(sink.InOrder().back().arg0, 2u);
}

TEST(EventSink, KindFilters) {
  EventSink sink(16);
  sink.Emit(Ev(EventKind::kAccess));
  sink.Emit(Ev(EventKind::kBypass));
  sink.Emit(Ev(EventKind::kAccess));
  sink.Emit(Ev(EventKind::kEviction));
  EXPECT_EQ(sink.CountKind(EventKind::kAccess), 2u);
  EXPECT_EQ(sink.CountKind(EventKind::kBypass), 1u);
  EXPECT_EQ(sink.CountKind(EventKind::kPdSample), 0u);
  EXPECT_EQ(sink.OfKind(EventKind::kEviction).size(), 1u);
}

TEST(EventSink, ClearResetsEverything) {
  EventSink sink(2);
  sink.Emit(Ev(EventKind::kAccess));
  sink.Emit(Ev(EventKind::kAccess));
  sink.Emit(Ev(EventKind::kAccess));
  sink.Clear();
  EXPECT_TRUE(sink.empty());
  EXPECT_EQ(sink.total_emitted(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_TRUE(sink.InOrder().empty());
}

TEST(EventSink, ZeroCapacityIsClampedToOne) {
  EventSink sink(0);
  EXPECT_EQ(sink.capacity(), 1u);
  sink.Emit(Ev(EventKind::kAccess, 1));
  sink.Emit(Ev(EventKind::kAccess, 2));
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.InOrder()[0].arg0, 2u);
}

TEST(EventSink, KindNames) {
  EXPECT_STREQ(ToString(EventKind::kAccess), "access");
  EXPECT_STREQ(ToString(EventKind::kBypass), "bypass");
  EXPECT_STREQ(ToString(EventKind::kEviction), "eviction");
  EXPECT_STREQ(ToString(EventKind::kFill), "fill");
  EXPECT_STREQ(ToString(EventKind::kVtaHit), "vta_hit");
  EXPECT_STREQ(ToString(EventKind::kPdSample), "pd_sample");
  EXPECT_STREQ(ToString(EventKind::kPlSaturated), "pl_saturated");
}

}  // namespace
}  // namespace dlpsim
