// Unit tests for the DLPSIM_PROGRESS heartbeat (obs/progress.h) and its
// integration with the watchdog's StallDiagnostic: a simulator that
// stalls must quote its last heartbeat line in the stall report.
#include "obs/progress.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/json.h"
#include "robust/watchdog.h"

namespace dlpsim::obs {
namespace {

TEST(ProgressMeter, DueFollowsIntervalGrid) {
  std::ostringstream os;
  ProgressMeter meter(1000, "BFS/dlp", &os);
  EXPECT_EQ(meter.next_due(), 1000u);

  ProgressSample s;
  s.cycle = 1000;
  meter.Emit(s);
  EXPECT_EQ(meter.next_due(), 2000u);

  // A sample far past several due points advances past all of them.
  s.cycle = 5300;
  meter.Emit(s);
  EXPECT_EQ(meter.next_due(), 6000u);
}

TEST(ProgressMeter, EmitFormatsLabelCycleAndWarps) {
  std::ostringstream os;
  ProgressMeter meter(100, "HS/base", &os);
  ProgressSample s;
  s.cycle = 200;
  s.accesses = 1234;
  s.warps_total = 512;
  s.warps_finished = 128;
  meter.Emit(s);

  const std::string line = meter.last_line();
  EXPECT_EQ(os.str(), line + "\n");
  EXPECT_NE(line.find("[progress] HS/base cycle=200"), std::string::npos);
  EXPECT_NE(line.find("warps=128/512"), std::string::npos);
  EXPECT_NE(line.find("acc/s="), std::string::npos);
  // 0 < finished < total => an ETA estimate is present.
  EXPECT_NE(line.find("eta="), std::string::npos);
}

TEST(ProgressMeter, NoEtaBeforeFirstFinishedWarp) {
  std::ostringstream os;
  ProgressMeter meter(100, "", &os);
  ProgressSample s;
  s.cycle = 100;
  s.warps_total = 64;
  s.warps_finished = 0;
  meter.Emit(s);
  EXPECT_EQ(meter.last_line().find("eta="), std::string::npos);
}

TEST(ProgressMeter, LastLineEmptyBeforeFirstEmit) {
  std::ostringstream os;
  ProgressMeter meter(100, "x", &os);
  EXPECT_TRUE(meter.last_line().empty());
}

TEST(ProgressMeter, ZeroIntervalClampsToOne) {
  std::ostringstream os;
  ProgressMeter meter(0, "", &os);
  EXPECT_EQ(meter.interval(), 1u);
  EXPECT_EQ(meter.next_due(), 1u);
}

TEST(StallDiagnostic, CarriesLastHeartbeatInTextAndJson) {
  robust::StallDiagnostic d;
  d.trip_cycle = 500000;
  d.last_progress_cycle = 400000;
  d.last_heartbeat = "[progress] BFS/dlp cycle=400000 acc/s=12 warps=1/512";

  const std::string text = d.ToText();
  EXPECT_NE(text.find("last heartbeat: [progress] BFS/dlp cycle=400000"),
            std::string::npos);

  std::ostringstream os;
  d.WriteJson(os);
  bool ok = false;
  const dlpsim::JsonValue doc = dlpsim::ParseJson(os.str(), &ok);
  ASSERT_TRUE(ok) << os.str();
  ASSERT_NE(doc.Find("last_heartbeat"), nullptr);
  EXPECT_EQ(doc.Find("last_heartbeat")->string, d.last_heartbeat);
}

TEST(StallDiagnostic, OmitsHeartbeatLineWhenNeverEmitted) {
  robust::StallDiagnostic d;
  EXPECT_EQ(d.ToText().find("last heartbeat"), std::string::npos);
}

}  // namespace
}  // namespace dlpsim::obs
