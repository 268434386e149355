// Differential determinism (ISSUE satellite): one golden app recorded at
// scale 0.02, replayed from its TEXT form and its PACKED form, across a
// config sweep, at jobs=1 and jobs=8 -- every combination must produce
// byte-identical golden-style JSON and byte-identical obs registry
// dumps. This pins the whole chain at once: recorder -> writer -> file
// -> source -> replayer is lossless, and the replay path stays
// schedule-independent like the rest of the simulator.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exec/run_grid.h"
#include "gpu/simulator.h"
#include "obs/metrics.h"
#include "sim/config.h"
#include "trace/recorder.h"
#include "trace/source.h"
#include "trace/writer.h"
#include "analysis/trace_replay.h"
#include "verify/golden.h"
#include "workloads/registry.h"

namespace dlpsim::trace {
namespace {

constexpr double kScale = 0.02;
constexpr const char* kApp = "BFS";  // golden app: in Table 2 / AllApps()

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> next{0};
    dir_ = std::filesystem::temp_directory_path() /
           ("dlpsim_trace_diff_" + std::to_string(::getpid()) + "_" + tag +
            "_" + std::to_string(next.fetch_add(1)));
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

/// The replay config sweep: the four management schemes of the paper.
std::vector<std::pair<std::string, PolicyKind>> Sweep() {
  return {{"base", PolicyKind::kBaseline},
          {"sb", PolicyKind::kStallBypass},
          {"gp", PolicyKind::kGlobalProtection},
          {"dlp", PolicyKind::kDlp}};
}

/// Replays `path` (either format) across the sweep with `jobs` workers
/// and renders the results as (a) a golden-snapshot JSON string and (b)
/// an obs registry JSON dump built from fresh, local instruments.
struct DifferentialRun {
  std::string golden_json;
  std::string registry_json;
};

DifferentialRun ReplayAll(const std::string& path, std::size_t jobs) {
  const auto sweep = Sweep();
  const std::vector<ReplayResult> results = exec::ParallelMap(
      sweep.size(),
      [&](std::size_t i) {
        TraceParseError err;
        auto src = OpenTraceFile(path, &err);
        EXPECT_NE(src, nullptr) << err.ToString();
        L1DConfig cfg = SimConfig::Baseline16KB().l1d;
        cfg.policy = sweep[i].second;
        TraceReplayer replayer(cfg);
        ReplayResult r = replayer.Replay(*src);
        EXPECT_TRUE(src->ok()) << src->error().ToString();
        return r;
      },
      jobs);

  // Golden-style snapshot: the replay counters that determine the
  // published metrics, as exact integers.
  verify::GoldenSnapshot snap;
  snap.scale = kScale;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    verify::GoldenEntry e;
    e.app = kApp;
    e.config = sweep[i].first;
    e.core_cycles = results[i].cycles;
    e.committed_thread_insns = results[i].accesses;
    e.l1d_accesses = results[i].cache.accesses;
    e.l1d_loads = results[i].cache.loads;
    e.l1d_load_hits = results[i].cache.load_hits;
    e.l1d_load_misses = results[i].cache.load_misses;
    e.l1d_bypasses = results[i].cache.bypasses;
    e.l1d_misses_issued = results[i].cache.misses_issued;
    snap.entries.push_back(e);
  }

  DifferentialRun out;
  TempDir tmp("snap");
  const std::string snap_path = tmp.Path("snap.json");
  std::string err;
  EXPECT_TRUE(verify::SaveGoldenFile(snap_path, snap, &err)) << err;
  std::ifstream is(snap_path, std::ios::binary);
  std::ostringstream content;
  content << is.rdbuf();
  out.golden_json = content.str();

  // Registry dump: a fresh local registry fed only by this run, so the
  // dump is a pure function of the replay results (merge-order
  // independence of summed tables is pinned elsewhere).
  obs::Registry reg;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const std::string scope = "replay." + sweep[i].first;
    reg.GetCounter(scope, "cycles") += results[i].cycles;
    reg.GetCounter(scope, "accesses") += results[i].accesses;
    reg.GetCounter(scope, "stall_cycles") += results[i].stall_cycles;
    reg.GetCounter(scope, "load_hits") += results[i].cache.load_hits;
    reg.GetCounter(scope, "load_misses") += results[i].cache.load_misses;
    reg.GetCounter(scope, "bypasses") += results[i].cache.bypasses;
    reg.GetCounter(scope, "evictions") += results[i].cache.evictions;
  }
  std::ostringstream reg_os;
  reg.WriteJson(reg_os);
  out.registry_json = reg_os.str();
  return out;
}

TEST(DifferentialDeterminism, TextAndPackedAgreeAtAnyJobCount) {
  // 1. Record the golden app once, streaming into BOTH forms.
  TempDir tmp("rec");
  const std::string text_path = tmp.Path("bfs.trace");
  const std::string packed_path = tmp.Path("bfs.dlpt");

  std::vector<TraceAccess> recorded;
  {
    Workload wl = MakeWorkload(kApp, kScale);
    GpuSimulator gpu(SimConfig::Baseline16KB(), wl.program.get(),
                     wl.warps_per_sm);
    std::ofstream packed_os(packed_path, std::ios::binary);
    PackedTraceWriter writer(packed_os, "app BFS\nscale 0.02\n");
    TraceRecorder rec(&writer, &recorded);
    gpu.AttachObserver(&rec);
    gpu.Run();
    ASSERT_TRUE(writer.Finish()) << writer.error().ToString();
    ASSERT_GT(rec.recorded(), 1000u) << "trace suspiciously small";

    std::ofstream text_os(text_path, std::ios::binary);
    WriteTextTrace(text_os, recorded);
    ASSERT_TRUE(text_os.good());
  }

  // Sanity: the two files hold the identical record sequence.
  {
    TraceParseError err;
    auto src = OpenTraceFile(packed_path, &err);
    ASSERT_NE(src, nullptr) << err.ToString();
    std::vector<TraceAccess> back;
    ASSERT_TRUE(ReadAllRecords(*src, &back, &err)) << err.ToString();
    ASSERT_EQ(back, recorded);
  }

  // 2. Replay from each format at jobs=1 and jobs=8.
  const DifferentialRun text_j1 = ReplayAll(text_path, 1);
  const DifferentialRun text_j8 = ReplayAll(text_path, 8);
  const DifferentialRun packed_j1 = ReplayAll(packed_path, 1);
  const DifferentialRun packed_j8 = ReplayAll(packed_path, 8);

  // 3. Byte identity across formats and job counts.
  ASSERT_FALSE(text_j1.golden_json.empty());
  EXPECT_EQ(text_j1.golden_json, text_j8.golden_json);
  EXPECT_EQ(text_j1.golden_json, packed_j1.golden_json);
  EXPECT_EQ(text_j1.golden_json, packed_j8.golden_json);

  ASSERT_FALSE(text_j1.registry_json.empty());
  EXPECT_EQ(text_j1.registry_json, text_j8.registry_json);
  EXPECT_EQ(text_j1.registry_json, packed_j1.registry_json);
  EXPECT_EQ(text_j1.registry_json, packed_j8.registry_json);
}

}  // namespace
}  // namespace dlpsim::trace
