#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "harness.h"

namespace dlpsim::bench {
namespace {

namespace fs = std::filesystem;

RunResult SampleResult() {
  RunResult r;
  r.metrics.core_cycles = 1234;
  r.metrics.committed_thread_insns = 99;
  r.metrics.l1d_load_hits = 42;
  r.profile.global.buckets = {1, 2, 3, 4};
  r.profile.reuse_accesses = 10;
  r.profile.reuse_misses = 5;
  r.profile.per_pc[7].buckets = {9, 8, 7, 6};
  return r;
}

class CacheIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per process: ctest runs these tests in parallel
    // processes, and a shared directory let one test's TearDown delete
    // another's files.
    dir_ = fs::path(::testing::TempDir()) /
           ("dlpsim_cache_io_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(CacheIoTest, StoreLoadRoundTrip) {
  const fs::path path = dir_ / "entry.txt";
  const RunResult r = SampleResult();
  StoreCacheFile(path, r);
  ASSERT_TRUE(fs::exists(path));

  RunResult back;
  ASSERT_TRUE(LoadCacheFile(path, &back));
  EXPECT_EQ(back.metrics.ToText(), r.metrics.ToText());
  EXPECT_EQ(back.profile.ToText(), r.profile.ToText());
}

TEST_F(CacheIoTest, StoreLeavesNoTempFiles) {
  const fs::path path = dir_ / "entry.txt";
  StoreCacheFile(path, SampleResult());
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST_F(CacheIoTest, MissingFileFails) {
  EXPECT_FALSE(LoadCacheFile(dir_ / "nope.txt", nullptr));
}

TEST_F(CacheIoTest, TruncatedEntryRejected) {
  const fs::path path = dir_ / "entry.txt";
  StoreCacheFile(path, SampleResult());

  // Simulate a writer killed mid-write: chop the file anywhere. No
  // truncation point may yield a loadable entry, because every complete
  // entry ends with the footer line.
  std::string full;
  {
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    full = buf.str();
  }
  for (std::size_t len = 0; len < full.size(); len += 7) {
    std::ofstream(path, std::ios::trunc) << full.substr(0, len);
    EXPECT_FALSE(LoadCacheFile(path, nullptr)) << "truncated at " << len;
  }
}

TEST_F(CacheIoTest, GarbageWithFooterRejected) {
  const fs::path path = dir_ / "entry.txt";
  std::ofstream(path) << "not a metrics block\n---\nnot a profile\n"
                      << "#complete\n";
  EXPECT_FALSE(LoadCacheFile(path, nullptr));
}

TEST_F(CacheIoTest, PathIsScaleAware) {
  const fs::path a = CachePathFor("SRK", "base", 1.0);
  const fs::path b = CachePathFor("SRK", "base", 0.5);
  const fs::path c = CachePathFor("SRK", "dlp", 1.0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace dlpsim::bench
