// Committed-fixture integrity (ISSUE satellite): the packed golden
// traces under tests/golden/traces/ must stay readable by the current
// reader -- every CRC intact, the version current, the record sequence
// identical to the committed text twin, the content refs equal across
// formats, and the packed form at least 3x smaller than the text form
// (the acceptance bar for the format actually earning its complexity).
//
// Fixtures were produced with:
//   trace_pack --record <APP> <name>.dlpt --scale 0.02
//   trace_pack --unpack <name>.dlpt <name>.trace
// Re-record them only when the format version or the workloads
// deliberately change, and commit the diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "trace/format.h"
#include "trace/hash.h"
#include "trace/source.h"

#ifndef DLPSIM_TRACE_FIXTURE_DIR
#error "DLPSIM_TRACE_FIXTURE_DIR must point at tests/golden/traces"
#endif

namespace dlpsim::trace {
namespace {

std::vector<std::string> FixtureStems() {
  std::vector<std::string> stems;
  for (const auto& entry :
       std::filesystem::directory_iterator(DLPSIM_TRACE_FIXTURE_DIR)) {
    if (entry.path().extension() == ".dlpt") {
      stems.push_back(entry.path().stem().string());
    }
  }
  std::sort(stems.begin(), stems.end());
  return stems;
}

std::string FixturePath(const std::string& stem, const std::string& ext) {
  return std::string(DLPSIM_TRACE_FIXTURE_DIR) + "/" + stem + ext;
}

TEST(Fixtures, AtLeastTwoCommittedPairs) {
  EXPECT_GE(FixtureStems().size(), 2u);
}

TEST(Fixtures, PackedFixturesVerifyCleanly) {
  for (const std::string& stem : FixtureStems()) {
    TraceParseError err;
    auto src = OpenTraceFile(FixturePath(stem, ".dlpt"), &err);
    ASSERT_NE(src, nullptr) << stem << ": " << err.ToString();
    ASSERT_NE(dynamic_cast<PackedTraceSource*>(src.get()), nullptr) << stem;
    // Draining the source re-checks every CRC, every length bound and
    // the footer count.
    std::vector<TraceAccess> records;
    ASSERT_TRUE(ReadAllRecords(*src, &records, &err))
        << stem << ": " << err.ToString();
    EXPECT_GT(records.size(), 1000u) << stem;
  }
}

TEST(Fixtures, VersionFieldIsCurrent) {
  for (const std::string& stem : FixtureStems()) {
    std::ifstream is(FixturePath(stem, ".dlpt"), std::ios::binary);
    char hdr[8];
    ASSERT_TRUE(is.read(hdr, sizeof(hdr))) << stem;
    ASSERT_EQ(std::string(hdr, 4), std::string(kMagic, 4)) << stem;
    EXPECT_EQ(GetU32(hdr + 4), kFormatVersion) << stem;
  }
}

TEST(Fixtures, TextTwinHoldsTheSameRecords) {
  for (const std::string& stem : FixtureStems()) {
    TraceParseError err;
    std::vector<TraceAccess> packed_records;
    {
      auto src = OpenTraceFile(FixturePath(stem, ".dlpt"), &err);
      ASSERT_NE(src, nullptr) << err.ToString();
      ASSERT_TRUE(ReadAllRecords(*src, &packed_records, &err))
          << err.ToString();
    }
    std::vector<TraceAccess> text_records;
    {
      auto src = OpenTraceFile(FixturePath(stem, ".trace"), &err);
      ASSERT_NE(src, nullptr) << stem << " is missing its .trace twin: "
                              << err.ToString();
      ASSERT_TRUE(ReadAllRecords(*src, &text_records, &err))
          << err.ToString();
    }
    EXPECT_EQ(packed_records, text_records) << stem;

    // Same content ref: packing does not change a trace's identity.
    EXPECT_EQ(TraceFileRef(FixturePath(stem, ".dlpt"), &err),
              TraceFileRef(FixturePath(stem, ".trace"), &err))
        << stem;
  }
}

TEST(Fixtures, PackedAtLeastThreeTimesSmallerThanText) {
  for (const std::string& stem : FixtureStems()) {
    const auto packed_bytes =
        std::filesystem::file_size(FixturePath(stem, ".dlpt"));
    const auto text_bytes =
        std::filesystem::file_size(FixturePath(stem, ".trace"));
    EXPECT_GE(text_bytes, 3 * packed_bytes)
        << stem << ": text " << text_bytes << " B vs packed " << packed_bytes
        << " B (ratio " << static_cast<double>(text_bytes) / packed_bytes
        << "x)";
  }
}

}  // namespace
}  // namespace dlpsim::trace
