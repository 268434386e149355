#include "ledger.h"

#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

namespace {

// First line on which two renderings differ, for the failure report.
std::string FirstDifference(const std::string& want, const std::string& got) {
  std::istringstream a(want);
  std::istringstream b(got);
  std::string la;
  std::string lb;
  for (;;) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_b = static_cast<bool>(std::getline(b, lb));
    if (!more_a && !more_b) return "(texts differ only in line endings)";
    if (!more_a) la = "<end>";
    if (!more_b) lb = "<end>";
    if (la != lb) return "expected '" + la + "', got '" + lb + "'";
  }
}

}  // namespace

bool Ledger::Load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read expectation file " + path;
    return false;
  }
  std::string line;
  std::string key;
  while (std::getline(in, line)) {
    if (line.rfind("@ ", 0) == 0) {
      key = line.substr(2);
      expected_[key];
    } else if (!key.empty()) {
      expected_[key] += line + '\n';
    }
  }
  if (expected_.empty()) {
    *error = "expectation file " + path + " holds no blocks";
    return false;
  }
  return true;
}

bool Ledger::Match(const std::string& key, const std::string& text) {
  const auto [seen, first] = seen_.emplace(key, text);
  if (!first && seen->second != text) {
    std::cerr << "perfbench: " << key << " changed between repeats: "
              << FirstDifference(seen->second, text) << '\n';
    return false;
  }
  if (recording_) return true;
  const auto it = expected_.find(key);
  if (it == expected_.end()) {
    std::cerr << "perfbench: no pinned expectation for " << key << '\n';
    return false;
  }
  if (it->second != text) {
    std::cerr << "perfbench: " << key << " mismatch: "
              << FirstDifference(it->second, text) << '\n';
    return false;
  }
  return true;
}

bool Ledger::WriteSeen(const std::string& path) const {
  std::ofstream out(path);
  out << "# Simulated statistics pinned by perfbench. Regenerate with\n"
         "# `perfbench --write-expected FILE` only for a deliberate change\n"
         "# of simulated behaviour.\n";
  for (const auto& [key, text] : seen_) out << "@ " << key << '\n' << text;
  return static_cast<bool>(out);
}

}  // namespace perfbench
