// Pinned simulated statistics and the cell pass/fail count.
//
// The expectation file holds one block per simulated output:
//
//     @ gpu_cs/HG/base metrics
//     core_cycles 35344
//     ...
//
// A block's key names the workload, the app, the configuration and the
// kind of output (GPU `metrics`, `replay` result, recorded `stream`
// digest); its body is the exact text the benchmark renders for it. A
// cell whose text differs from its block, or that has no block, fails.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

class Ledger {
 public:
  /// Reads an expectation file. Returns false with *error when it cannot
  /// be read or holds no blocks.
  bool Load(const std::string& path, std::string* error);

  /// Recording mode accepts any text (used to write a new expectation
  /// file); a key must still render the same text every time it is seen.
  void set_recording(bool recording) { recording_ = recording; }

  /// Compares `text` with the pinned block for `key`. A mismatch is
  /// reported on stderr. The first text seen per key is kept.
  bool Match(const std::string& key, const std::string& text);

  /// Counts one attempted cell, failed unless `ok`.
  void CountCell(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  /// Writes every key seen so far, in key order, in the file format.
  bool WriteSeen(const std::string& path) const;

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::map<std::string, std::string> expected_;
  std::map<std::string, std::string> seen_;
  bool recording_ = false;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
