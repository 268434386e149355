// Streaming trace frontends: a pull-based iterator over TraceAccess
// records with bounded memory, independent of where the records live.
//
// This is the McSimA+-style front/back split for dlpsim: producers
// (workload generators, the GpuSimulator recorder, real-GPU traces)
// write a trace once; every timing consumer (TraceReplayer, the verify
// fuzzer's replay path, trace_pack) pulls from a TraceSource and is
// agnostic to whether the bytes are the text grammar or the DLPT packed
// binary format. `OpenTraceFile` sniffs the 4-byte magic and picks the
// right implementation, so tools accept either format everywhere.
//
// Usage:
//   TraceAccess a;
//   while (src.Next(&a)) consume(a);
//   if (!src.ok()) report(src.error());
//
// Next() never blocks on more than one text line / one packed block of
// input; both implementations hold O(block) memory regardless of trace
// length.
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "trace/error.h"
#include "trace/record.h"

namespace dlpsim::trace {

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Pulls the next record. Returns false at end-of-stream or on error;
  /// check ok() to tell the two apart. After false, every further call
  /// returns false.
  virtual bool Next(TraceAccess* out) = 0;

  bool ok() const { return error_.kind == TraceErrorKind::kNone; }
  const TraceParseError& error() const { return error_; }

  /// Records delivered so far.
  std::uint64_t delivered() const { return delivered_; }

 protected:
  TraceParseError error_;
  std::uint64_t delivered_ = 0;
};

/// In-memory source (non-owning view over a vector).
class VectorTraceSource : public TraceSource {
 public:
  /// Non-owning: `records` must outlive the source (rvalues rejected).
  explicit VectorTraceSource(const std::vector<TraceAccess>& records)
      : records_(&records) {}
  explicit VectorTraceSource(std::vector<TraceAccess>&&) = delete;
  bool Next(TraceAccess* out) override;

 private:
  const std::vector<TraceAccess>* records_;
  std::size_t pos_ = 0;
};

/// Streams the text grammar (trace/text.h) with strict semantics: the
/// first malformed line stops the stream with a typed error, exactly
/// like ParseTraceStrict.
class TextTraceSource : public TraceSource {
 public:
  /// Non-owning: `in` must outlive the source.
  explicit TextTraceSource(std::istream& in) : in_(&in) {}
  /// Owning variant (used by OpenTraceFile).
  explicit TextTraceSource(std::unique_ptr<std::istream> in)
      : owned_(std::move(in)), in_(owned_.get()) {}

  bool Next(TraceAccess* out) override;

 private:
  std::unique_ptr<std::istream> owned_;
  std::istream* in_;
  std::size_t line_no_ = 0;
  bool done_ = false;
};

/// Streams the DLPT packed binary format (trace/format.h), one
/// CRC-checked block at a time. The header (including metadata) is read
/// lazily on the first Next()/meta() call; any corruption surfaces as a
/// typed error, never a crash or a silent partial read: a stream that
/// ends without a valid footer is kTruncated even if every block before
/// it was intact.
class PackedTraceSource : public TraceSource {
 public:
  explicit PackedTraceSource(std::istream& in) : in_(&in) {}
  explicit PackedTraceSource(std::unique_ptr<std::istream> in)
      : owned_(std::move(in)), in_(owned_.get()) {}

  bool Next(TraceAccess* out) override;

  /// Metadata text from the header ("" until the header is read / when
  /// the trace carries none). Forces the header read.
  const std::string& meta();

 private:
  bool ReadHeader();
  bool ReadBlock();  // false at footer or error
  bool Fail(TraceErrorKind kind, const std::string& message);

  std::unique_ptr<std::istream> owned_;
  std::istream* in_;
  std::string meta_;
  bool header_read_ = false;
  bool done_ = false;
  std::vector<TraceAccess> block_;   // decoded records of the current block
  std::size_t block_pos_ = 0;
  std::uint64_t offset_ = 0;         // bytes consumed (for error reports)
};

/// Opens `path` and returns a source for whichever format the file is in
/// (sniffs the DLPT magic; everything else is treated as text). Returns
/// nullptr with *error filled when the file cannot be opened.
std::unique_ptr<TraceSource> OpenTraceFile(const std::string& path,
                                           TraceParseError* error);

/// Drains `src` into *out. Returns false with *error on a source error.
bool ReadAllRecords(TraceSource& src, std::vector<TraceAccess>* out,
                    TraceParseError* error);

}  // namespace dlpsim::trace
