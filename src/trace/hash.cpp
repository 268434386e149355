#include "trace/hash.h"

#include <ostream>
#include <streambuf>

#include "trace/writer.h"

namespace dlpsim::trace {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// A write-only streambuf that folds every byte into an FNV-1a hash --
/// the canonical packed bytes are hashed as the writer produces them,
/// never stored.
class FnvStreambuf : public std::streambuf {
 public:
  std::uint64_t hash() const { return hash_; }

 protected:
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) {
      Fold(static_cast<unsigned char>(ch));
    }
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) {
      Fold(static_cast<unsigned char>(s[i]));
    }
    return n;
  }

 private:
  void Fold(unsigned char b) {
    hash_ ^= b;
    hash_ *= kFnvPrime;
  }
  std::uint64_t hash_ = kFnvOffsetBasis;
};

std::string Hex16(std::uint64_t v) {
  char buf[17];
  for (int i = 15; i >= 0; --i) {
    buf[i] = "0123456789abcdef"[v & 0xf];
    v >>= 4;
  }
  buf[16] = '\0';
  return buf;
}

}  // namespace

std::uint64_t FnvHash64(std::string_view data, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

bool TraceContentHash(TraceSource& src, std::uint64_t* hash,
                      TraceParseError* error) {
  FnvStreambuf sink;
  std::ostream os(&sink);
  PackedTraceWriter w(os, /*meta=*/"", kCanonicalBlockRecords);
  TraceAccess a;
  while (src.Next(&a)) w.Append(a);
  if (!src.ok()) {
    if (error != nullptr) *error = src.error();
    return false;
  }
  if (!w.Finish()) {
    if (error != nullptr) *error = w.error();
    return false;
  }
  *hash = sink.hash();
  return true;
}

bool TraceFileHash(const std::string& path, std::uint64_t* hash,
                   TraceParseError* error) {
  auto src = OpenTraceFile(path, error);
  if (src == nullptr) return false;
  return TraceContentHash(*src, hash, error);
}

std::string TraceFileRef(const std::string& path, TraceParseError* error) {
  std::uint64_t hash = 0;
  if (!TraceFileHash(path, &hash, error)) return "";
  return "trace-" + Hex16(hash);
}

}  // namespace dlpsim::trace
