// Format-independent trace content hashing.
//
// A trace's content hash is FNV-1a 64 over its *canonical packed bytes*:
// the DLPT stream produced with empty metadata and the canonical block
// size (kCanonicalBlockRecords). Text and packed files holding the same
// record sequence therefore hash identically, so a trace's ref survives
// packing and unpacking (trace_pack --stat prints it).
//
// Hashing is streaming (the canonical bytes are folded into the hash as
// they are produced, never materialized), so it is O(block) memory for
// traces of any length.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "trace/error.h"
#include "trace/source.h"

namespace dlpsim::trace {

/// Drains `src` and returns the content hash of its record sequence in
/// *hash. Returns false with *error on a source error.
bool TraceContentHash(TraceSource& src, std::uint64_t* hash,
                      TraceParseError* error);

/// Content hash of a trace file in either format. Returns false with
/// *error when the file cannot be opened or parsed.
bool TraceFileHash(const std::string& path, std::uint64_t* hash,
                   TraceParseError* error);

/// Content reference for a trace file: "trace-<16 hex digits>". Empty
/// string (with *error filled) on failure.
std::string TraceFileRef(const std::string& path, TraceParseError* error);

/// The FNV-1a 64 offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

/// FNV-1a 64 over raw bytes, continuing from `seed` (pass a previous
/// result to hash a concatenation). The project's one general-purpose
/// hash: trace refs and the bench result-cache key both use it.
std::uint64_t FnvHash64(std::string_view data,
                        std::uint64_t seed = kFnvOffsetBasis);

}  // namespace dlpsim::trace
