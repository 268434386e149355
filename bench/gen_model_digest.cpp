// Build-time generator for the result cache's model digest.
//
//   gen_model_digest <out.cpp> <file>...
//
// Folds the path, length and bytes of every listed file into one FNV-1a
// 64 (trace::FnvHash64) and writes a translation unit whose
// bench::ModelDigest() returns it as 16 hex digits. bench/CMakeLists.txt
// passes every file under src/ plus bench/harness.{h,cpp}, relative to
// the repository root, and reruns this whenever one of them changes.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "trace/hash.h"

int main(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "usage: gen_model_digest <out.cpp> <file>...\n";
    return 2;
  }
  std::uint64_t digest = dlpsim::trace::kFnvOffsetBasis;
  for (int i = 2; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::cerr << "gen_model_digest: cannot read " << argv[i] << '\n';
      return 1;
    }
    std::ostringstream bytes;
    bytes << in.rdbuf();
    const std::string body = bytes.str();
    // The path and length frame each file's bytes, so renaming a file or
    // moving text from one file to the next also changes the digest.
    const std::string header =
        std::string(argv[i]) + '\0' + std::to_string(body.size()) + '\0';
    digest = dlpsim::trace::FnvHash64(header, digest);
    digest = dlpsim::trace::FnvHash64(body, digest);
  }

  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  std::ofstream out(argv[1]);
  out << "// Generated by gen_model_digest from the model sources.\n"
      << "#include \"harness.h\"\n\n"
      << "namespace dlpsim::bench {\n"
      << "std::string_view ModelDigest() { return \"" << hex << "\"; }\n"
      << "}  // namespace dlpsim::bench\n";
  return out ? 0 : 1;
}
