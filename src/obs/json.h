// Minimal dependency-free JSON support for the obs/ exporters.
//
// JsonWriter is a streaming writer with an explicit nesting stack: it
// inserts commas, quotes and escapes for you and asserts on misuse
// (value without a pending key inside an object, unbalanced End calls).
// JsonValue/ParseJson is a small recursive-descent reader used by tests
// and the trace inspector to round-trip reports; numbers are stored as
// both double and (when exact) uint64 so 64-bit counters survive.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace dlpsim {

/// Escapes `s` for inclusion in a JSON string literal (no quotes added).
std::string JsonEscape(std::string_view s);

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Emits the key of the next value; valid only inside an object.
  JsonWriter& Key(std::string_view key);

  JsonWriter& Value(std::string_view v);
  JsonWriter& Value(const char* v) { return Value(std::string_view(v)); }
  JsonWriter& Value(std::uint64_t v);
  JsonWriter& Value(std::int64_t v);
  JsonWriter& Value(std::uint32_t v) { return Value(std::uint64_t{v}); }
  JsonWriter& Value(std::int32_t v) { return Value(std::int64_t{v}); }
  JsonWriter& Value(double v);
  JsonWriter& Value(bool v);

  /// Key + value in one call.
  template <typename T>
  JsonWriter& KV(std::string_view key, T v) {
    Key(key);
    return Value(v);
  }

  /// Depth of open containers (0 when the document is complete).
  std::size_t depth() const { return stack_.size(); }

 private:
  void BeforeValue();

  struct Scope {
    bool is_object = false;
    bool first = true;
    bool key_pending = false;
  };

  std::ostream& os_;
  std::vector<Scope> stack_;
};

/// Parsed JSON document node.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::uint64_t number_u64 = 0;  // exact when the token was a plain integer
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }

  /// Object member access; returns nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
  /// Convenience: Find(key)->number_u64 with a 0 default.
  std::uint64_t U64(const std::string& key) const;
};

/// Parses a complete JSON document. On failure returns a kNull value and
/// sets *ok to false (trailing garbage is a failure).
JsonValue ParseJson(std::string_view text, bool* ok = nullptr);

}  // namespace dlpsim
