#include "obs/json.h"

#include <cassert>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace dlpsim {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

void JsonWriter::BeforeValue() {
  if (stack_.empty()) return;  // top-level value
  Scope& top = stack_.back();
  if (top.is_object) {
    assert(top.key_pending && "object member emitted without Key()");
    top.key_pending = false;
    return;  // comma was written by Key()
  }
  if (!top.first) os_ << ',';
  top.first = false;
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  os_ << '{';
  stack_.push_back({.is_object = true, .first = true, .key_pending = false});
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  assert(!stack_.empty() && stack_.back().is_object);
  assert(!stack_.back().key_pending && "dangling Key() at EndObject");
  stack_.pop_back();
  os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  os_ << '[';
  stack_.push_back({.is_object = false, .first = true, .key_pending = false});
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  assert(!stack_.empty() && !stack_.back().is_object);
  stack_.pop_back();
  os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  assert(!stack_.empty() && stack_.back().is_object);
  Scope& top = stack_.back();
  assert(!top.key_pending && "two Key() calls in a row");
  if (!top.first) os_ << ',';
  top.first = false;
  top.key_pending = true;
  os_ << '"' << JsonEscape(key) << "\":";
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view v) {
  BeforeValue();
  os_ << '"' << JsonEscape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::Value(std::uint64_t v) {
  BeforeValue();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::Value(std::int64_t v) {
  BeforeValue();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::Value(double v) {
  BeforeValue();
  if (!std::isfinite(v)) {
    os_ << "null";  // JSON has no NaN/Inf
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  os_ << buf;
  return *this;
}

JsonWriter& JsonWriter::Value(bool v) {
  BeforeValue();
  os_ << (v ? "true" : "false");
  return *this;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

std::uint64_t JsonValue::U64(const std::string& key) const {
  const JsonValue* v = Find(key);
  return v == nullptr ? 0 : v->number_u64;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue& out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == text_.size();  // trailing garbage is a failure
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool ParseValue(JsonValue& out) {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out.type = JsonValue::Type::kString;
        return ParseString(out.string);
      case 't':
        out.type = JsonValue::Type::kBool;
        out.boolean = true;
        return Literal("true");
      case 'f':
        out.type = JsonValue::Type::kBool;
        out.boolean = false;
        return Literal("false");
      case 'n':
        out.type = JsonValue::Type::kNull;
        return Literal("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseString(std::string& out) {
    if (text_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
            c = '"';
            break;
          case '\\':
            c = '\\';
            break;
          case '/':
            c = '/';
            break;
          case 'n':
            c = '\n';
            break;
          case 'r':
            c = '\r';
            break;
          case 't':
            c = '\t';
            break;
          case 'b':
            c = '\b';
            break;
          case 'f':
            c = '\f';
            break;
          case 'u': {
            // Decode \uXXXX; non-ASCII code points come back as '?'
            // (the exporters only emit ASCII).
            if (pos_ + 4 > text_.size()) return false;
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              cp <<= 4;
              if (h >= '0' && h <= '9') {
                cp |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                cp |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                cp |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return false;
              }
            }
            c = cp < 0x80 ? static_cast<char>(cp) : '?';
            break;
          }
          default:
            return false;
        }
      }
      out += c;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool ParseNumber(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return false;
    const std::string_view tok = text_.substr(start, pos_ - start);
    out.type = JsonValue::Type::kNumber;
    const auto dres = std::from_chars(tok.data(), tok.data() + tok.size(),
                                      out.number);
    if (dres.ec != std::errc() || dres.ptr != tok.data() + tok.size()) {
      return false;
    }
    if (integral) {
      const auto ires = std::from_chars(tok.data(), tok.data() + tok.size(),
                                        out.number_u64);
      if (ires.ec != std::errc()) out.number_u64 = 0;
    } else {
      out.number_u64 = static_cast<std::uint64_t>(out.number);
    }
    return true;
  }

  bool ParseObject(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (pos_ >= text_.size() || !ParseString(key)) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      SkipWs();
      JsonValue value;
      if (!ParseValue(value)) return false;
      out.object.emplace(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseArray(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      JsonValue value;
      if (!ParseValue(value)) return false;
      out.array.push_back(std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue ParseJson(std::string_view text, bool* ok) {
  JsonValue out;
  const bool success = Parser(text).Parse(out);
  if (ok != nullptr) *ok = success;
  if (!success) out = JsonValue{};
  return out;
}

}  // namespace dlpsim
