#include "spans.h"

#include <fstream>
#include <map>

#include "json_out.h"

namespace perfbench {

int SpanLog::Begin(const char* name, std::string label, int parent) {
  spans_.push_back(Span{name, std::move(label), parent, NowNs(), 0});
  return static_cast<int>(spans_.size()) - 1;
}

std::int64_t SpanLog::End(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = NowNs();
  return s.end_ns - s.start_ns;
}

bool SpanLog::WriteJson(const std::string& path) const {
  struct Total {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Total> totals;
  for (const Span& s : spans_) {
    Total& t = totals[s.name];
    ++t.count;
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += s.end_ns - s.start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent == kNoParent) continue;
    totals[spans_[static_cast<std::size_t>(s.parent)].name].self_ns -=
        s.end_ns - s.start_ns;
  }
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;

  std::ofstream out(path);
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\": " << i
        << ", \"parent\": " << s.parent << ", \"name\": " << JsonString(s.name)
        << ", \"label\": " << JsonString(s.label)
        << ", \"start_ns\": " << s.start_ns - origin
        << ", \"dur_ns\": " << s.end_ns - s.start_ns << '}';
  }
  out << "],\n\"summary\": {";
  bool first = true;
  for (const auto& [name, t] : totals) {
    out << (first ? "\n" : ",\n") << JsonString(name) << ": {\"count\": "
        << t.count << ", \"total_ns\": " << t.total_ns
        << ", \"self_ns\": " << t.self_ns << '}';
    first = false;
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
