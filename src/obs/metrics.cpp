#include "obs/metrics.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/json.h"

namespace dlpsim::obs {

const char* ToString(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::span<const std::uint64_t> bounds)
    : bounds_(bounds.begin(), bounds.end()), buckets_(bounds.size() + 1, 0) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::logic_error("histogram bounds must be strictly increasing");
    }
  }
}

void Histogram::Observe(std::uint64_t v) {
  // First bound >= v wins (Prometheus "le" semantics); above the last
  // bound lands in the overflow bucket.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  sum_ += v;
}

void Histogram::Merge(const Histogram& other) {
  if (other.bounds_ != bounds_) {
    throw std::logic_error("histogram bounds mismatch");
  }
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b] += other.buckets_[b];
  }
  sum_ += other.sum_;
}

std::uint64_t Histogram::Count() const {
  std::uint64_t n = 0;
  for (const std::uint64_t c : buckets_) n += c;
  return n;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

namespace {
std::string KeyOf(std::string_view scope, std::string_view name) {
  std::string key(scope);
  key += '\x1f';  // cannot collide with any printable scope/name pair
  key += name;
  return key;
}

[[noreturn]] void ThrowClash(std::string_view scope, std::string_view name) {
  throw std::logic_error("metric " + std::string(scope) + "." +
                         std::string(name) +
                         " already registered with a different kind/bounds");
}
}  // namespace

Registry::Entry& Registry::Emplace(std::string_view scope,
                                   std::string_view name,
                                   std::string_view help, MetricKind kind) {
  const auto [it, inserted] = entries_.try_emplace(KeyOf(scope, name));
  Entry& e = it->second;
  if (inserted) {
    e.scope = scope;
    e.name = name;
    e.help = help;
    e.kind = kind;
  } else if (e.kind != kind) {
    ThrowClash(scope, name);
  }
  return e;
}

const Registry::Entry* Registry::Find(std::string_view scope,
                                      std::string_view name) const {
  const auto it = entries_.find(KeyOf(scope, name));
  return it == entries_.end() ? nullptr : &it->second;
}

std::uint64_t& Registry::GetCounter(std::string_view scope,
                                    std::string_view name,
                                    std::string_view help) {
  return Emplace(scope, name, help, MetricKind::kCounter).counter;
}

Histogram& Registry::GetHistogram(std::string_view scope,
                                  std::string_view name,
                                  std::span<const std::uint64_t> bounds,
                                  std::string_view help) {
  Histogram fresh(bounds);  // validates before anything is inserted
  Entry& e = Emplace(scope, name, help, MetricKind::kHistogram);
  if (!e.histogram) {
    e.histogram = std::move(fresh);
  } else if (!std::equal(bounds.begin(), bounds.end(),
                         e.histogram->bounds().begin(),
                         e.histogram->bounds().end())) {
    ThrowClash(scope, name);
  }
  return *e.histogram;
}

std::uint64_t Registry::CounterValue(std::string_view scope,
                                     std::string_view name) const {
  const Entry* e = Find(scope, name);
  return e != nullptr && e->kind == MetricKind::kCounter ? e->counter : 0;
}

const Histogram* Registry::FindHistogram(std::string_view scope,
                                         std::string_view name) const {
  const Entry* e = Find(scope, name);
  return e != nullptr && e->histogram ? &*e->histogram : nullptr;
}

void Registry::Merge(const Registry& other) {
  for (const auto& [key, e] : other.entries_) {
    if (e.kind == MetricKind::kCounter) {
      GetCounter(e.scope, e.name, e.help) += e.counter;
    } else {
      GetHistogram(e.scope, e.name, e.histogram->bounds(), e.help)
          .Merge(*e.histogram);
    }
  }
}

// ---------------------------------------------------------------------------
// Exposition
// ---------------------------------------------------------------------------

std::string PrometheusName(std::string_view scope, std::string_view name) {
  std::string out = "dlpsim_";
  const auto append = [&out](std::string_view part) {
    for (const char c : part) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_';
      out += ok ? c : '_';
    }
  };
  append(scope);
  out += '_';
  append(name);
  return out;
}

std::string PrometheusLabelEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

void Registry::WriteText(std::ostream& os) const {
  for (const auto& [key, e] : entries_) {
    const std::string pname = PrometheusName(e.scope, e.name);
    if (!e.help.empty()) {
      // HELP text: escape backslash and newline per the exposition format.
      std::string help;
      for (const char c : e.help) {
        if (c == '\\') {
          help += "\\\\";
        } else if (c == '\n') {
          help += "\\n";
        } else {
          help += c;
        }
      }
      os << "# HELP " << pname << ' ' << help << '\n';
    }
    os << "# TYPE " << pname << ' ' << ToString(e.kind) << '\n';
    // Sanitizing can collapse distinct raw names; the raw identity rides
    // along as labels so nothing is lost.
    const std::string scope = PrometheusLabelEscape(e.scope);
    const std::string name = PrometheusLabelEscape(e.name);
    const std::string labels =
        "{scope=\"" + scope + "\",name=\"" + name + "\"}";
    if (e.kind == MetricKind::kCounter) {
      os << pname << labels << ' ' << e.counter << '\n';
      continue;
    }
    const Histogram& h = *e.histogram;
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.buckets().size(); ++b) {
      cumulative += h.buckets()[b];
      os << pname << "_bucket{scope=\"" << scope << "\",name=\"" << name
         << "\",le=\"";
      if (b < h.bounds().size()) {
        os << h.bounds()[b];
      } else {
        os << "+Inf";
      }
      os << "\"} " << cumulative << '\n';
    }
    os << pname << "_sum" << labels << ' ' << h.Sum() << '\n';
    os << pname << "_count" << labels << ' ' << h.Count() << '\n';
  }
}

void Registry::WriteJson(std::ostream& os) const {
  JsonWriter w(os);
  w.BeginObject();
  w.KV("schema", "dlpsim-metrics-v1");
  w.Key("metrics").BeginArray();
  for (const auto& [key, e] : entries_) {
    w.BeginObject();
    w.KV("scope", e.scope);
    w.KV("name", e.name);
    w.KV("kind", ToString(e.kind));
    if (!e.help.empty()) w.KV("help", e.help);
    if (e.kind == MetricKind::kCounter) {
      w.KV("value", e.counter);
    } else {
      const Histogram& h = *e.histogram;
      w.Key("bounds").BeginArray();
      for (const std::uint64_t b : h.bounds()) w.Value(b);
      w.EndArray();
      w.Key("buckets").BeginArray();
      for (const std::uint64_t c : h.buckets()) w.Value(c);
      w.EndArray();
      w.KV("count", h.Count());
      w.KV("sum", h.Sum());
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  os << '\n';
}

}  // namespace dlpsim::obs
