#include "obs/event_sink.h"

#include <algorithm>
#include <cassert>

namespace dlpsim {

const char* ToString(EventKind kind) {
  switch (kind) {
    case EventKind::kAccess:
      return "access";
    case EventKind::kBypass:
      return "bypass";
    case EventKind::kEviction:
      return "eviction";
    case EventKind::kFill:
      return "fill";
    case EventKind::kVtaHit:
      return "vta_hit";
    case EventKind::kPdSample:
      return "pd_sample";
    case EventKind::kPlSaturated:
      return "pl_saturated";
  }
  return "?";
}

EventSink::EventSink(std::size_t capacity)
    : buffer_(std::max<std::size_t>(capacity, 1)) {}

void EventSink::Emit(Event event) {
  event.cycle = now_;
  buffer_[head_] = event;
  head_ = (head_ + 1) % buffer_.size();
  size_ = std::min(size_ + 1, buffer_.size());
  ++total_emitted_;
}

std::vector<Event> EventSink::InOrder() const {
  std::vector<Event> out;
  out.reserve(size_);
  // When full, head_ points at the oldest event; otherwise the buffer
  // starts at index 0.
  const std::size_t start = size_ == buffer_.size() ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(buffer_[(start + i) % buffer_.size()]);
  }
  return out;
}

std::vector<Event> EventSink::OfKind(EventKind kind) const {
  std::vector<Event> out;
  for (const Event& e : InOrder()) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

std::size_t EventSink::CountKind(EventKind kind) const {
  std::size_t n = 0;
  const std::size_t start = size_ == buffer_.size() ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i) {
    if (buffer_[(start + i) % buffer_.size()].kind == kind) ++n;
  }
  return n;
}

void EventSink::Clear() {
  head_ = 0;
  size_ = 0;
  total_emitted_ = 0;
}

}  // namespace dlpsim
