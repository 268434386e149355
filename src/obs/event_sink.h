// Fixed-capacity ring buffer of simulator events (the obs/ event ring;
// the recorded access streams of src/trace/ are a separate thing).
//
// Emitters hold a nullable EventSink*; with no sink attached the hot
// path pays one pointer comparison per hook. When the buffer is full the
// oldest event is overwritten (the tail of a run is usually the
// interesting part) and the drop is counted, so consumers can tell a
// complete record from a windowed one.
//
// The sink also carries the "current cycle" so that policy code -- whose
// hooks do not receive timestamps -- can emit correctly stamped events:
// the L1D front end calls SetNow() once per access/fill before any
// emission.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/event.h"
#include "sim/types.h"

namespace dlpsim {

class EventSink {
 public:
  explicit EventSink(std::size_t capacity);

  /// Stamp applied to every subsequent Emit().
  void SetNow(Cycle now) { now_ = now; }

  /// Records `event` (its `cycle` field is overwritten with the stamp).
  void Emit(Event event);

  std::size_t capacity() const { return buffer_.size(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint64_t total_emitted() const { return total_emitted_; }
  std::uint64_t dropped() const { return total_emitted_ - size_; }

  /// The retained events, oldest first.
  std::vector<Event> InOrder() const;

  /// Retained events of one kind, oldest first.
  std::vector<Event> OfKind(EventKind kind) const;

  /// Count of *retained* events of `kind`.
  std::size_t CountKind(EventKind kind) const;

  void Clear();

 private:
  std::vector<Event> buffer_;
  std::size_t head_ = 0;  // next write position
  std::size_t size_ = 0;
  std::uint64_t total_emitted_ = 0;
  Cycle now_ = 0;
};

}  // namespace dlpsim
