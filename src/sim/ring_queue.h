// Growable FIFO ring buffer for the clock-loop queues (crossbar ports,
// in-flight and delivery queues; partition reply and DRAM backlog queues;
// the DRAM in-service list).
//
// Unlike std::deque, which allocates and frees a chunk every few elements
// as a FIFO streams through it, a RingQueue touches the heap only when it
// outgrows its storage: capacity doubles and is never released. Once a
// queue has reached its high-water mark, push/pop never allocate.
#pragma once

#include <cassert>
#include <cstddef>
#include <type_traits>
#include <vector>

namespace dlpsim {

template <class T>
class RingQueue {
  // pop_front only moves the head; elements are overwritten, never
  // destroyed, which is exact only for types without owned resources.
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  RingQueue() = default;
  explicit RingQueue(std::size_t capacity) { Reallocate(capacity); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// i-th element from the front.
  T& operator[](std::size_t i) {
    assert(i < size_);
    return buf_[(head_ + i) & mask_];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return buf_[(head_ + i) & mask_];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(const T& value) {
    if (size_ == buf_.size()) Reallocate(size_ == 0 ? 4 : 2 * size_);
    buf_[(head_ + size_) & mask_] = value;
    ++size_;
  }

  /// Drops the first `n` elements.
  void pop_front(std::size_t n = 1) {
    assert(n <= size_);
    head_ = (head_ + n) & mask_;
    size_ -= n;
  }

 private:
  // Grows storage to the next power of two >= `capacity`, unrolling the
  // live elements to the start.
  void Reallocate(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap *= 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i) next[i] = (*this)[i];
    buf_.swap(next);
    head_ = 0;
    mask_ = cap - 1;
  }

  std::vector<T> buf_;  // power-of-two size
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace dlpsim
