// Bounded FIFO request queue specialised for a single request type
// (paper §4.3: "typed queues, i.e., buffers specialized for a single request
// type"). Bounded capacity implements the flow-control rule of §4.3.3: "the
// dispatcher drops requests from typed queues that are full", shedding load
// only for overloaded types.
#ifndef PSP_SRC_CORE_TYPED_QUEUE_H_
#define PSP_SRC_CORE_TYPED_QUEUE_H_

#include <cstddef>
#include <vector>

#include "src/common/single_writer_counter.h"
#include "src/core/request.h"

namespace psp {

// All mutation happens on the single scheduling thread; size_/drops_ are
// SingleWriterCounters only so cross-thread introspection (telemetry
// snapshots, the time-series gauge sampler) reads them race-free at
// plain-store cost on the hot path.
class TypedQueue {
 public:
  explicit TypedQueue(size_t capacity = 4096)
      : capacity_(capacity), slots_(capacity) {}

  TypedQueue(TypedQueue&& other) noexcept
      : capacity_(other.capacity_),
        slots_(std::move(other.slots_)),
        head_(other.head_),
        tail_(other.tail_),
        size_(other.size_.Value()),
        drops_(other.drops_.Value()) {}

  // Returns false (and counts a drop) when the queue is full.
  bool Push(const Request& request) {
    const size_t size = size_.Value();
    if (size == capacity_) {
      drops_.Add();
      return false;
    }
    slots_[tail_] = request;
    tail_ = Next(tail_);
    size_.Store(size + 1);
    return true;
  }

  // Re-inserts a request at the head (used by preemptive policies that
  // enqueue preempted work "at the head of their respective queue", §5.1).
  bool PushFront(const Request& request) {
    const size_t size = size_.Value();
    if (size == capacity_) {
      drops_.Add();
      return false;
    }
    head_ = Prev(head_);
    slots_[head_] = request;
    size_.Store(size + 1);
    return true;
  }

  bool Pop(Request* out) {
    const size_t size = size_.Value();
    if (size == 0) {
      return false;
    }
    *out = slots_[head_];
    head_ = Next(head_);
    size_.Store(size - 1);
    return true;
  }

  const Request& Front() const { return slots_[head_]; }

  bool Empty() const { return Size() == 0; }
  size_t Size() const { return size_.Value(); }
  size_t capacity() const { return capacity_; }
  uint64_t drops() const { return drops_.Value(); }

  // Queueing delay of the head request at `now`; 0 when empty.
  Nanos HeadDelay(Nanos now) const {
    return Empty() ? 0 : now - slots_[head_].arrival;
  }

 private:
  size_t Next(size_t i) const { return i + 1 == capacity_ ? 0 : i + 1; }
  size_t Prev(size_t i) const { return i == 0 ? capacity_ - 1 : i - 1; }

  size_t capacity_;
  std::vector<Request> slots_;
  size_t head_ = 0;
  size_t tail_ = 0;
  SingleWriterCounter<size_t> size_;
  SingleWriterCounter<uint64_t> drops_;
};

}  // namespace psp

#endif  // PSP_SRC_CORE_TYPED_QUEUE_H_
