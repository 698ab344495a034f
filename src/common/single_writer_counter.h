// A counter with exactly one writer thread and any number of reader threads.
//
// The writer updates with a relaxed load plus a relaxed store — no
// lock-prefixed read-modify-write — so an increment costs what a plain store
// costs. Readers on other threads load it relaxed and always see a value the
// writer stored, never a torn one; values a single writer only adds to never
// go down from one read to the next. The type is only correct when every
// mutation happens on one thread (the dispatcher, a worker, or the
// simulator's single thread); counters with several writers keep an atomic
// fetch_add (see Counter in src/telemetry/telemetry.h).
#ifndef PSP_SRC_COMMON_SINGLE_WRITER_COUNTER_H_
#define PSP_SRC_COMMON_SINGLE_WRITER_COUNTER_H_

#include <atomic>
#include <cstdint>

namespace psp {

template <typename T = uint64_t>
class SingleWriterCounter {
 public:
  SingleWriterCounter() = default;
  explicit SingleWriterCounter(T initial) : value_(initial) {}

  // Writer thread only. Returns the new value.
  T Add(T n = 1) {
    const T next = value_.load(std::memory_order_relaxed) + n;
    value_.store(next, std::memory_order_relaxed);
    return next;
  }
  T Sub(T n = 1) {
    const T next = value_.load(std::memory_order_relaxed) - n;
    value_.store(next, std::memory_order_relaxed);
    return next;
  }
  void Store(T value) { value_.store(value, std::memory_order_relaxed); }

  // Any thread.
  T Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<T> value_{0};
};

}  // namespace psp

#endif  // PSP_SRC_COMMON_SINGLE_WRITER_COUNTER_H_
