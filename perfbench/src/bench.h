// Shared plumbing for the repository benchmark: options, the run report
// (metrics + correctness books), statistics helpers, thread pinning, the
// host-noise probe and the in-memory span tracer used by traced runs.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace perfbench {

using psp::Nanos;

// Set-ups per run; the median is the reported setup_s.
inline constexpr int kSetupReps = 15;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string span_dir;  // where a traced run writes its spans
};

// --- Statistics --------------------------------------------------------------

// Nearest-rank percentile (pct in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> values, double pct);
double Median(std::vector<double> values);

// --- Report ------------------------------------------------------------------

// Everything one run prints: named metrics, the correctness verdict, and the
// attempted/failed operation counts of the final JSON line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;

  // A failed output or books check: the run is reported incorrect.
  void Fail(const std::string& why);
  // Books check helper: Fail()s with `what` unless lhs == rhs.
  void ExpectEqual(const std::string& what, uint64_t lhs, uint64_t rhs);

  void AddAttempted(uint64_t n) { attempted_ += n; }
  void AddFailed(uint64_t n) { failed_ += n; }

  // The final line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  // restricted to `names` (in that order).
  std::string ResultJson(const std::vector<std::string>& names) const;

 private:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// printf to stdout, flushed (run.py reads the last line; everything before
// it is the human-readable report).
void Say(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// --- Threads and host --------------------------------------------------------

// Pins the calling thread to `cpu` modulo the online core count (no-op on a
// single-core machine). Unpin() restores the full online set.
void PinTo(uint32_t cpu);
void Unpin();
uint32_t OnlineCores();

// Sets a stop flag when its scope ends. Declared after the std::jthread that
// polls the flag, so on every exit path the flag is raised before the
// thread is joined.
class RaiseOnExit {
 public:
  explicit RaiseOnExit(std::atomic<bool>* flag) : flag_(flag) {}
  ~RaiseOnExit() { flag_->store(true, std::memory_order_release); }
  RaiseOnExit(const RaiseOnExit&) = delete;
  RaiseOnExit& operator=(const RaiseOnExit&) = delete;

 private:
  std::atomic<bool>* flag_;
};

// Peak resident set of this process in MiB.
double PeakRssMb();

// Host-noise probe: `threads` pinned spinners (cores 0..threads-1) read the
// clock back to back for `duration`; any gap between consecutive reads is
// time the host took the core away. Prints the result as the run's host
// line.
struct HostNoise {
  uint64_t gaps_over_1ms = 0;
  double max_gap_us = 0;
};
HostNoise ProbeHostNoise(uint32_t threads, Nanos duration);

// --- Span tracer -------------------------------------------------------------

// One timed call into a module's public API. `parent` indexes the enclosing
// span in the same thread's buffer (kNoParent at top level); `request` is the
// workload's request id when the call serves one request (0 otherwise).
struct SpanRecord {
  Nanos start = 0;
  Nanos end = 0;
  uint32_t parent = 0;
  uint32_t request = 0;
  uint16_t name = 0;
  uint16_t thread = 0;
};
inline constexpr uint32_t kNoParent = ~uint32_t{0};

// Whether spans are being recorded right now (one relaxed load on the
// untraced path).
extern std::atomic<bool> g_tracing;

// Interns a span name of the form "<layer>.<call>"; call once per site
// (function-local static).
uint16_t SpanName(const char* name);

// Append-only span storage in fixed chunks: growing it never moves or
// copies recorded spans, so a long traced run pays no reallocation stalls.
class SpanStore {
 public:
  static constexpr size_t kChunkBits = 16;
  static constexpr size_t kChunk = size_t{1} << kChunkBits;

  size_t size() const { return size_; }
  SpanRecord& operator[](size_t i) {
    return chunks_[i >> kChunkBits][i & (kChunk - 1)];
  }
  const SpanRecord& operator[](size_t i) const {
    return chunks_[i >> kChunkBits][i & (kChunk - 1)];
  }
  void push_back(const SpanRecord& rec) {
    if ((size_ >> kChunkBits) == chunks_.size()) {
      chunks_.push_back(std::make_unique<SpanRecord[]>(kChunk));
    }
    (*this)[size_++] = rec;
  }
  void truncate(size_t n) { size_ = n < size_ ? n : size_; }
  // Allocates (and touches) room for n records up front, so recording them
  // later takes no page faults on the measured path.
  void Reserve(size_t n) {
    while (chunks_.size() * kChunk < n) {
      chunks_.push_back(std::make_unique<SpanRecord[]>(kChunk));
    }
  }
  // Calls fn(records, count) for each filled chunk, in order.
  template <typename Fn>
  void ForEachChunk(Fn fn) const {
    for (size_t c = 0; c * kChunk < size_; ++c) {
      fn(chunks_[c].get(), std::min(kChunk, size_ - c * kChunk));
    }
  }

 private:
  std::vector<std::unique_ptr<SpanRecord[]>> chunks_;
  size_t size_ = 0;
};

struct SpanBuffer {
  SpanStore spans;
  std::vector<uint32_t> open;
  uint16_t thread = 0;
};
SpanBuffer* ThreadSpanBuffer();

// RAII span around one public call; inert unless tracing is on.
class Span {
 public:
  explicit Span(uint16_t name, uint32_t request = 0) {
    if (!g_tracing.load(std::memory_order_relaxed)) {
      return;
    }
    buffer_ = ThreadSpanBuffer();
    index_ = static_cast<uint32_t>(buffer_->spans.size());
    SpanRecord rec;
    rec.parent = buffer_->open.empty() ? kNoParent : buffer_->open.back();
    rec.request = request;
    rec.name = name;
    rec.thread = buffer_->thread;
    buffer_->open.push_back(index_);
    rec.start = psp::TscClock::Global().Now();
    buffer_->spans.push_back(rec);
  }
  ~Span() { End(); }
  // Closes the span before scope exit (idempotent).
  void End() {
    if (buffer_ != nullptr) {
      buffer_->spans[index_].end = psp::TscClock::Global().Now();
      buffer_->open.pop_back();
      buffer_ = nullptr;
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Re-labels the open span (e.g. a call that turned out to do nothing).
  void Rename(uint16_t name);

 private:
  SpanBuffer* buffer_ = nullptr;
  uint32_t index_ = 0;
};

// Per-name duration statistics over every recorded span, with the tracer's
// own cost (the median of empty calibration spans) subtracted.
struct SpanStats {
  double p50_ns = 0;
  double p99_ns = 0;
  double total_ms = 0;
};
// Measures the empty-span cost (its spans are discarded), then turns tracing
// on.
void StartTracing();
SpanStats StatsFor(const char* name);
// Self time per layer: each span's duration minus its direct children's,
// summed by the "<layer>" prefix of its name, in ms.
std::vector<std::pair<std::string, double>> LayerSelfTimesMs();
// Writes every span (binary records + a names file) under `dir`; returns the
// number written, or -1 on an I/O error.
long WriteSpans(const std::string& dir, const std::string& stem);
double SpanOverheadNs();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
