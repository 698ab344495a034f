#include "perfbench/src/bench.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

namespace perfbench {

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) {
    return 0;
  }
  const double rank =
      std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  size_t k = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  k = std::min(k, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// --- Report ------------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

bool Report::Has(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      return true;
    }
  }
  return false;
}

double Report::Get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      return m.value;
    }
  }
  return 0;
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  Say("CHECK FAILED: %s\n", why.c_str());
}

void Report::ExpectEqual(const std::string& what, uint64_t lhs, uint64_t rhs) {
  if (lhs != rhs) {
    Fail(what + ": " + std::to_string(lhs) + " != " + std::to_string(rhs));
  }
}

std::string Report::ResultJson(const std::vector<std::string>& names) const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    for (const Metric& m : metrics_) {
      if (m.name != name) {
        continue;
      }
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      out += first ? "" : ", ";
      out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
             m.unit + "\"}";
      first = false;
    }
  }
  out += "}}";
  return out;
}

void Say(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::fflush(stdout);
}

// --- Threads and host --------------------------------------------------------

uint32_t OnlineCores() {
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  return cores > 0 ? static_cast<uint32_t>(cores) : 1;
}

void PinTo(uint32_t cpu) {
  const uint32_t cores = OnlineCores();
  if (cores <= 1) {
    return;
  }
  cpu_set_t set{};
  CPU_ZERO(&set);
  CPU_SET(cpu % cores, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

void Unpin() {
  cpu_set_t set{};
  CPU_ZERO(&set);
  for (uint32_t c = 0; c < OnlineCores(); ++c) {
    CPU_SET(c, &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

HostNoise ProbeHostNoise(uint32_t threads, Nanos duration) {
  struct PerThread {
    uint64_t gaps = 0;
    Nanos max_gap = 0;
  };
  std::vector<PerThread> results(threads);
  {
    std::vector<std::jthread> spinners;  // joined when the scope ends
    for (uint32_t t = 0; t < threads; ++t) {
      spinners.emplace_back([t, duration, &results] {
        PinTo(t);
        const psp::TscClock& clock = psp::TscClock::Global();
        const Nanos start = clock.Now();
        Nanos prev = start;
        PerThread r;
        while (prev - start < duration) {
          const Nanos now = clock.Now();
          const Nanos gap = now - prev;
          if (gap > psp::kMillisecond) {
            ++r.gaps;
          }
          r.max_gap = std::max(r.max_gap, gap);
          prev = now;
        }
        results[t] = r;
      });
    }
  }
  HostNoise noise;
  for (const PerThread& r : results) {
    noise.gaps_over_1ms += r.gaps;
    noise.max_gap_us =
        std::max(noise.max_gap_us, static_cast<double>(r.max_gap) / 1e3);
  }
  Say("host: %u cores, %llu gaps > 1 ms, max gap %.1f us "
      "(%u spinning threads)\n",
      OnlineCores(), static_cast<unsigned long long>(noise.gaps_over_1ms),
      noise.max_gap_us, threads);
  return noise;
}

// --- Span tracer -------------------------------------------------------------

std::atomic<bool> g_tracing{false};

namespace {

struct TracerState {
  std::mutex mu;
  std::vector<std::string> names;
  std::vector<std::unique_ptr<SpanBuffer>> buffers;
  double overhead_ns = 0;
};

TracerState& State() {
  static TracerState state;
  return state;
}

std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

uint16_t SpanName(const char* name) {
  TracerState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  for (size_t i = 0; i < s.names.size(); ++i) {
    if (s.names[i] == name) {
      return static_cast<uint16_t>(i);
    }
  }
  s.names.emplace_back(name);
  return static_cast<uint16_t>(s.names.size() - 1);
}

SpanBuffer* ThreadSpanBuffer() {
  thread_local SpanBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    TracerState& s = State();
    std::lock_guard<std::mutex> lock(s.mu);
    s.buffers.push_back(std::make_unique<SpanBuffer>());
    buffer = s.buffers.back().get();
    buffer->thread = static_cast<uint16_t>(s.buffers.size() - 1);
  }
  return buffer;
}

void Span::Rename(uint16_t name) {
  if (buffer_ != nullptr) {
    buffer_->spans[index_].name = name;
  }
}

void StartTracing() {
  static const uint16_t kEmpty = SpanName("calib.empty");
  std::vector<double> durations;
  SpanBuffer* buffer = ThreadSpanBuffer();
  const size_t mark = buffer->spans.size();
  g_tracing.store(true);
  for (int i = 0; i < 20000; ++i) {
    { Span s(kEmpty); }
    const SpanRecord& r = buffer->spans[buffer->spans.size() - 1];
    durations.push_back(static_cast<double>(r.end - r.start));
  }
  buffer->spans.truncate(mark);
  State().overhead_ns = Median(durations);
}

double SpanOverheadNs() { return State().overhead_ns; }

SpanStats StatsFor(const char* name) {
  const uint16_t id = SpanName(name);
  TracerState& s = State();
  std::vector<double> durations;
  double total = 0;
  for (const auto& buffer : s.buffers) {
    for (size_t i = 0; i < buffer->spans.size(); ++i) {
      const SpanRecord& r = buffer->spans[i];
      if (r.name == id) {
        const double d = std::max(
            0.0, static_cast<double>(r.end - r.start) - s.overhead_ns);
        durations.push_back(d);
        total += d;
      }
    }
  }
  SpanStats st;
  st.total_ms = total / 1e6;
  st.p50_ns = Percentile(durations, 50);
  st.p99_ns = Percentile(std::move(durations), 99);
  return st;
}

std::vector<std::pair<std::string, double>> LayerSelfTimesMs() {
  TracerState& s = State();
  std::map<std::string, double> by_layer;
  for (const auto& buffer : s.buffers) {
    const SpanStore& spans = buffer->spans;
    std::vector<double> child(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& r = spans[i];
      if (r.parent != kNoParent) {
        child[r.parent] += static_cast<double>(r.end - r.start);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const std::string layer = LayerOf(s.names[spans[i].name]);
      if (layer == "calib") {
        continue;
      }
      const double self = static_cast<double>(spans[i].end - spans[i].start) -
                          child[i] - s.overhead_ns;
      by_layer[layer] += std::max(0.0, self) / 1e6;
    }
  }
  return {by_layer.begin(), by_layer.end()};
}

long WriteSpans(const std::string& dir, const std::string& stem) {
  ::mkdir(dir.c_str(), 0755);
  TracerState& s = State();
  std::ofstream names(dir + "/" + stem + ".names");
  for (size_t i = 0; i < s.names.size(); ++i) {
    names << i << ' ' << s.names[i] << '\n';
  }
  // Records: little-endian SpanRecord structs, all threads back to back.
  std::ofstream out(dir + "/" + stem + ".spans", std::ios::binary);
  long written = 0;
  for (const auto& buffer : s.buffers) {
    buffer->spans.ForEachChunk([&out](const SpanRecord* recs, size_t n) {
      out.write(reinterpret_cast<const char*>(recs),
                static_cast<std::streamsize>(n * sizeof(SpanRecord)));
    });
    written += static_cast<long>(buffer->spans.size());
  }
  return names.good() && out.good() ? written : -1;
}

}  // namespace perfbench
