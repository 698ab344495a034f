// Telemetry overhead bench: the recorder must not blow the dispatcher's
// ~100 ns per-request budget (§4.3.3). Runs the full dispatch-decision loop
// (enqueue + Algorithm 1 + completion on a seeded High Bimodal scheduler,
// the same loop as micro_dispatcher's BM_DispatchDecision) three ways —
// tracing off, 1-in-64 sampling (the default), and tracing every request —
// and prints ns/op plus the on/off delta. Acceptance: the 1-in-64 delta
// stays within 5%. Also reports the isolated costs of a TraceRing push and
// a relaxed Counter increment.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/common/time.h"
#include "src/core/scheduler.h"
#include "src/telemetry/telemetry.h"

namespace psp {
namespace {

constexpr uint64_t kIters = 400000;
// Overhead measurement: the three variants (off / 1-in-64 / every request)
// run round-robin in ~120 µs batches, and each variant keeps the minimum
// batch time. Fine-grained interleaving + min-of-many-batches is robust to
// the scheduler noise and CPU throttling of shared machines, where timing
// whole passes back-to-back is not (the deltas at stake are ~2 ns on a
// ~60 ns op).
constexpr uint64_t kBatch = 2000;
constexpr int kRounds = 1500;

DarcScheduler* MakeScheduler() {
  SchedulerConfig config;
  config.num_workers = 14;
  config.profiler.min_window_samples = UINT64_MAX;  // no mid-loop transitions
  auto* scheduler = new DarcScheduler(config);
  scheduler->RegisterType(1, "S", 1000, 0.5);
  scheduler->RegisterType(2, "L", 100000, 0.5);
  scheduler->ActivateSeededReservation();
  return scheduler;
}

// One timed batch of the dispatch loop with lifecycle tracing driven by
// `sampler` (persistent across batches so 1-in-N cadence carries over).
// Mirrors the runtime's stamping points: rx/classified/enqueued into a slab
// slot on the dispatcher side, the slot's stamps moved into the work order at
// dispatch, dispatched/handler/tx on the worker side, then the ring commit.
double TimedBatch(DarcScheduler* scheduler, TraceSlab* slab, TraceRing* ring,
                  TraceSampler* sampler, uint64_t* next_id) {
  const TypeIndex short_t = scheduler->ResolveType(1);
  const TscClock& clock = TscClock::Global();
  const Nanos begin = clock.Now();
  for (uint64_t i = 0; i < kBatch; ++i) {
    const uint64_t id = (*next_id)++;
    Request r;
    r.id = id;
    r.type = short_t;
    r.arrival = static_cast<Nanos>(id);
    if (sampler->Tick() && (r.trace = slab->Acquire()) != kNoTrace) {
      TraceContext& trace = slab->at(r.trace);
      const Nanos now = clock.Now();
      trace.Mark(TraceStage::kRx, now);
      trace.Mark(TraceStage::kClassified, now);
      trace.Mark(TraceStage::kEnqueued, clock.Now());
    }
    scheduler->Enqueue(r, r.arrival);
    auto a = scheduler->NextAssignment(r.arrival);
    if (a && a->request.trace != kNoTrace) {
      TraceContext trace = slab->Take(a->request.trace);
      trace.Mark(TraceStage::kDispatched, clock.Now());
      const Nanos start = clock.Now();
      trace.Mark(TraceStage::kHandlerStart, start);
      trace.Mark(TraceStage::kHandlerEnd, clock.Now());
      trace.Mark(TraceStage::kTx, clock.Now());
      RequestTrace record;
      record.request_id = a->request.id;
      record.type = a->request.type;
      record.worker = a->worker;
      record.stamp = trace.stamp;
      ring->Push(record);
    }
    scheduler->OnCompletion(a->worker, short_t, 1000,
                            static_cast<Nanos>(id + 1));
  }
  const Nanos end = clock.Now();
  return static_cast<double>(end - begin) / static_cast<double>(kBatch);
}

struct PassResults {
  double off = 1e18;
  double sampled = 1e18;
  double full = 1e18;
};

PassResults BestPasses(DarcScheduler* scheduler, TraceSlab* slab,
                       TraceRing* ring) {
  PassResults best;
  TraceSampler off(0);
  TraceSampler sampled(64);
  TraceSampler full(1);
  uint64_t next_id = 0;
  for (int round = 0; round < kRounds; ++round) {
    best.off = std::min(best.off,
                        TimedBatch(scheduler, slab, ring, &off, &next_id));
    best.sampled = std::min(
        best.sampled, TimedBatch(scheduler, slab, ring, &sampled, &next_id));
    best.full = std::min(best.full,
                         TimedBatch(scheduler, slab, ring, &full, &next_id));
  }
  return best;
}

double BenchRingPush(TraceRing* ring) {
  const TscClock& clock = TscClock::Global();
  RequestTrace record;
  record.stamp[0] = 1;
  const Nanos begin = clock.Now();
  for (uint64_t i = 0; i < kIters; ++i) {
    record.request_id = i;
    ring->Push(record);
  }
  const Nanos end = clock.Now();
  return static_cast<double>(end - begin) / static_cast<double>(kIters);
}

double BenchCounterAdd(Counter* counter) {
  const TscClock& clock = TscClock::Global();
  const Nanos begin = clock.Now();
  for (uint64_t i = 0; i < kIters; ++i) {
    counter->Add();
  }
  const Nanos end = clock.Now();
  return static_cast<double>(end - begin) / static_cast<double>(kIters);
}

int Main() {
  TraceRing ring(4096);
  TraceSlab slab(1024);

  DarcScheduler* scheduler = MakeScheduler();
  // Warm caches + the TSC calibration before any timed batch.
  {
    TraceSampler warm(0);
    uint64_t warm_id = 0;
    for (int i = 0; i < 20; ++i) {
      TimedBatch(scheduler, &slab, &ring, &warm, &warm_id);
    }
  }

  const PassResults best = BestPasses(scheduler, &slab, &ring);
  const double off_ns = best.off;
  const double sampled_ns = best.sampled;
  const double full_ns = best.full;
  delete scheduler;

  const double sampled_delta = (sampled_ns - off_ns) / off_ns * 100.0;
  const double full_delta = (full_ns - off_ns) / off_ns * 100.0;

  std::printf("# dispatch-decision loop, %d interleaved rounds of %" PRIu64
              "-op batches (min per variant)\n",
              kRounds, kBatch);
  std::printf("%-28s %8.2f ns/op\n", "tracing off", off_ns);
  std::printf("%-28s %8.2f ns/op  (delta %+.2f%%)\n", "tracing 1-in-64",
              sampled_ns, sampled_delta);
  std::printf("%-28s %8.2f ns/op  (delta %+.2f%%)\n", "tracing every request",
              full_ns, full_delta);

  std::printf("%-28s %8.2f ns/op\n", "TraceRing::Push", BenchRingPush(&ring));
  Counter counter;
  std::printf("%-28s %8.2f ns/op\n", "Counter::Add (relaxed)",
              BenchCounterAdd(&counter));

  // Acceptance gate (ISSUE: 1-in-64 delta within 5%). Leave some slack for
  // timer noise before failing hard; the delta is also printed above.
  const bool ok = sampled_delta < 5.0;
  std::printf("sampled-overhead-check: %s (%.2f%% < 5%%)\n",
              ok ? "PASS" : "FAIL", sampled_delta);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace psp

int main() { return psp::Main(); }
