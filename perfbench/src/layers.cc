#include "perfbench/src/layers.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <thread>

#include "src/common/memory_pool.h"
#include "src/common/rng.h"
#include "src/core/scheduler.h"
#include "src/fleet/fleet_snapshot.h"
#include "src/fleet/policy.h"
#include "src/net/packet.h"
#include "src/net/udp_ingress.h"
#include "src/runtime/channel.h"
#include "src/sched/admission.h"
#include "src/sched/edf_queue.h"
#include "src/sim/event_queue.h"
#include "src/sim/metrics.h"

namespace perfbench {
namespace {

using psp::Nanos;

// One generated arrival of a workload mix.
struct Arrival {
  Nanos at = 0;
  psp::TypeId wire = 0;
  Nanos service = 0;
};

std::vector<Arrival> MakeArrivals(const LayerInputs::Mix& mix,
                                  uint32_t workers, uint64_t seed, size_t n) {
  const psp::WorkloadPhase& phase = mix.workload.phases.front();
  psp::PhaseSampler sampler(phase);
  psp::Rng rng(seed);
  const double gap = 1e9 / (mix.load * mix.workload.PeakLoadRps(workers));
  std::vector<Arrival> out;
  out.reserve(n);
  Nanos now = 0;
  for (size_t i = 0; i < n; ++i) {
    now += static_cast<Nanos>(-gap * std::log(1.0 - rng.NextDouble())) + 1;
    const psp::MixtureDraw draw = sampler.Sample(rng);
    out.push_back({now, sampler.type(draw.mode).wire_id,
                   std::max<Nanos>(1, draw.service_time)});
  }
  return out;
}

// Calls shorter than a span's own cost are timed kBatch at a time.
constexpr uint32_t kBatch = 32;

// DarcScheduler::TryEnqueue / NextAssignment / OnCompletion replayed on the
// arrival sequence, with service modelled in virtual time.
void ProbeScheduler(const LayerInputs::Mix& mix, uint32_t workers,
                    uint64_t seed, Report* report) {
  static const uint16_t kEnqueue = SpanName("core.enqueue");
  static const uint16_t kDecision = SpanName("core.decision");
  static const uint16_t kDecisionIdle = SpanName("core.decision_empty");
  static const uint16_t kCompletion = SpanName("core.completion");
  psp::SchedulerConfig config;
  config.mode = psp::PolicyMode::kDarc;
  config.num_workers = workers;
  psp::DarcScheduler sched(config);
  for (const psp::WorkloadType& t : mix.workload.types()) {
    sched.RegisterType(t.wire_id, t.name, psp::FromMicros(t.mean_us), t.ratio);
  }
  sched.ActivateSeededReservation(0);

  struct Running {
    Nanos finish;
    psp::WorkerId worker;
    psp::TypeIndex type;
    Nanos service;
    bool operator>(const Running& o) const { return finish > o.finish; }
  };
  std::priority_queue<Running, std::vector<Running>, std::greater<Running>>
      running;
  uint64_t admitted = 0;
  uint64_t assigned = 0;
  const auto dispatch = [&](Nanos now) {
    for (;;) {
      std::optional<psp::DarcScheduler::Assignment> a;
      {
        Span s(kDecision);
        a = sched.NextAssignment(now);
        if (!a) {
          s.Rename(kDecisionIdle);
        }
      }
      if (!a) {
        return;
      }
      ++assigned;
      running.push({now + a->request.service_demand, a->worker,
                    a->request.type, a->request.service_demand});
    }
  };
  const auto complete_until = [&](Nanos now) {
    while (!running.empty() && running.top().finish <= now) {
      const Running r = running.top();
      running.pop();
      {
        Span s(kCompletion);
        sched.OnCompletion(r.worker, r.type, r.service, r.finish);
      }
      dispatch(r.finish);
    }
  };
  const std::vector<Arrival> arrivals = MakeArrivals(mix, workers, seed, 60000);
  uint32_t id = 0;
  for (const Arrival& a : arrivals) {
    complete_until(a.at);
    psp::Request request;
    request.id = ++id;
    request.type = sched.ResolveType(a.wire);
    request.arrival = a.at;
    request.service_demand = a.service;
    auto result = psp::DarcScheduler::EnqueueResult::kOk;
    {
      Span s(kEnqueue, id);
      result = sched.TryEnqueue(request, a.at);
    }
    admitted += result == psp::DarcScheduler::EnqueueResult::kOk ? 1 : 0;
    dispatch(a.at);
  }
  complete_until(INT64_MAX);
  report->ExpectEqual("core replay: admitted requests all assigned", admitted,
                      assigned);
}

// EdfQueue push + pop-earliest at a steady 64-deep queue, on the arrival
// sequence with fig_deadline budgets.
void ProbeEdf(const LayerInputs::Mix& mix, uint32_t workers, uint64_t seed,
              Report* report) {
  static const uint16_t kEdf = SpanName("sched.edf_push_pop_x16");
  psp::EdfQueue queue;
  const psp::DeadlineConfig budgets = FigDeadlineBudgets(mix.workload);
  const std::vector<Arrival> arrivals = MakeArrivals(mix, workers, seed, 40000);
  std::vector<psp::Request> requests(arrivals.size());
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    Nanos budget = 0;
    for (const psp::WorkloadType& t : mix.workload.types()) {
      if (t.wire_id == a.wire) {
        budget = budgets.BudgetFor(t.name, psp::FromMicros(t.mean_us));
      }
    }
    requests[i].id = i + 1;
    requests[i].arrival = a.at;
    requests[i].deadline = a.at + budget;
  }
  // Steady 64-deep queue: each timed batch pushes and pops 16 requests.
  constexpr size_t kDepth = 64;
  constexpr size_t kPairs = 16;
  for (size_t i = 0; i < kDepth; ++i) {
    queue.Push(requests[i]);
  }
  uint64_t popped = 0;
  psp::Request out;
  for (size_t i = kDepth; i + kPairs <= requests.size(); i += kPairs) {
    Span s(kEdf, static_cast<uint32_t>(i + 1));
    for (size_t k = 0; k < kPairs; ++k) {
      queue.Push(requests[i + k]);
      popped += queue.PopEarliest(&out) ? 1 : 0;
    }
  }
  const uint64_t pushed = (requests.size() - kDepth) / kPairs * kPairs;
  report->ExpectEqual("edf replay: one pop per push", popped, pushed);
  report->ExpectEqual("edf replay: queue depth held", queue.Size(), kDepth);
}

void ProbeAdmission(uint64_t seed) {
  static const uint16_t kAdmission = SpanName("sched.admission_x64");
  psp::Rng rng(seed);
  uint64_t admitted = 0;
  for (int i = 0; i < 20000; ++i) {
    const Nanos now = static_cast<Nanos>(i) * 1000;
    const Nanos mean = 1000 + static_cast<Nanos>(rng.NextBounded(100000));
    const Nanos deadline =
        now + 20000 + static_cast<Nanos>(rng.NextBounded(200000));
    Span s(kAdmission);
    for (uint32_t k = 0; k < 64; ++k) {
      admitted +=
          psp::PredictAdmission(now, deadline, k, mean, 1 + (k & 7)).admit;
    }
  }
  if (admitted == 0) {
    Say("  admission replay admitted nothing\n");
  }
}

// Simulation hold-model replay: `pending` events outstanding, each executed
// event schedules its successor, so schedule + execute cost is measured at
// the workload's queue occupancy.
void ProbeEventEngine(uint32_t pending, uint64_t seed) {
  static const uint16_t kRun = SpanName("sim.event_engine_run");
  struct Hold {
    psp::Simulation* sim;
    psp::Rng rng;
    uint64_t remaining;
    Nanos mean_gap;
  };
  psp::Simulation sim;
  Hold hold{&sim, psp::Rng(seed), 400000, static_cast<Nanos>(pending) * 1000};
  struct Fire {
    Hold* h;
    void operator()() const {
      if (h->remaining == 0) {
        return;
      }
      --h->remaining;
      const double u = h->rng.NextDouble();
      const Nanos delay = static_cast<Nanos>(
          -static_cast<double>(h->mean_gap) * std::log(1.0 - u)) + 1;
      h->sim->ScheduleAfter(delay, Fire{h});
    }
  };
  for (uint32_t i = 0; i < pending; ++i) {
    sim.ScheduleAt(static_cast<Nanos>(hold.rng.NextBounded(hold.mean_gap)) + 1,
                   Fire{&hold});
  }
  Span s(kRun);
  sim.RunToCompletion();
}

void ProbeRecordCompletion(const LayerInputs::Mix& mix, uint32_t workers,
                           uint64_t seed, Report* report) {
  static const uint16_t kRecord = SpanName("sim.record_completion_x32");
  psp::Metrics metrics(0);
  for (const psp::WorkloadType& t : mix.workload.AllTypes()) {
    metrics.RegisterType(t.wire_id, t.name);
  }
  const std::vector<Arrival> arrivals = MakeArrivals(mix, workers, seed, 60000);
  psp::Rng rng(seed ^ 0x5eed);
  std::vector<Nanos> receive(arrivals.size());
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Nanos queueing = static_cast<Nanos>(rng.NextBounded(20000));
    receive[i] = arrivals[i].at + 10000 + queueing + arrivals[i].service;
  }
  for (size_t i = 0; i + kBatch <= arrivals.size(); i += kBatch) {
    Span s(kRecord);
    for (size_t k = i; k < i + kBatch; ++k) {
      metrics.RecordCompletion(arrivals[k].wire, arrivals[k].at, receive[k],
                               arrivals[k].service);
    }
  }
  report->ExpectEqual("record-completion replay: every sample counted",
                      metrics.TotalCount(), arrivals.size());
}

void ProbeFleetPick(uint64_t seed, Report* report) {
  static const uint16_t kPick = SpanName("fleet.pick_x32");
  const uint32_t servers = 4;
  auto policy = psp::FleetDispatchPolicy::Create(
      psp::FleetPolicyConfig::Default(psp::FleetPolicyKind::kPowerOfTwo),
      servers);
  std::vector<int64_t> depth(servers, 0);
  psp::Rng rng(seed);
  uint32_t picks[kBatch];
  uint64_t out_of_range = 0;
  for (uint32_t round = 0; round < 2000; ++round) {
    const psp::FleetDepths view{depth.data(), servers};
    {
      Span s(kPick);
      for (uint32_t k = 0; k < kBatch; ++k) {
        picks[k] = policy->Pick(static_cast<uint32_t>(rng.Next()), rng, view);
      }
    }
    for (const uint32_t pick : picks) {
      out_of_range += pick < servers ? 0 : 1;
      ++depth[pick % servers];
      const uint32_t done = static_cast<uint32_t>(rng.NextBounded(servers));
      if (depth[done] > 0) {
        --depth[done];
      }
    }
  }
  report->ExpectEqual("fleet pick: servers out of range", out_of_range, 0);
}

void ProbeFleetMerge(const std::vector<psp::TelemetrySnapshot>& snapshots,
                     Report* report) {
  static const uint16_t kMerge = SpanName("fleet.merge");
  psp::FleetSnapshot fleet;
  fleet.policy = "po2c";
  fleet.servers = snapshots;
  uint64_t expected = 0;
  for (const psp::TelemetrySnapshot& s : snapshots) {
    expected += s.counter("scheduler.completed");
  }
  for (int rep = 0; rep < 5; ++rep) {
    psp::TelemetrySnapshot merged;
    {
      Span s(kMerge);
      merged = fleet.Merged();
    }
    report->ExpectEqual("fleet merge: completed counters add up",
                        merged.counter("scheduler.completed"), expected);
  }
}

// Request-frame path: pool buffer, build, parse, format in place, free —
// each step timed over a batch of kBatch frames.

void ProbePacketPath(const LayerInputs::Mix& mix, uint64_t seed,
                     Report* report) {
  static const uint16_t kAlloc = SpanName("common.pool_alloc_x32");
  static const uint16_t kFree = SpanName("common.pool_free_x32");
  static const uint16_t kBuild = SpanName("net.build_x32");
  static const uint16_t kParse = SpanName("net.parse_x32");
  static const uint16_t kFormat = SpanName("net.format_x32");
  psp::MemoryPool pool(psp::kMaxPacketSize, 1024);
  psp::BufferCache cache(&pool);
  psp::Rng rng(seed);
  const auto& types = mix.workload.types();
  uint64_t bad = 0;
  std::byte* bufs[kBatch];
  uint32_t lens[kBatch];
  uint64_t spins[kBatch];
  psp::RequestFrame frames[kBatch];
  std::optional<psp::ParsedRequest> parsed[kBatch];
  for (uint32_t round = 0; round < 2000; ++round) {
    const uint32_t first = round * kBatch + 1;
    for (uint32_t k = 0; k < kBatch; ++k) {
      spins[k] = 1000 + rng.NextBounded(1000);
      psp::RequestFrame& frame = frames[k];
      frame.flow = {0x0A000001u, 0x0A0000FFu, 40000, 6789};
      frame.request_type = types[rng.NextBounded(types.size())].wire_id;
      frame.request_id = first + k;
      frame.client_id = 7;
      frame.client_timestamp = static_cast<Nanos>(first + k) * 1000;
      frame.payload = reinterpret_cast<const std::byte*>(&spins[k]);
      frame.payload_length = sizeof(spins[k]);
    }
    {
      Span s(kAlloc, first);
      for (uint32_t k = 0; k < kBatch; ++k) {
        bufs[k] = cache.Alloc();
      }
    }
    {
      Span s(kBuild, first);
      for (uint32_t k = 0; k < kBatch; ++k) {
        lens[k] =
            psp::BuildRequestPacket(frames[k], bufs[k], pool.buffer_size());
      }
    }
    {
      Span s(kParse, first);
      for (uint32_t k = 0; k < kBatch; ++k) {
        parsed[k] = psp::ParseRequestPacket(bufs[k], lens[k]);
      }
    }
    for (uint32_t k = 0; k < kBatch; ++k) {
      uint64_t echoed = 0;
      if (parsed[k] && parsed[k]->psp.request_id == first + k &&
          parsed[k]->payload_length == sizeof(echoed)) {
        std::memcpy(&echoed, parsed[k]->payload, sizeof(echoed));
      }
      bad += echoed == spins[k] ? 0 : 1;
    }
    {
      Span s(kFormat, first);
      for (uint32_t k = 0; k < kBatch; ++k) {
        lens[k] = psp::FormatResponseInPlace(bufs[k], sizeof(uint64_t));
      }
    }
    {
      Span s(kFree, first);
      for (uint32_t k = 0; k < kBatch; ++k) {
        cache.Free(bufs[k]);
      }
    }
  }
  report->ExpectEqual("packet path: frames that failed to round-trip", bad, 0);
}

// WorkerChannel order push -> pop -> completion push -> pop across two
// pinned threads (one round trip = two hops).
void ProbeChannel(Report* report) {
  static const uint16_t kRtt = SpanName("common.channel_round_trip");
  psp::WorkerChannel channel(512);
  std::atomic<bool> stop{false};
  std::jthread echo([&] {
    PinTo(1);
    psp::WorkOrder order;
    while (!stop.load(std::memory_order_relaxed)) {
      if (channel.PopOrder(&order)) {
        psp::CompletionSignal signal;
        signal.request_id = order.request_id;
        while (!channel.PushCompletion(signal)) {
        }
      }
    }
  });
  const RaiseOnExit stop_echo(&stop);
  PinTo(2);
  uint64_t mismatched = 0;
  for (uint32_t i = 1; i <= 50000; ++i) {
    psp::WorkOrder order;
    order.request_id = i;
    psp::CompletionSignal signal;
    Span s(kRtt, i);
    while (!channel.PushOrder(order)) {
    }
    while (!channel.PopCompletion(&signal)) {
    }
    mismatched += signal.request_id == i ? 0 : 1;
  }
  Unpin();
  report->ExpectEqual("channel round trips with the wrong request", mismatched,
                      0);
}

// UdpIngress against the benchmark's own loopback socket: bursts of
// datagrams sent by a client socket, drained through PollBurst (net worker
// recvmmsg + forwarding ring), answered through SendBurst (sendmmsg).
constexpr size_t kUdpBurst = 16;

void ProbeUdp(Report* report) {
  static const uint16_t kRx = SpanName("net.udp_rx_burst");
  static const uint16_t kTx = SpanName("net.udp_tx_burst");
  constexpr size_t kBurst = kUdpBurst;
  constexpr int kRounds = 400;
  psp::IngressConfig config;
  config.mode = psp::IngressMode::kUdp;
  config.listen_port = 0;
  config.poll.policy = psp::PollPolicy::kBusy;
  psp::MemoryPool pool(psp::kMaxPacketSize, 2048);
  psp::UdpIngress udp(config, 1024, &pool, false);
  if (const std::string err = udp.Open(); !err.empty()) {
    report->Fail("udp probe: " + err);
    return;
  }
  std::atomic<bool> stop{false};
  std::jthread net([&] {
    PinTo(1);
    udp.RunNetWorker(0, stop);
  });
  const RaiseOnExit stop_net(&stop);
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(udp.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  timeval tv{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  PinTo(2);
  uint64_t polls = 0;
  uint64_t frames_in = 0;
  uint64_t echoed = 0;
  uint64_t lost = 0;
  std::byte scratch[psp::kMaxPacketSize];
  const psp::TscClock& clock = psp::TscClock::Global();
  for (int round = 0; round < kRounds && lost == 0; ++round) {
    psp::PacketRef frames[kBurst];
    size_t got = 0;
    // Ingress per datagram: from the client's first send until the
    // dispatcher side has polled the whole burst (kernel loopback, net-worker
    // recvmmsg, validation, forwarding ring, PollBurst fan-in).
    Span rx(kRx, static_cast<uint32_t>(round));
    for (size_t i = 0; i < kBurst; ++i) {
      psp::RequestFrame frame;
      frame.request_type = 1;
      frame.request_id = static_cast<uint64_t>(round) * kBurst + i + 1;
      frame.client_timestamp = 1;
      const uint32_t len =
          psp::BuildRequestPacket(frame, scratch, sizeof(scratch));
      ::send(fd, scratch + psp::kRequestOffset, len - psp::kRequestOffset, 0);
    }
    const Nanos give_up = clock.Now() + 500 * psp::kMillisecond;
    while (got < kBurst && clock.Now() < give_up) {
      const size_t n = udp.PollBurst(frames + got, kBurst - got);
      polls += n > 0 ? 1 : 0;
      got += n;
    }
    rx.End();
    frames_in += got;
    if (got < kBurst) {
      lost += kBurst - got;
    }
    for (size_t i = 0; i < got; ++i) {
      frames[i].length = psp::FormatResponseInPlace(frames[i].data, 0);
    }
    {
      Span s(kTx, static_cast<uint32_t>(round));
      udp.SendBurst(frames, got, 1);
    }
    for (size_t i = 0; i < got; ++i) {
      const ssize_t n = ::recv(fd, scratch, sizeof(scratch), 0);
      if (n >= static_cast<ssize_t>(sizeof(psp::PspHeader))) {
        ++echoed;
      }
    }
  }
  ::close(fd);
  Unpin();
  report->ExpectEqual("udp probe: datagrams lost on loopback", lost, 0);
  report->ExpectEqual("udp probe: responses echoed", echoed, frames_in);
  report->Set("net.udp_batch",
              polls > 0 ? static_cast<double>(frames_in) /
                              static_cast<double>(polls)
                        : 0,
              "frames");
}

}  // namespace

psp::DeadlineConfig FigDeadlineBudgets(const psp::WorkloadSpec& workload) {
  psp::DeadlineConfig config;
  for (const auto& t : workload.AllTypes()) {
    psp::DeadlineTarget target;
    target.type_name = t.name;
    target.budget = psp::FromMicros(std::max(20.0, 1.4 * t.mean_us));
    config.targets.push_back(target);
  }
  return config;
}

void RunLayerProbes(const LayerInputs& in, Report* report) {
  const psp::TscClock& clock = psp::TscClock::Global();
  const Nanos t0 = clock.Now();
  for (size_t i = 0; i < in.mixes.size(); ++i) {
    ProbeScheduler(in.mixes[i], in.workers, in.seed + i, report);
    ProbeEdf(in.mixes[i], in.workers, in.seed + i, report);
    ProbeRecordCompletion(in.mixes[i], in.workers, in.seed + i, report);
  }
  ProbeAdmission(in.seed);
  ProbeEventEngine(in.pending_events, in.seed);
  ProbeFleetPick(in.seed, report);
  ProbeFleetMerge(in.server_snapshots, report);
  ProbePacketPath(in.mixes.front(), in.seed, report);
  ProbeChannel(report);
  ProbeUdp(report);

  const auto p50 = [](const char* name) { return StatsFor(name).p50_ns; };
  const auto p99 = [](const char* name) { return StatsFor(name).p99_ns; };
  report->Set("core.enqueue_ns", p50("core.enqueue"), "ns");
  report->Set("core.enqueue_p99_ns", p99("core.enqueue"), "ns");
  report->Set("core.decision_ns", p50("core.decision"), "ns");
  report->Set("core.decision_p99_ns", p99("core.decision"), "ns");
  report->Set("core.completion_ns", p50("core.completion"), "ns");
  report->Set("core.completion_p99_ns", p99("core.completion"), "ns");
  report->Set("common.channel_hop_ns", p50("common.channel_round_trip") / 2,
              "ns");
  report->Set("net.build_ns", p50("net.build_x32") / kBatch, "ns");
  report->Set("net.parse_ns", p50("net.parse_x32") / kBatch, "ns");
  report->Set("net.format_ns", p50("net.format_x32") / kBatch, "ns");
  report->Set("common.pool_ns",
              (p50("common.pool_alloc_x32") + p50("common.pool_free_x32")) /
                  kBatch,
              "ns");
  report->Set("net.udp_rx_ns", p50("net.udp_rx_burst") / kUdpBurst, "ns");
  report->Set("net.udp_tx_ns", p50("net.udp_tx_burst") / kUdpBurst, "ns");
  report->Set("sched.edf_ns", p50("sched.edf_push_pop_x16") / 16, "ns");
  report->Set("sched.admission_ns", p50("sched.admission_x64") / 64, "ns");
  {
    const SpanStats run = StatsFor("sim.event_engine_run");
    // 400k successor events plus the initial population.
    report->Set("sim.event_ns",
                run.total_ms * 1e6 / (400000.0 + in.pending_events), "ns");
  }
  report->Set("sim.record_completion_ns",
              p50("sim.record_completion_x32") / kBatch, "ns");
  report->Set("fleet.pick_ns", p50("fleet.pick_x32") / kBatch, "ns");
  report->Set("fleet.merge_ms", p50("fleet.merge") / 1e6, "ms");
  Say("layer probes: %.2f s, span cost %.1f ns subtracted from every call\n",
      static_cast<double>(clock.Now() - t0) / 1e9, SpanOverheadNs());
}

void SetLedgerMetrics(const std::vector<psp::WorkerTimeRecord>& records,
                      Report* report) {
  std::array<double, psp::kNumWorkerTimeStates> worker{};
  std::array<double, psp::kNumWorkerTimeStates> dispatcher{};
  double worker_wall = 0;
  double dispatcher_wall = 0;
  for (const psp::WorkerTimeRecord& rec : records) {
    const bool is_worker = rec.role == "worker";
    for (size_t s = 0; s < psp::kNumWorkerTimeStates; ++s) {
      const double v = static_cast<double>(rec.state_ns[s]);
      (is_worker ? worker : dispatcher)[s] += v;
      (is_worker ? worker_wall : dispatcher_wall) += v;
    }
  }
  const auto pct = [](double v, double wall) {
    return wall > 0 ? 100.0 * v / wall : 0.0;
  };
  using S = psp::WorkerTimeState;
  const auto at = [](const auto& arr, S s) {
    return arr[static_cast<size_t>(s)];
  };
  report->Set("ledger.busy_pct", pct(at(worker, S::kBusy), worker_wall), "%");
  report->Set("ledger.steal_pct", pct(at(worker, S::kSteal), worker_wall), "%");
  report->Set("ledger.reserved_idle_pct",
              pct(at(worker, S::kReservedIdle), worker_wall), "%");
  report->Set("ledger.free_idle_pct",
              pct(at(worker, S::kFreeIdle), worker_wall), "%");
  report->Set("ledger.poll_spin_pct",
              pct(at(dispatcher, S::kPollSpin), dispatcher_wall), "%");
  report->Set("ledger.dispatch_overhead_pct",
              pct(at(dispatcher, S::kDispatchOverhead), dispatcher_wall), "%");
}

void SetLayerSelfTimes(Report* report) {
  static const char* const kLayers[] = {"sim",     "fleet", "core",
                                        "sched",   "runtime", "net",
                                        "common",  "telemetry"};
  const auto self = LayerSelfTimesMs();
  Say("\nper-layer self time (span minus child spans, tracer cost removed):\n");
  Say("  %-10s %12s\n", "layer", "self_ms");
  for (const char* layer : kLayers) {
    double ms = 0;
    for (const auto& [name, value] : self) {
      if (name == layer) {
        ms = value;
      }
    }
    Say("  %-10s %12.3f\n", layer, ms);
    report->Set(std::string("self.") + layer + "_ms", ms, "ms");
  }
  for (const auto& [name, value] : self) {
    bool known = false;
    for (const char* layer : kLayers) {
      known = known || name == layer;
    }
    if (!known) {
      Say("  %-10s %12.3f  (benchmark-side, not a module)\n", name.c_str(),
          value);
    }
  }
}

}  // namespace perfbench
