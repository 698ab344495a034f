// sim_paper and sim_fleet: the discrete-event simulator driven with the same
// presets the paper-figure benches use (bench/bench_util.h), so every point
// here is the point fig03/fig06 print for the same seed and duration.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "perfbench/src/bench.h"
#include "perfbench/src/layers.h"
#include "perfbench/src/workloads.h"
#include "src/fleet/fleet_sim.h"

namespace perfbench {
namespace {

using psp::ClusterConfig;
using psp::ClusterEngine;
using psp::Nanos;
using psp::WorkloadSpec;

constexpr uint32_t kWorkers = 14;
// Sending window per grid point (PSP_BENCH_DURATION_MS for the figure
// benches in the cross-check).
constexpr Nanos kPointDuration = 500 * psp::kMillisecond;
// The EDF point's window: long enough that its miss rate, a tail share of a
// few percent, repeats across seeds within a few percent.
constexpr Nanos kEdfDuration = 8 * psp::kSecond;
// Failure budget for a capacity point: at most 0.1% of requests dropped.
constexpr double kMaxFailedShare = 0.001;

using PolicyFactory = std::function<std::unique_ptr<psp::SchedulingPolicy>()>;

struct System {
  std::string name;
  PolicyFactory make;
};

struct Sweep {
  std::string name;  // "hb" or "tpcc"
  WorkloadSpec workload;
  double slo;  // p99.9 slowdown target
  std::vector<System> systems;
};

// c-FCFS as each figure defines it: inside the Perséphone pipeline for
// High Bimodal (Fig 3), Shenango's work-stealing model for TPC-C (Fig 6).
std::vector<Sweep> PaperSweeps() {
  return {
      {"hb", psp::HighBimodal(), 20.0,
       {{"c-FCFS", [] { return psp::bench::MakePspCFcfs(); }},
        {"DARC", [] { return psp::bench::MakeDarc(); }}}},
      {"tpcc", psp::TpccMix(), 10.0,
       {{"c-FCFS", [] { return psp::bench::MakeShenangoCFcfs(); }},
        {"DARC", [] { return psp::bench::MakeDarc(); }}}},
  };
}

ClusterConfig PointConfig(const WorkloadSpec& workload, double load,
                          uint64_t seed, Nanos duration = kPointDuration) {
  ClusterConfig c = psp::bench::TestbedConfig(
      kWorkers, load * workload.PeakLoadRps(kWorkers));
  c.duration = duration;
  c.seed = seed;
  return c;
}

struct Point {
  std::string sweep;
  std::string policy;
  double load = 0;
  double p999 = 0;
  double p99 = 0;
  double miss_pct = 0;
  uint64_t generated = 0;
  uint64_t completed = 0;  // every completion, warmup included
  uint64_t dropped = 0;
  uint64_t events = 0;
  uint64_t cascades = 0;
  Nanos setup = 0;
  Nanos run = 0;
  double mean_latency_ns = 0;

  bool SameOutputs(const Point& o) const {
    return p999 == o.p999 && p99 == o.p99 && miss_pct == o.miss_pct &&
           generated == o.generated &&
           completed == o.completed && dropped == o.dropped;
  }
};

// One experiment: construct, run, read the metrics. `inspect` sees the
// finished engine (snapshots for the traced run).
Point RunPoint(const std::string& sweep, const std::string& policy,
               const WorkloadSpec& workload, double load, uint64_t seed,
               const PolicyFactory& make,
               const std::function<void(ClusterEngine&)>& inspect = {},
               Nanos duration = kPointDuration) {
  static const uint16_t kCtor = SpanName("sim.engine_ctor");
  static const uint16_t kRun = SpanName("sim.run");
  static const uint16_t kQuery = SpanName("sim.metrics_query");
  const psp::TscClock& clock = psp::TscClock::Global();
  Point p;
  p.sweep = sweep;
  p.policy = policy;
  p.load = load;
  const Nanos t0 = clock.Now();
  std::unique_ptr<ClusterEngine> engine;
  {
    Span s(kCtor);
    engine = std::make_unique<ClusterEngine>(
        workload, PointConfig(workload, load, seed, duration), make());
  }
  const Nanos t1 = clock.Now();
  engine->set_completion_hook(
      [&p](const psp::SimRequest&, Nanos) { ++p.completed; });
  engine->set_drop_hook([&p](const psp::SimRequest&) { ++p.dropped; });
  const Nanos t2 = clock.Now();
  {
    Span s(kRun);
    engine->Run();
  }
  const Nanos t3 = clock.Now();
  {
    Span s(kQuery);
    const psp::Metrics& m = engine->metrics();
    p.p999 = m.OverallSlowdown(99.9);
    p.p99 = m.OverallSlowdown(99);
    p.miss_pct = m.DeadlineMissRate() * 100.0;
    double weighted = 0;
    for (const psp::TypeId t : m.type_ids()) {
      weighted += m.TypeMeanLatency(t) * static_cast<double>(m.TypeCount(t));
    }
    p.mean_latency_ns =
        m.TotalCount() > 0 ? weighted / static_cast<double>(m.TotalCount()) : 0;
  }
  p.generated = engine->generated();
  p.events = engine->sim().executed_events();
  p.cascades = engine->sim().wheel_cascades();
  p.setup = t1 - t0;
  p.run = t3 - t2;
  if (inspect) {
    inspect(*engine);
  }
  return p;
}

struct SweepResult {
  std::vector<Point> points;  // grid points, then the EDF point last
  Nanos setup = 0;
  Nanos run = 0;
  uint64_t completed = 0;
};

SweepResult RunPaperSweep(uint64_t seed,
                          const std::function<void(ClusterEngine&)>& inspect) {
  SweepResult r;
  for (const Sweep& sweep : PaperSweeps()) {
    for (const double load : psp::bench::DefaultLoads()) {
      for (const System& system : sweep.systems) {
        const bool probe_point = sweep.name == "hb" && system.name == "DARC" &&
                                 load == 0.8;
        r.points.push_back(RunPoint(sweep.name, system.name, sweep.workload,
                                    load, seed, system.make,
                                    probe_point ? inspect : nullptr));
      }
    }
  }
  const WorkloadSpec hb = psp::HighBimodal();
  const psp::DeadlineConfig budgets = FigDeadlineBudgets(hb);
  r.points.push_back(RunPoint(
      "hb", "EDF", hb, 0.8, seed,
      [&budgets] { return psp::bench::MakeEdf(budgets); }, nullptr,
      kEdfDuration));
  for (const Point& p : r.points) {
    r.setup += p.setup;
    r.run += p.run;
    r.completed += p.completed;
  }
  return r;
}

// Setup only: every engine of the sweep constructed, none run.
Nanos PaperSweepSetupOnly(uint64_t seed) {
  const psp::TscClock& clock = psp::TscClock::Global();
  Nanos total = 0;
  for (const Sweep& sweep : PaperSweeps()) {
    for (const double load : psp::bench::DefaultLoads()) {
      for (const System& system : sweep.systems) {
        const Nanos t0 = clock.Now();
        auto engine = std::make_unique<ClusterEngine>(
            sweep.workload, PointConfig(sweep.workload, load, seed),
            system.make());
        total += clock.Now() - t0;
      }
    }
  }
  return total;
}

const Point* Find(const std::vector<Point>& points, const std::string& sweep,
                  const std::string& policy, double load) {
  for (const Point& p : points) {
    if (p.sweep == sweep && p.policy == policy && p.load == load) {
      return &p;
    }
  }
  return nullptr;
}

// Highest grid load whose p99.9 slowdown meets the SLO with at most 0.1% of
// requests failed (a failed request misses every limit).
double CapacityLoad(const std::vector<Point>& points, const Sweep& sweep,
                    const std::string& policy) {
  double best = 0;
  for (const Point& p : points) {
    if (p.sweep != sweep.name || p.policy != policy) {
      continue;
    }
    const double failed = p.generated > 0 ? static_cast<double>(p.dropped) /
                                                static_cast<double>(p.generated)
                                          : 1.0;
    if (p.p999 <= sweep.slo && failed <= kMaxFailedShare) {
      best = std::max(best, p.load);
    }
  }
  return best;
}

void CheckSimBooks(const std::vector<Point>& points, Report* report) {
  for (const Point& p : points) {
    report->AddAttempted(p.generated);
    report->ExpectEqual("sim " + p.sweep + "/" + p.policy + "@" +
                            psp::bench::Fmt(p.load, 2) +
                            ": generated == completed + dropped",
                        p.generated, p.completed + p.dropped);
  }
}

// Simulated requests per wall second over reps[from, to): each experiment
// counted at its fastest repetition. Every repetition does identical work,
// and a shared host only ever slows a repetition down, so the fastest one is
// the steadiest estimate of the code's own speed.
double BestOfMreqPerSec(const std::vector<SweepResult>& reps, size_t from,
                        size_t to) {
  double completed = 0;
  double wall = 0;
  for (size_t i = 0; i < reps[from].points.size(); ++i) {
    Nanos best = reps[from].points[i].run;
    for (size_t r = from + 1; r < to; ++r) {
      best = std::min(best, reps[r].points[i].run);
    }
    completed += static_cast<double>(reps[from].points[i].completed);
    wall += static_cast<double>(best);
  }
  return completed / wall * 1e3;
}

}  // namespace

void RunSimPaper(const Options& options, Report* report) {
  const psp::TscClock& clock = psp::TscClock::Global();
  const HostNoise noise = ProbeHostNoise(1, 200 * psp::kMillisecond);

  std::vector<double> setup_samples;
  for (int i = 0; i < kSetupReps; ++i) {
    setup_samples.push_back(
        static_cast<double>(PaperSweepSetupOnly(options.seed)) / 1e9);
  }

  // Untraced reps fill the whole window, or its first half in a traced run
  // (the second half repeats them traced, for the overhead).
  const double untraced_s =
      options.trace ? options.seconds / 2 : options.seconds;
  psp::TelemetrySnapshot probe_snapshot;
  std::vector<SweepResult> reps;
  const auto inspect = [&](ClusterEngine& engine) {
    static const uint16_t kSnap = SpanName("telemetry.snapshot");
    Span s(kSnap);
    probe_snapshot = engine.telemetry_snapshot();
  };
  const Nanos t0 = clock.Now();
  do {
    reps.push_back(RunPaperSweep(options.seed, inspect));
  } while (static_cast<double>(clock.Now() - t0) / 1e9 < untraced_s);
  const size_t untraced_reps = reps.size();
  if (options.trace) {
    StartTracing();
    const Nanos t1 = clock.Now();
    do {
      reps.push_back(RunPaperSweep(options.seed, inspect));
    } while (static_cast<double>(clock.Now() - t1) / 1e9 <
             options.seconds - untraced_s);
  }
  const double mreq = BestOfMreqPerSec(reps, 0, untraced_reps);

  const std::vector<Point>& points = reps.front().points;
  // Same seed, same outputs: every repetition must reproduce the first.
  for (size_t r = 1; r < reps.size(); ++r) {
    for (size_t i = 0; i < points.size(); ++i) {
      if (!points[i].SameOutputs(reps[r].points[i])) {
        report->Fail("sim_paper repetition " + std::to_string(r) +
                     " differs at " + points[i].sweep + "/" +
                     points[i].policy + "@" +
                     psp::bench::Fmt(points[i].load, 2));
      }
    }
  }
  CheckSimBooks(points, report);

  Say("\nsim_paper: %zu experiments per sweep, %zu sweeps, %.0f ms window "
      "per point, seed %llu\n",
      points.size(), reps.size(),
      static_cast<double>(kPointDuration) / 1e6,
      static_cast<unsigned long long>(options.seed));
  Say("%-6s %-7s %5s %14s %9s %12s\n", "sweep", "policy", "load",
      "p999_slowdown", "dropped", "generated");
  for (const Point& p : points) {
    Say("%-6s %-7s %5.2f %14.1f %9llu %12llu\n", p.sweep.c_str(),
        p.policy.c_str(), p.load, p.p999,
        static_cast<unsigned long long>(p.dropped),
        static_cast<unsigned long long>(p.generated));
  }
  // Machine-readable per-point lines for perfbench/crosscheck.py.
  for (const Point& p : points) {
    Say("point %s %s %.2f %.1f %.3f\n", p.sweep.c_str(), p.policy.c_str(),
        p.load, p.p999, p.miss_pct);
  }

  const Point* darc80 = Find(points, "hb", "DARC", 0.8);
  const Point* edf80 = Find(points, "hb", "EDF", 0.8);
  const std::vector<Sweep> sweeps = PaperSweeps();
  report->Set("setup_s", Median(setup_samples), "s");
  report->Set("sim_mreq_per_s", mreq, "Mreq/s");
  report->Set("darc_capacity_load.hb", CapacityLoad(points, sweeps[0], "DARC"),
              "load");
  report->Set("cfcfs_capacity_load.hb",
              CapacityLoad(points, sweeps[0], "c-FCFS"), "load");
  report->Set("darc_capacity_load.tpcc",
              CapacityLoad(points, sweeps[1], "DARC"), "load");
  report->Set("cfcfs_capacity_load.tpcc",
              CapacityLoad(points, sweeps[1], "c-FCFS"), "load");
  report->Set("darc_p999_slowdown", darc80->p999, "x");
  report->Set("edf_miss_pct", edf80->miss_pct, "%");
  std::vector<double> sweep_walls;
  for (size_t r = 0; r < untraced_reps; ++r) {
    sweep_walls.push_back(static_cast<double>(reps[r].run) / 1e9);
  }
  Say("\nsetup (all %zu engines constructed): median %.3f ms of %d; sweep run "
      "wall median %.3f s over %zu sweeps; best-of %.4f Mreq/s\n",
      points.size() - 1, Median(setup_samples) * 1e3, kSetupReps,
      Median(sweep_walls),
      untraced_reps, mreq);

  if (!options.trace) {
    return;
  }
  // --- Traced run: per-layer readings ---------------------------------------
  const double traced = BestOfMreqPerSec(reps, untraced_reps, reps.size());
  report->Set("trace.overhead_pct", 100.0 * (mreq - traced) / mreq, "%");
  Say("\ntracing overhead: sim_mreq_per_s %.4f untraced vs %.4f traced "
      "(%.2f%% slower)\n",
      mreq, traced, 100.0 * (mreq - traced) / mreq);
  uint64_t events = 0;
  uint64_t cascades = 0;
  uint64_t generated = 0;
  uint64_t completed = 0;
  Nanos setup = 0;
  for (const Point& p : points) {
    events += p.events;
    cascades += p.cascades;
    generated += p.generated;
    completed += p.completed;
    setup += p.setup;
  }
  report->Set("client.p99_slowdown", darc80->p99, "x");
  report->Set("client.p999_slowdown", darc80->p999, "x");
  report->Set("completed_ratio",
              static_cast<double>(completed) / static_cast<double>(generated),
              "ratio");
  report->Set("host.max_gap_us", noise.max_gap_us, "us");
  Say("workload-specific: sim.events_per_request %.3f, "
      "sim.cascades_per_event %.4f, sim.setup_ms %.3f per experiment, "
      "sim.run_s %.4f per experiment\n",
      static_cast<double>(events) / static_cast<double>(generated),
      static_cast<double>(cascades) / static_cast<double>(events),
      static_cast<double>(setup) / 1e6 / static_cast<double>(points.size()),
      static_cast<double>(reps.front().run) / 1e9 /
          static_cast<double>(points.size()));
  SetLedgerMetrics(probe_snapshot.worker_time, report);

  LayerInputs in;
  in.mixes = {{psp::HighBimodal(), 0.8}, {psp::TpccMix(), 0.8}};
  in.workers = kWorkers;
  in.seed = options.seed;
  // Little's law at the probe point: arrivals per ns x mean sojourn.
  const double rate = 0.8 * psp::HighBimodal().PeakLoadRps(kWorkers);
  in.pending_events = static_cast<uint32_t>(
      std::max(8.0, std::ceil(rate / 1e9 * darc80->mean_latency_ns)));
  in.server_snapshots.assign(4, probe_snapshot);
  RunLayerProbes(in, report);
}

namespace {

constexpr uint32_t kFleetServers = 4;
constexpr uint32_t kFleetWorkers = 8;
constexpr double kFleetLoad = 0.7;
constexpr Nanos kFleetWindow = psp::kSecond;

// The fig_fleet_policies calibration at its gated point: 4 DARC servers of
// 8 workers behind power-of-two-choices, High Bimodal at 70% load.
psp::FleetSimConfig FleetConfig(uint64_t seed) {
  psp::FleetSimConfig config;
  config.num_servers = kFleetServers;
  config.server.num_workers = kFleetWorkers;
  config.server.net_one_way = psp::kMicrosecond;
  config.server.dispatch_cost = 100;
  config.server.completion_cost = 40;
  config.net_one_way = 5 * psp::kMicrosecond;
  config.dispatch_cost = 50;
  config.rate_rps = kFleetLoad * kFleetServers *
                    psp::HighBimodal().PeakLoadRps(kFleetWorkers);
  config.duration = kFleetWindow;
  config.seed = seed;
  config.policy =
      psp::FleetPolicyConfig::Default(psp::FleetPolicyKind::kPowerOfTwo);
  return config;
}

std::unique_ptr<psp::FleetSimulation> MakeFleet(uint64_t seed) {
  return std::make_unique<psp::FleetSimulation>(
      psp::HighBimodal(), FleetConfig(seed),
      [](uint32_t) { return psp::bench::MakeDarc(); });
}

struct FleetRep {
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double p999 = 0;
  uint64_t generated = 0;
  uint64_t completed = 0;
  uint64_t dropped = 0;
  uint64_t dispatched = 0;
  uint64_t recorded = 0;  // completion samples across server + fleet Metrics
  uint64_t fleet_recorded = 0;
  uint64_t events = 0;
  uint64_t cascades = 0;
  Nanos run = 0;
  double mean_latency_ns = 0;

  bool SameOutputs(const FleetRep& o) const {
    return p50 == o.p50 && p90 == o.p90 && p99 == o.p99 && p999 == o.p999 &&
           generated == o.generated && completed == o.completed &&
           dropped == o.dropped;
  }
};

FleetRep RunFleetRep(uint64_t seed, psp::FleetSnapshot* snapshot) {
  static const uint16_t kCtor = SpanName("fleet.ctor");
  static const uint16_t kRun = SpanName("fleet.run");
  static const uint16_t kSnap = SpanName("telemetry.fleet_snapshot");
  const psp::TscClock& clock = psp::TscClock::Global();
  std::unique_ptr<psp::FleetSimulation> fleet;
  {
    Span s(kCtor);
    fleet = MakeFleet(seed);
  }
  FleetRep r;
  const Nanos t0 = clock.Now();
  {
    Span s(kRun);
    fleet->Run();
  }
  r.run = clock.Now() - t0;
  const psp::Metrics& m = fleet->metrics();
  r.p50 = m.OverallSlowdown(50);
  r.p90 = m.OverallSlowdown(90);
  r.p99 = m.OverallSlowdown(99);
  r.p999 = m.OverallSlowdown(99.9);
  double weighted = 0;
  for (const psp::TypeId t : m.type_ids()) {
    weighted += m.TypeMeanLatency(t) * static_cast<double>(m.TypeCount(t));
  }
  r.mean_latency_ns =
      m.TotalCount() > 0 ? weighted / static_cast<double>(m.TotalCount()) : 0;
  r.generated = fleet->generated();
  r.fleet_recorded = m.TotalCount();
  r.recorded = m.TotalCount();
  for (uint32_t i = 0; i < fleet->num_servers(); ++i) {
    const auto& policy =
        static_cast<const psp::PersephonePolicy&>(fleet->server(i).policy());
    r.completed += policy.scheduler().completed();
    r.dropped += fleet->server(i).metrics().TotalDrops();
    r.dispatched += fleet->dispatched(i);
    r.recorded += fleet->server(i).metrics().TotalCount();
  }
  // Fleet servers share the fleet's one event queue.
  r.events = fleet->server(0).sim().executed_events();
  r.cascades = fleet->server(0).sim().wheel_cascades();
  if (snapshot != nullptr) {
    Span s(kSnap);
    *snapshot = fleet->fleet_snapshot();
  }
  return r;
}

}  // namespace

void RunSimFleet(const Options& options, Report* report) {
  const psp::TscClock& clock = psp::TscClock::Global();
  const HostNoise noise = ProbeHostNoise(1, 200 * psp::kMillisecond);

  std::vector<double> setup_samples;
  for (int i = 0; i < kSetupReps; ++i) {
    const Nanos t0 = clock.Now();
    auto fleet = MakeFleet(options.seed);
    setup_samples.push_back(static_cast<double>(clock.Now() - t0) / 1e9);
  }

  const double untraced_s =
      options.trace ? options.seconds / 2 : options.seconds;
  std::vector<FleetRep> reps;
  psp::FleetSnapshot snapshot;
  const Nanos t0 = clock.Now();
  do {
    reps.push_back(RunFleetRep(options.seed, nullptr));
  } while (static_cast<double>(clock.Now() - t0) / 1e9 < untraced_s);
  const size_t untraced_reps = reps.size();
  if (options.trace) {
    StartTracing();
    const Nanos t1 = clock.Now();
    do {
      reps.push_back(RunFleetRep(
          options.seed, reps.size() == untraced_reps ? &snapshot : nullptr));
    } while (static_cast<double>(clock.Now() - t1) / 1e9 <
             options.seconds - untraced_s);
  }
  // Fastest repetition (identical work each time; see BestOfMreqPerSec).
  const auto best_mreq = [&reps](size_t from, size_t to) {
    Nanos best = reps[from].run;
    for (size_t r = from + 1; r < to; ++r) {
      best = std::min(best, reps[r].run);
    }
    return static_cast<double>(reps[from].completed) /
           static_cast<double>(best) * 1e3;
  };
  const double mreq = best_mreq(0, untraced_reps);

  const FleetRep& first = reps.front();
  for (size_t r = 1; r < reps.size(); ++r) {
    if (!first.SameOutputs(reps[r])) {
      report->Fail("sim_fleet repetition " + std::to_string(r) +
                   " differs from the first");
    }
  }
  report->AddAttempted(first.generated);
  report->ExpectEqual("fleet: generated == dispatched", first.generated,
                      first.dispatched);
  report->ExpectEqual("fleet: generated == completed + dropped",
                      first.generated, first.completed + first.dropped);

  Say("\nsim_fleet: %u servers x %u workers, po2c, High Bimodal at %.0f%% "
      "load, %.1f s window, %zu reps, seed %llu\n",
      kFleetServers, kFleetWorkers, kFleetLoad * 100,
      static_cast<double>(kFleetWindow) / 1e9, reps.size(),
      static_cast<unsigned long long>(options.seed));
  std::vector<double> rep_mreq;
  for (size_t r = 0; r < untraced_reps; ++r) {
    rep_mreq.push_back(static_cast<double>(reps[r].completed) /
                       static_cast<double>(reps[r].run) * 1e3);
  }
  Say("fleet-wide slowdown p50 %.3f p90 %.3f p99 %.3f p99.9 %.3f; generated "
      "%llu dropped %llu; Mreq/s best-of %.4f, median %.4f of %zu reps\n",
      first.p50, first.p90, first.p99, first.p999,
      static_cast<unsigned long long>(first.generated),
      static_cast<unsigned long long>(first.dropped), mreq, Median(rep_mreq),
      untraced_reps);

  report->Set("setup_s", Median(setup_samples), "s");
  report->Set("sim_mreq_per_s", mreq, "Mreq/s");
  report->Set("darc_p999_slowdown", first.p999, "x");

  if (!options.trace) {
    return;
  }
  const double traced = best_mreq(untraced_reps, reps.size());
  report->Set("trace.overhead_pct", 100.0 * (mreq - traced) / mreq, "%");
  Say("\ntracing overhead: sim_mreq_per_s %.4f untraced vs %.4f traced "
      "(%.2f%% slower)\n",
      mreq, traced, 100.0 * (mreq - traced) / mreq);
  report->Set("client.p99_slowdown", first.p99, "x");
  report->Set("client.p999_slowdown", first.p999, "x");
  report->Set("completed_ratio",
              static_cast<double>(first.completed) /
                  static_cast<double>(first.generated),
              "ratio");
  report->Set("host.max_gap_us", noise.max_gap_us, "us");
  Say("workload-specific: sim.events_per_request %.3f, "
      "sim.cascades_per_event %.4f, fleet.record_calls_per_request %.3f, "
      "sim.setup_ms %.3f, sim.run_s %.3f\n",
      static_cast<double>(first.events) / static_cast<double>(first.generated),
      static_cast<double>(first.cascades) / static_cast<double>(first.events),
      static_cast<double>(first.recorded) /
          static_cast<double>(first.fleet_recorded),
      Median(setup_samples) * 1e3, static_cast<double>(first.run) / 1e9);
  std::vector<psp::WorkerTimeRecord> ledger;
  for (const psp::TelemetrySnapshot& server : snapshot.servers) {
    ledger.insert(ledger.end(), server.worker_time.begin(),
                  server.worker_time.end());
  }
  SetLedgerMetrics(ledger, report);

  LayerInputs in;
  in.mixes = {{psp::HighBimodal(), kFleetLoad}};
  in.workers = kFleetWorkers;
  in.seed = options.seed;
  const double rate = FleetConfig(options.seed).rate_rps;
  in.pending_events = static_cast<uint32_t>(
      std::max(8.0, std::ceil(rate / 1e9 * first.mean_latency_ns)));
  in.server_snapshots = snapshot.servers;
  RunLayerProbes(in, report);
}

}  // namespace perfbench
