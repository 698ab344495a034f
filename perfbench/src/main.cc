// perfbench: one run of one workload of the repository benchmark.
//
//   perfbench --workload <sim_paper|sim_fleet|rt_ring|rt_udp> --seed N
//             --seconds S --trace 0|1 [--span-dir DIR]
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1 (BENCHMARK.json lists
// both). perfbench/run.py builds this binary and checks that line.
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/layers.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

const std::vector<std::string> kEndToEnd = {
    "setup_s",
    "peak_rss_mb",
    "sim_mreq_per_s",
    "darc_capacity_load.hb",
    "cfcfs_capacity_load.hb",
    "darc_capacity_load.tpcc",
    "cfcfs_capacity_load.tpcc",
    "darc_p999_slowdown",
    "edf_miss_pct",
    "p50_slowdown",
    "p90_slowdown",
    "goodput_krps",
};

const std::vector<std::string> kPerLayer = {
    "core.enqueue_ns",       "core.enqueue_p99_ns",
    "core.decision_ns",      "core.decision_p99_ns",
    "core.completion_ns",    "core.completion_p99_ns",
    "common.channel_hop_ns", "common.pool_ns",
    "net.build_ns",          "net.parse_ns",
    "net.format_ns",         "net.udp_rx_ns",
    "net.udp_tx_ns",         "net.udp_batch",
    "sched.edf_ns",          "sched.admission_ns",
    "sim.event_ns",          "sim.record_completion_ns",
    "fleet.pick_ns",         "fleet.merge_ms",
    "ledger.busy_pct",       "ledger.steal_pct",
    "ledger.reserved_idle_pct", "ledger.free_idle_pct",
    "ledger.poll_spin_pct",  "ledger.dispatch_overhead_pct",
    "self.sim_ms",           "self.fleet_ms",
    "self.core_ms",          "self.sched_ms",
    "self.runtime_ms",       "self.net_ms",
    "self.common_ms",        "self.telemetry_ms",
    "client.p99_slowdown",   "client.p999_slowdown",
    "completed_ratio",       "host.max_gap_us",
    "trace.overhead_pct",
};

// Units of the end-to-end metrics a workload does not exercise (reported as
// 1 so every run carries the full metric set).
const char* EndToEndUnit(const std::string& name) {
  if (name == "setup_s") return "s";
  if (name == "peak_rss_mb") return "MiB";
  if (name == "sim_mreq_per_s") return "Mreq/s";
  if (name.find("capacity_load") != std::string::npos) return "load";
  if (name == "edf_miss_pct") return "%";
  if (name == "goodput_krps") return "krps";
  return "x";
}

// Per-layer readings that only exist on some workloads: printed in the
// traced report where they apply, listed here with the reason elsewhere.
void PrintUnavailable(const std::string& workload) {
  const bool sim = workload.rfind("sim_", 0) == 0;
  Say("\nper-layer readings not taken on %s:\n", workload.c_str());
  if (sim) {
    Say("  runtime.{rx,enqueued,dispatched,stolen,dropped}, nic.rx_drops, "
        "runtime.stage.*_p50_us, loadgen.late_*: no threaded runtime or "
        "packets in the simulator\n");
  } else {
    Say("  sim.events_per_request, sim.cascades_per_event, sim.setup_ms, "
        "sim.run_s, fleet.record_calls_per_request: no simulator run on this "
        "workload\n");
  }
  if (workload != "sim_fleet") {
    Say("  fleet.record_calls_per_request: only sim_fleet records "
        "completions per server and fleet-wide\n");
  }
  Say("  host.gaps_over_1ms: printed with the host line (a count that is "
      "usually 0, so not a JSON metric)\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload sim_paper|sim_fleet|rt_ring|rt_udp "
               "--seed N --seconds S --trace 0|1 [--span-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--span-dir") {
      options.span_dir = value;
    } else {
      return Usage();
    }
  }
  if (options.seconds <= 0) {
    return Usage();
  }
  Report report;
  if (options.workload == "sim_paper") {
    RunSimPaper(options, &report);
  } else if (options.workload == "sim_fleet") {
    RunSimFleet(options, &report);
  } else if (options.workload == "rt_ring") {
    RunRtRing(options, &report);
  } else if (options.workload == "rt_udp") {
    RunRtUdp(options, &report);
  } else {
    return Usage();
  }

  if (!options.trace) {
    report.Set("peak_rss_mb", PeakRssMb(), "MiB");
    std::string unexercised;
    for (const std::string& name : kEndToEnd) {
      if (!report.Has(name)) {
        report.Set(name, 1.0, EndToEndUnit(name));
        unexercised += " " + name;
      }
    }
    if (!unexercised.empty()) {
      Say("\nnot exercised by %s (reported as 1):%s\n",
          options.workload.c_str(), unexercised.c_str());
    }
    Say("\n%s end-to-end:\n", options.workload.c_str());
    for (const std::string& name : kEndToEnd) {
      Say("  %-26s %14.6g\n", name.c_str(), report.Get(name));
    }
    Say("%s\n", report.ResultJson(kEndToEnd).c_str());
    return 0;
  }

  g_tracing.store(false);
  SetLayerSelfTimes(&report);
  if (!options.span_dir.empty()) {
    const std::string& stem = options.workload;
    const long written = WriteSpans(options.span_dir, stem);
    if (written < 0) {
      report.Fail("could not write spans under " + options.span_dir);
    } else {
      Say("wrote %ld spans to %s/%s.spans (+ .names)\n", written,
          options.span_dir.c_str(), stem.c_str());
    }
  }
  PrintUnavailable(options.workload);
  Say("\n%s per-layer:\n", options.workload.c_str());
  for (const std::string& name : kPerLayer) {
    if (!report.Has(name)) {
      std::fprintf(stderr, "per-layer metric %s was not measured\n",
                   name.c_str());
      return 3;
    }
    Say("  %-30s %14.6g\n", name.c_str(), report.Get(name));
  }
  Say("%s\n", report.ResultJson(kPerLayer).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
