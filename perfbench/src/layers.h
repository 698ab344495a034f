// Per-layer probes for traced runs: each replays the workload's own inputs
// through one module's public calls, one span per call, so the per-call cost
// of every layer on the request path is measured the same way on every
// workload (and a change to one layer shows in its own row).
#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <cstdint>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/sched/deadline.h"
#include "src/sim/workload.h"
#include "src/telemetry/snapshot.h"

namespace perfbench {

struct LayerInputs {
  // Arrival mixes to replay through the scheduler (each at its load, on
  // `workers` cores).
  struct Mix {
    psp::WorkloadSpec workload;
    double load = 0.5;
  };
  std::vector<Mix> mixes;
  uint32_t workers = 1;
  uint64_t seed = 1;
  // Pending-event count the event-engine replay holds (the workload's queue
  // occupancy).
  uint32_t pending_events = 64;
  // Per-server snapshots merged by the fleet probe (the workload's own).
  std::vector<psp::TelemetrySnapshot> server_snapshots;
};

// The deadline budgets of bench/fig_deadline.cc: max(20 µs, 1.4 × mean)
// per type.
psp::DeadlineConfig FigDeadlineBudgets(const psp::WorkloadSpec& workload);

// Runs every probe with tracing on, then fills the per-layer call-cost
// metrics into `report` (and fails it on a probe output mismatch).
void RunLayerProbes(const LayerInputs& in, Report* report);

// Fills the six ledger.*_pct metrics from a snapshot's worker_time records:
// worker states over summed worker wall, dispatcher states over the
// dispatcher pseudo-slot's wall.
void SetLedgerMetrics(const std::vector<psp::WorkerTimeRecord>& records,
                      Report* report);

// Fills self.<layer>_ms for the eight measured layers from the recorded
// spans, and prints the per-layer self-time table.
void SetLayerSelfTimes(Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
