// The four workloads. Each fills `report` with the metrics it measures; the
// untraced run reports end-to-end metrics, the traced run (Options::trace)
// measures the same workload untraced and traced back to back, then runs the
// layer probes on the workload's inputs and reports per-layer metrics.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include "perfbench/src/bench.h"

namespace perfbench {

void RunSimPaper(const Options& options, Report* report);
void RunSimFleet(const Options& options, Report* report);
void RunRtRing(const Options& options, Report* report);
void RunRtUdp(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
