// FleetSnapshot: the fleet-wide introspection surface. One per-server
// TelemetrySnapshot per Perséphone instance plus the fleet dispatcher's own
// counters, merged on demand (TelemetrySnapshot::Merge / Histogram::Merge)
// into the rack-level view.
//
// Exporters:
//   * ToJson()       — the /fleet.json admin payload: per-server snapshots
//                      under "servers" and the merged rollup under "merged".
//   * ToPrometheus() — FederateMetrics (src/introspect/prometheus.h) over each
//                      server's own RenderPrometheusText page, plus the fleet
//                      tier rendered by the same renderer. One rule names
//                      every family:
//        server instrument x.y   the single-node family, server="i" added
//        counter roll-up         psp_fleet_x_y_total, summed over servers
//        summary roll-up         psp_fleet_x_y{quantile=...}, _sum, _count
//                                from Merged()
//        dispatcher fleet.z      psp_fleet_z; fleet.server.N.z folds to
//                                psp_fleet_server_z{server="N"}
//        page level              psp_fleet_servers, psp_fleet_policy, psp_up
//                      `pspctl federate` builds the same page across processes,
//                      minus the summary roll-ups, the dispatcher tier and
//                      psp_fleet_policy.
#ifndef PSP_SRC_FLEET_FLEET_SNAPSHOT_H_
#define PSP_SRC_FLEET_FLEET_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/telemetry/snapshot.h"

namespace psp {

struct FleetSnapshot {
  // Inter-server policy name ("random", "rss", "rr", "po2c", "shortest-q").
  std::string policy;
  // Fleet-dispatcher counters (requests routed, per-server dispatch counts,
  // depth-table refreshes) and gauges (outstanding per server).
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  // One unified snapshot per server, index = server id.
  std::vector<TelemetrySnapshot> servers;

  uint32_t num_servers() const {
    return static_cast<uint32_t>(servers.size());
  }

  // Rack-level rollup: all per-server snapshots folded into one (counters
  // add, histograms merge; traces/events/timeseries append in server order).
  TelemetrySnapshot Merged() const;

  // {"policy":...,"num_servers":N,"counters":{...},"gauges":{...},
  //  "merged":{...},"servers":[{...},...]} — byte-deterministic for a
  // deterministic fleet run (backs the CI same-seed determinism smoke).
  std::string ToJson() const;

  // Prometheus text exposition 0.0.4, named as in the table above.
  std::string ToPrometheus() const;
};

}  // namespace psp

#endif  // PSP_SRC_FLEET_FLEET_SNAPSHOT_H_
