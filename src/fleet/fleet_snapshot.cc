#include "src/fleet/fleet_snapshot.h"

#include <set>

#include "src/common/json.h"
#include "src/introspect/prometheus.h"

namespace psp {
namespace {

void AppendSummary(std::string* out, const std::string& metric,
                   const std::string& labels, const Histogram& h) {
  static constexpr struct {
    const char* label;
    double p;
  } kQuantiles[] = {{"0.5", 50.0}, {"0.99", 99.0}, {"0.999", 99.9}};
  for (const auto& q : kQuantiles) {
    *out += metric + "{" + labels + (labels.empty() ? "" : ",") +
            "quantile=\"" + q.label +
            "\"} " + std::to_string(h.Percentile(q.p)) + "\n";
  }
  *out += metric + "_sum{" + labels + "} " +
          std::to_string(static_cast<int64_t>(h.Mean() *
                                              static_cast<double>(h.Count()))) +
          "\n";
  *out += metric + "_count{" + labels + "} " + std::to_string(h.Count()) + "\n";
}

}  // namespace

TelemetrySnapshot FleetSnapshot::Merged() const {
  TelemetrySnapshot merged;
  for (const auto& server : servers) {
    merged.Merge(server);
  }
  return merged;
}

std::string FleetSnapshot::ToJson() const {
  std::string out = "{\"policy\":\"" + JsonEscape(policy) +
                    "\",\"num_servers\":" + std::to_string(servers.size());
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ',';
    first = false;
    out += '"' + JsonEscape(name) + "\":" + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out += ',';
    first = false;
    out += '"' + JsonEscape(name) + "\":" + std::to_string(value);
  }
  out += "},\"merged\":" + Merged().ToJson();
  out += ",\"servers\":[";
  for (size_t i = 0; i < servers.size(); ++i) {
    if (i != 0) out += ',';
    out += servers[i].ToJson();
  }
  out += "]}";
  return out;
}

std::string FleetSnapshot::ToPrometheus() const {
  std::string out;

  out += "# HELP psp_fleet_servers Number of servers in the fleet.\n";
  out += "# TYPE psp_fleet_servers gauge\n";
  out += "psp_fleet_servers " + std::to_string(servers.size()) + "\n";

  out += "# HELP psp_fleet_policy Inter-server dispatch policy (info-style: "
         "value is always 1).\n";
  out += "# TYPE psp_fleet_policy gauge\n";
  out += "psp_fleet_policy{policy=\"" + PrometheusLabelEscape(policy) +
         "\"} 1\n";

  for (const auto& [name, value] : counters) {
    const std::string metric = "psp_fleet_" + PrometheusMetricName(name);
    out += "# TYPE " + metric + "_total counter\n";
    out += metric + "_total " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    const std::string metric = "psp_fleet_" + PrometheusMetricName(name);
    out += "# TYPE " + metric + " gauge\n";
    out += metric + " " + std::to_string(value) + "\n";
  }

  // Per-server instruments, grouped per metric family so every family is
  // declared once and its samples (one per server) sit together — the layout
  // the exposition format requires.
  std::set<std::string> counter_names;
  std::set<std::string> gauge_names;
  std::set<std::string> histogram_names;
  for (const auto& server : servers) {
    for (const auto& [name, _] : server.counters) counter_names.insert(name);
    for (const auto& [name, _] : server.gauges) gauge_names.insert(name);
    for (const auto& [name, _] : server.histograms)
      histogram_names.insert(name);
  }

  for (const auto& name : counter_names) {
    const std::string metric = "psp_" + PrometheusMetricName(name);
    out += "# TYPE " + metric + "_total counter\n";
    for (size_t i = 0; i < servers.size(); ++i) {
      const auto it = servers[i].counters.find(name);
      if (it == servers[i].counters.end()) continue;
      out += metric + "_total{server=\"" + std::to_string(i) + "\"} " +
             std::to_string(it->second) + "\n";
    }
  }
  for (const auto& name : gauge_names) {
    const std::string metric = "psp_" + PrometheusMetricName(name);
    out += "# TYPE " + metric + " gauge\n";
    for (size_t i = 0; i < servers.size(); ++i) {
      const auto it = servers[i].gauges.find(name);
      if (it == servers[i].gauges.end()) continue;
      out += metric + "{server=\"" + std::to_string(i) + "\"} " +
             std::to_string(it->second) + "\n";
    }
  }
  // Per-server time-provenance ledgers: one family, a sample per
  // (server, slot, state) — each server slot's samples sum to its wall.
  bool any_worker_time = false;
  for (const auto& server : servers) {
    if (!server.worker_time.empty()) {
      any_worker_time = true;
      break;
    }
  }
  if (any_worker_time) {
    out += "# TYPE psp_worker_time_ns gauge\n";
    for (size_t i = 0; i < servers.size(); ++i) {
      for (const WorkerTimeRecord& rec : servers[i].worker_time) {
        for (size_t s = 0; s < kNumWorkerTimeStates; ++s) {
          out += "psp_worker_time_ns{server=\"" + std::to_string(i) +
                 "\",worker=\"" + std::to_string(rec.slot) + "\",role=\"" +
                 rec.role + "\",state=\"" +
                 WorkerTimeStateName(static_cast<WorkerTimeState>(s)) +
                 "\"} " + std::to_string(rec.state_ns[s]) + "\n";
        }
      }
    }
  }

  for (const auto& name : histogram_names) {
    const std::string metric = "psp_" + PrometheusMetricName(name);
    out += "# TYPE " + metric + " summary\n";
    for (size_t i = 0; i < servers.size(); ++i) {
      const auto it = servers[i].histograms.find(name);
      if (it == servers[i].histograms.end()) continue;
      AppendSummary(&out, metric, "server=\"" + std::to_string(i) + "\"",
                    it->second);
    }
    // The rack-level rollup of the same family, labelled server="merged" so
    // it shares the family declaration without clashing with real indices.
    Histogram merged;
    for (const auto& server : servers) {
      const auto it = server.histograms.find(name);
      if (it != server.histograms.end()) {
        merged.Merge(it->second);
      }
    }
    AppendSummary(&out, metric, "server=\"merged\"", merged);
  }

  return out;
}

}  // namespace psp
