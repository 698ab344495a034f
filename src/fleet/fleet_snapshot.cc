#include "src/fleet/fleet_snapshot.h"

#include <utility>

#include "src/common/json.h"
#include "src/introspect/prometheus.h"

namespace psp {

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
  std::vector<std::string> pages;
  pages.reserve(servers.size());
  for (const auto& server : servers) {
    pages.push_back(RenderPrometheusText(server));
  }
  // The fleet tier through the same renderer: the dispatcher's instruments
  // are already named fleet.*, and each merged histogram x.y becomes the
  // summary roll-up psp_fleet_x_y.
  TelemetrySnapshot tier;
  tier.counters = counters;
  tier.gauges = gauges;
  TelemetrySnapshot merged = Merged();
  for (auto& [name, hist] : merged.histograms) {
    tier.histograms.emplace("fleet." + name, std::move(hist));
  }
  return FederateMetrics(
      pages, RenderPrometheusText(tier) +
                 RenderInfoGauge("psp_fleet_policy",
                                 "Inter-server dispatch policy (info-style: "
                                 "value is always 1).",
                                 "policy", policy));
}

}  // namespace psp
