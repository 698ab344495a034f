// Prometheus text exposition (format version 0.0.4): the read side of the
// live introspection plane. One pure function turns the unified
// TelemetrySnapshot — registry counters/gauges/histograms, the latest closed
// time-series interval, per-worker occupancy — into the `# HELP` / `# TYPE` /
// sample-line format every Prometheus-compatible scraper understands. Beside
// it live the page validator (pspctl --check / checkfile) and the federation
// that builds every fleet page from its servers' pages: FleetSnapshot's
// in-process /metrics and `pspctl federate` across processes.
//
// Mapping rules (held by tests/introspect_prometheus_test.cc):
//   * snapshot counters  -> `psp_<name>_total` counter samples; hierarchical
//     dots become underscores ("scheduler.dispatched" ->
//     psp_scheduler_dispatched_total). `worker.<N>.<field>` counters fold
//     into one metric with a {worker="N"} label, likewise
//     `ingress.shard.<N>.<field>` ({shard="N"}) and `fleet.server.<N>.<field>`
//     ({server="N"}, the fleet dispatcher's per-server instruments).
//   * snapshot gauges    -> `psp_<name>` gauges, same name/label folding.
//   * snapshot histograms-> summaries: {quantile="0.5|0.99|0.999"} samples
//     plus `_sum` and `_count`.
//   * the latest closed interval -> per-type gauges labelled {type="NAME"}:
//     interval arrivals/completions/drops, queue depth, reserved workers,
//     windowed slowdown percentiles (milli units), plus scalar arrival/
//     completion rates and per-worker busy permille.
// Label values are escaped per the exposition spec (backslash, quote,
// newline); metric names are sanitised to [a-zA-Z_:][a-zA-Z0-9_:]*. Output
// is byte-deterministic for a deterministic snapshot (maps iterate sorted,
// floats use fixed formatting).
#ifndef PSP_SRC_INTROSPECT_PROMETHEUS_H_
#define PSP_SRC_INTROSPECT_PROMETHEUS_H_

#include <string>
#include <vector>

#include "src/telemetry/snapshot.h"

namespace psp {

// Sanitises an instrument name into a legal Prometheus metric-name fragment:
// every character outside [a-zA-Z0-9_:] becomes '_', and a leading digit is
// prefixed with '_'.
std::string PrometheusMetricName(const std::string& name);

// Escapes a label value: backslash, double quote and newline, per the text
// exposition format.
std::string PrometheusLabelEscape(const std::string& value);

// Renders the complete exposition page. Every metric is prefixed "psp_".
std::string RenderPrometheusText(const TelemetrySnapshot& snapshot);

// An info-style family: one gauge sample of value 1 whose `label` carries the
// information, e.g. psp_fleet_policy{policy="po2c"} 1.
std::string RenderInfoGauge(const std::string& metric, const std::string& help,
                            const char* label, const std::string& value);

// Validates an exposition page: every non-blank line is a `# HELP`/`# TYPE`
// comment or a `name[{labels}] value` sample with a legal name and a numeric
// value; no family is `# TYPE`d twice; and each family's lines are contiguous
// (a summary's `_sum`/`_count` samples belong to it). Returns "" when valid,
// else the first problem; a page without samples is invalid.
std::string CheckExposition(const std::string& text);

// The fleet page: merges the pages of N servers (page i = server i). Per
// family, in first-seen order: the HELP/TYPE of the first page declaring it,
// then every server's samples with server="i" prepended to their labels.
// Then each counter family's roll-up (psp_<x>_total -> psp_fleet_<x>_total,
// one sample per label set, summed over servers). Then `fleet_tier`
// verbatim (the in-process fleet's own families; empty for `pspctl
// federate`), psp_fleet_servers, and one terminal psp_up (the pages' own
// psp_up samples are dropped).
std::string FederateMetrics(const std::vector<std::string>& pages,
                            const std::string& fleet_tier = "");

}  // namespace psp

#endif  // PSP_SRC_INTROSPECT_PROMETHEUS_H_
