#include "src/introspect/prometheus.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

namespace psp {
namespace {

// Splits "<prefix><N>.<field>" into (N, field); false for any other shape.
// Folds indexed instrument names ("worker.3.requests",
// "ingress.shard.1.rx_datagrams") into one labelled metric per field.
bool SplitIndexedMetric(const std::string& name, const char* prefix,
                        std::string* index, std::string* field) {
  const size_t prefix_len = std::strlen(prefix);
  if (name.compare(0, prefix_len, prefix) != 0) {
    return false;
  }
  const size_t dot = name.find('.', prefix_len);
  if (dot == std::string::npos || dot == prefix_len ||
      dot + 1 >= name.size()) {
    return false;
  }
  for (size_t i = prefix_len; i < dot; ++i) {
    if (!std::isdigit(static_cast<unsigned char>(name[i]))) {
      return false;
    }
  }
  *index = name.substr(prefix_len, dot - prefix_len);
  *field = name.substr(dot + 1);
  return true;
}

// Length of the metric-name prefix of `line` ([a-zA-Z0-9_:]*).
size_t ScanName(const std::string& line) {
  size_t i = 0;
  while (i < line.size() &&
         (std::isalnum(static_cast<unsigned char>(line[i])) ||
          line[i] == '_' || line[i] == ':')) {
    ++i;
  }
  return i;
}

// Index of the '}' closing the label block opened at `open`, skipping quoted
// label values (with backslash escapes); npos when unterminated.
size_t ScanLabels(const std::string& line, size_t open) {
  bool in_quotes = false;
  bool escaped = false;
  for (size_t i = open + 1; i < line.size(); ++i) {
    const char c = line[i];
    if (escaped) {
      escaped = false;
    } else if (in_quotes && c == '\\') {
      escaped = true;
    } else if (c == '"') {
      in_quotes = !in_quotes;
    } else if (!in_quotes && c == '}') {
      return i;
    }
  }
  return std::string::npos;
}

// One exposition sample: name, the raw label block (without braces,
// possibly empty) and the value text.
struct Sample {
  std::string name;
  std::string labels;
  std::string value;
};

// Splits a sample line `name[{labels}] value`; nullptr on success, else what
// is wrong with it.
const char* ParseSample(const std::string& line, Sample* out) {
  size_t i = ScanName(line);
  if (i == 0 || std::isdigit(static_cast<unsigned char>(line[0]))) {
    return "bad metric name";
  }
  out->name = line.substr(0, i);
  out->labels.clear();
  if (i < line.size() && line[i] == '{') {
    const size_t close = ScanLabels(line, i);
    if (close == std::string::npos) {
      return "unterminated labels";
    }
    out->labels = line.substr(i + 1, close - i - 1);
    i = close + 1;
  }
  if (i >= line.size() || line[i] != ' ') {
    return "missing value separator";
  }
  out->value = line.substr(i + 1);
  return nullptr;
}

bool ParseNumber(const std::string& text, double* value) {
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0';
}

bool IsHelpOrType(const std::string& line) {
  return line.compare(0, 7, "# HELP ") == 0 ||
         line.compare(0, 7, "# TYPE ") == 0;
}

// The family a `# HELP name ...` / `# TYPE name ...` line declares.
std::string CommentName(const std::string& line) {
  const size_t end = line.find(' ', 7);
  return line.substr(7, end == std::string::npos ? end : end - 7);
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  *out += buf;
}

void AppendTypeHeader(std::string* out, const std::string& metric,
                      const char* type, const std::string& help) {
  *out += "# HELP " + metric + ' ' + help + '\n';
  *out += "# TYPE " + metric + ' ';
  *out += type;
  *out += '\n';
}

// One sample line with an arbitrary label set:
//   name{l1="v1",l2="v2"} v
void AppendMultiLabelSample(
    std::string* out, const std::string& metric,
    std::initializer_list<std::pair<const char*, std::string>> labels,
    const std::string& value) {
  *out += metric;
  *out += '{';
  bool first = true;
  for (const auto& [label, label_value] : labels) {
    if (!first) {
      *out += ',';
    }
    first = false;
    *out += label;
    *out += "=\"" + PrometheusLabelEscape(label_value) + "\"";
  }
  *out += "} ";
  *out += value;
  *out += '\n';
}

// One labelled sample line: name{label="value"} v
void AppendSample(std::string* out, const std::string& metric,
                  const char* label, const std::string& label_value,
                  const std::string& value) {
  *out += metric;
  if (label != nullptr) {
    *out += '{';
    *out += label;
    *out += "=\"" + PrometheusLabelEscape(label_value) + "\"";
    *out += '}';
  }
  *out += ' ';
  *out += value;
  *out += '\n';
}

std::string ResolveTypeName(const TelemetrySnapshot& snap, uint32_t type) {
  const auto it = snap.type_names.find(type);
  return it != snap.type_names.end() ? it->second
                                     : "type-" + std::to_string(type);
}

// Indexed instrument names that fold into one labelled family per field:
// "<prefix><N>.<field>" -> <family><field>{<label>="N"}.
struct IndexedFamily {
  const char* prefix;
  const char* family;
  const char* label;
  const char* help;
};
constexpr IndexedFamily kIndexedFamilies[] = {
    {"worker.", "psp_worker_", "worker", "per worker"},
    {"ingress.shard.", "psp_ingress_shard_", "shard", "per socket shard"},
    {"fleet.server.", "psp_fleet_server_", "server", "per server"},
};

// Renders a family of scalar instruments, folding indexed names (see
// kIndexedFamilies) into one labelled metric per field. `suffix` is "_total"
// for counters.
template <typename Map>
void RenderScalars(std::string* out, const Map& values, const char* prom_type,
                   const char* suffix, const char* source_kind) {
  constexpr size_t kKinds = std::size(kIndexedFamilies);
  // Per indexed kind: field -> [(index, value)]. Plain names render directly
  // in map order.
  std::map<std::string, std::vector<std::pair<std::string, std::string>>>
      indexed[kKinds];
  for (const auto& [name, value] : values) {
    std::string index, field;
    size_t k = 0;
    while (k < kKinds && !SplitIndexedMetric(name, kIndexedFamilies[k].prefix,
                                             &index, &field)) {
      ++k;
    }
    if (k < kKinds) {
      indexed[k][field].emplace_back(index, std::to_string(value));
      continue;
    }
    const std::string metric = "psp_" + PrometheusMetricName(name) + suffix;
    AppendTypeHeader(out, metric, prom_type,
                     std::string(source_kind) + " \"" + name + "\"");
    AppendSample(out, metric, nullptr, "", std::to_string(value));
  }
  for (size_t k = 0; k < kKinds; ++k) {
    const IndexedFamily& kind = kIndexedFamilies[k];
    for (const auto& [field, samples] : indexed[k]) {
      const std::string metric =
          kind.family + PrometheusMetricName(field) + suffix;
      AppendTypeHeader(out, metric, prom_type,
                       std::string(source_kind) + " \"" + kind.prefix +
                           "<N>." + field + "\" " + kind.help);
      for (const auto& [index, value] : samples) {
        AppendSample(out, metric, kind.label, index, value);
      }
    }
  }
}

void RenderSummaries(std::string* out, const TelemetrySnapshot& snap) {
  for (const auto& [name, hist] : snap.histograms) {
    const std::string metric = "psp_" + PrometheusMetricName(name);
    AppendTypeHeader(out, metric, "summary",
                     "histogram \"" + name + "\" as quantile summary");
    const struct {
      const char* q;
      double p;
    } quantiles[] = {{"0.5", 50.0}, {"0.99", 99.0}, {"0.999", 99.9}};
    for (const auto& q : quantiles) {
      AppendSample(out, metric, "quantile", q.q,
                   std::to_string(hist.Count() > 0 ? hist.Percentile(q.p)
                                                   : 0));
    }
    std::string sum;
    AppendDouble(&sum, hist.Mean() * static_cast<double>(hist.Count()));
    *out += metric + "_sum " + sum + '\n';
    *out += metric + "_count " + std::to_string(hist.Count()) + '\n';
  }
}

// The latest closed time-series interval: per-type windowed gauges (the
// live "what is each type doing right now" view DARC analysis needs).
void RenderLatestInterval(std::string* out, const TelemetrySnapshot& snap) {
  if (snap.timeseries.empty()) {
    return;
  }
  const IntervalRecord& rec = snap.timeseries.back();

  const struct {
    const char* metric;
    std::string value;
    const char* help;
  } scalars[] = {
      {"psp_interval_seq", std::to_string(rec.seq),
       "sequence number of the latest closed time-series interval"},
      {"psp_interval_end_nanos", std::to_string(rec.end),
       "end timestamp of the latest closed interval"},
      {"psp_interval_reservation_updates",
       std::to_string(rec.reservation_updates),
       "DARC reservation updates applied within the latest interval"},
  };
  for (const auto& s : scalars) {
    AppendTypeHeader(out, s.metric, "gauge", s.help);
    AppendSample(out, s.metric, nullptr, "", s.value);
  }
  {
    AppendTypeHeader(out, "psp_interval_arrival_rate_rps", "gauge",
                     "arrival rate over the latest interval, all types");
    std::string v;
    AppendDouble(&v, rec.arrival_rate_rps);
    AppendSample(out, "psp_interval_arrival_rate_rps", nullptr, "", v);
    AppendTypeHeader(out, "psp_interval_completion_rate_rps", "gauge",
                     "completion rate over the latest interval, all types");
    v.clear();
    AppendDouble(&v, rec.completion_rate_rps);
    AppendSample(out, "psp_interval_completion_rate_rps", nullptr, "", v);
  }

  struct TypeMetric {
    const char* metric;
    const char* help;
    int64_t (*value)(const TypeIntervalStats&);
    bool skip_negative;
    // Render the family only when some type has a non-zero value (used by
    // the deadline families so deadline-free engines keep their exact
    // pre-existing scrape output).
    bool skip_if_all_zero = false;
  };
  const TypeMetric type_metrics[] = {
      {"psp_type_interval_arrivals", "arrivals in the latest interval",
       [](const TypeIntervalStats& t) {
         return static_cast<int64_t>(t.arrivals);
       },
       false},
      {"psp_type_interval_completions", "completions in the latest interval",
       [](const TypeIntervalStats& t) {
         return static_cast<int64_t>(t.completions);
       },
       false},
      {"psp_type_interval_drops", "flow-control drops in the latest interval",
       [](const TypeIntervalStats& t) {
         return static_cast<int64_t>(t.drops);
       },
       false},
      {"psp_type_interval_slo_violations",
       "SLO violations in the latest interval",
       [](const TypeIntervalStats& t) {
         return static_cast<int64_t>(t.slo_violations);
       },
       false},
      {"psp_deadline_type_interval_misses",
       "deadline misses in the latest interval",
       [](const TypeIntervalStats& t) {
         return static_cast<int64_t>(t.deadline_misses);
       },
       false, /*skip_if_all_zero=*/true},
      {"psp_deadline_type_interval_sheds",
       "admission-control sheds in the latest interval",
       [](const TypeIntervalStats& t) {
         return static_cast<int64_t>(t.deadline_sheds);
       },
       false, /*skip_if_all_zero=*/true},
      {"psp_type_queue_depth",
       "typed-queue depth sampled at the latest interval close",
       [](const TypeIntervalStats& t) { return t.queue_depth; }, true},
      {"psp_type_reserved_workers",
       "DARC reserved-core share sampled at the latest interval close",
       [](const TypeIntervalStats& t) { return t.reserved_workers; }, true},
      {"psp_type_slowdown_p50_milli",
       "windowed p50 slowdown, milli units (1000 = 1.0x)",
       [](const TypeIntervalStats& t) { return t.slowdown_p50_milli; }, false},
      {"psp_type_slowdown_p99_milli",
       "windowed p99 slowdown, milli units (1000 = 1.0x)",
       [](const TypeIntervalStats& t) { return t.slowdown_p99_milli; }, false},
      {"psp_type_slowdown_p999_milli",
       "windowed p99.9 slowdown, milli units (1000 = 1.0x)",
       [](const TypeIntervalStats& t) { return t.slowdown_p999_milli; },
       false},
  };
  for (const TypeMetric& m : type_metrics) {
    if (m.skip_if_all_zero) {
      bool any_nonzero = false;
      for (const TypeIntervalStats& t : rec.types) {
        if (m.value(t) != 0) {
          any_nonzero = true;
          break;
        }
      }
      if (!any_nonzero) {
        continue;
      }
    }
    bool any = false;
    for (const TypeIntervalStats& t : rec.types) {
      if (m.skip_negative && m.value(t) < 0) {
        continue;
      }
      if (!any) {
        AppendTypeHeader(out, m.metric, "gauge", m.help);
        any = true;
      }
      AppendSample(out, m.metric, "type", ResolveTypeName(snap, t.type),
                   std::to_string(m.value(t)));
    }
  }

  if (!rec.worker_busy_permille.empty()) {
    AppendTypeHeader(out, "psp_worker_interval_busy_permille", "gauge",
                     "per-worker busy fraction over the latest interval, "
                     "permille");
    for (size_t w = 0; w < rec.worker_busy_permille.size(); ++w) {
      AppendSample(out, "psp_worker_interval_busy_permille", "worker",
                   std::to_string(w),
                   std::to_string(rec.worker_busy_permille[w]));
    }
  }
  if (!rec.worker_state_permille.empty()) {
    AppendTypeHeader(out, "psp_interval_worker_state_permille", "gauge",
                     "aggregate worker-time share by ledger state over the "
                     "latest interval, permille (sums to ~1000)");
    for (size_t s = 0;
         s < rec.worker_state_permille.size() && s < kNumWorkerTimeStates;
         ++s) {
      AppendSample(out, "psp_interval_worker_state_permille", "state",
                   WorkerTimeStateName(static_cast<WorkerTimeState>(s)),
                   std::to_string(rec.worker_state_permille[s]));
    }
  }
}

// Deadline-tier per-type families (the scheduler exports these only when the
// deadline tier is in play, so deadline-free engines render nothing here).
// The flat totals (psp_deadline_stamped_total etc.) come out of the generic
// counter renderer; this adds the per-type split and the dispatch-time slack
// distribution as a Prometheus summary (sum + count, no quantiles — slack is
// tracked as a race-free atomic pair, not a histogram).
void RenderDeadline(std::string* out, const TelemetrySnapshot& snap) {
  if (snap.deadline_types.empty()) {
    return;
  }
  const struct {
    const char* metric;
    const char* prom_type;
    const char* help;
    int64_t (*value)(const DeadlineTypeStats&);
  } families[] = {
      {"psp_deadline_type_missed_total", "counter",
       "completions past their deadline, per type",
       [](const DeadlineTypeStats& d) {
         return static_cast<int64_t>(d.missed);
       }},
      {"psp_deadline_type_shed_total", "counter",
       "admission-control sheds (predicted deadline misses), per type",
       [](const DeadlineTypeStats& d) {
         return static_cast<int64_t>(d.shed);
       }},
      {"psp_deadline_type_budget_ns", "gauge",
       "resolved relative deadline budget, per type (0 = no deadline)",
       [](const DeadlineTypeStats& d) { return d.budget_nanos; }},
  };
  for (const auto& f : families) {
    AppendTypeHeader(out, f.metric, f.prom_type, f.help);
    for (const DeadlineTypeStats& d : snap.deadline_types) {
      AppendSample(out, f.metric, "type",
                   d.name.empty() ? ResolveTypeName(snap, d.type) : d.name,
                   std::to_string(f.value(d)));
    }
  }
  AppendTypeHeader(out, "psp_deadline_type_slack_ns", "summary",
                   "dispatch-time slack (deadline - dispatch), per type; "
                   "negative sums mean dispatches past the deadline");
  for (const DeadlineTypeStats& d : snap.deadline_types) {
    const std::string type_name =
        d.name.empty() ? ResolveTypeName(snap, d.type) : d.name;
    AppendSample(out, "psp_deadline_type_slack_ns_sum", "type", type_name,
                 std::to_string(d.slack_sum_nanos));
    AppendSample(out, "psp_deadline_type_slack_ns_count", "type", type_name,
                 std::to_string(d.slack_samples));
  }
}

// The worker time-provenance ledger: cumulative wall time per slot,
// decomposed into exhaustive states (the samples of one slot sum to its
// wall time), plus the typed split of busy+steal time.
void RenderWorkerTime(std::string* out, const TelemetrySnapshot& snap) {
  if (snap.worker_time.empty()) {
    return;
  }
  AppendTypeHeader(out, "psp_worker_time_ns", "gauge",
                   "cumulative wall time per slot by time-ledger state "
                   "(one slot's samples sum to its wall time)");
  for (const WorkerTimeRecord& rec : snap.worker_time) {
    for (size_t s = 0; s < kNumWorkerTimeStates; ++s) {
      AppendMultiLabelSample(
          out, "psp_worker_time_ns",
          {{"worker", std::to_string(rec.slot)},
           {"role", rec.role},
           {"state", WorkerTimeStateName(static_cast<WorkerTimeState>(s))}},
          std::to_string(rec.state_ns[s]));
    }
  }
  bool any_busy = false;
  for (const WorkerTimeRecord& rec : snap.worker_time) {
    if (rec.BusyNs() > 0 || !rec.busy_type_ns.empty()) {
      any_busy = true;
      break;
    }
  }
  if (!any_busy) {
    return;
  }
  AppendTypeHeader(out, "psp_worker_busy_type_ns", "gauge",
                   "busy+steal time per slot split by request type "
                   "(type=\"untyped\" is the unattributed remainder)");
  for (const WorkerTimeRecord& rec : snap.worker_time) {
    uint64_t typed = 0;
    for (const auto& [type_name, ns] : rec.busy_type_ns) {
      AppendMultiLabelSample(out, "psp_worker_busy_type_ns",
                             {{"worker", std::to_string(rec.slot)},
                              {"type", type_name}},
                             std::to_string(ns));
      typed += ns;
    }
    const uint64_t busy = rec.BusyNs();
    if (busy > typed) {
      AppendMultiLabelSample(out, "psp_worker_busy_type_ns",
                             {{"worker", std::to_string(rec.slot)},
                              {"type", "untyped"}},
                             std::to_string(busy - typed));
    }
  }
}

}  // namespace

std::string PrometheusMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                    c == ':';
    out += ok ? c : '_';
  }
  if (!out.empty() && std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string PrometheusLabelEscape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string RenderPrometheusText(const TelemetrySnapshot& snapshot) {
  std::string out;
  out.reserve(8192);
  RenderScalars(&out, snapshot.counters, "counter", "_total", "counter");
  RenderScalars(&out, snapshot.gauges, "gauge", "", "gauge");
  RenderSummaries(&out, snapshot);
  RenderLatestInterval(&out, snapshot);
  RenderDeadline(&out, snapshot);
  RenderWorkerTime(&out, snapshot);
  // Always-present marker so a scrape of an idle server is still non-empty
  // and scrapers can assert liveness.
  AppendTypeHeader(&out, "psp_up", "gauge", "introspection plane liveness");
  AppendSample(&out, "psp_up", nullptr, "", "1");
  return out;
}

std::string RenderInfoGauge(const std::string& metric, const std::string& help,
                            const char* label, const std::string& value) {
  std::string out;
  AppendTypeHeader(&out, metric, "gauge", help);
  AppendSample(&out, metric, label, value, "1");
  return out;
}

std::string CheckExposition(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  bool any_sample = false;
  std::map<std::string, std::string> kinds;  // family -> its # TYPE kind
  std::set<std::string> closed;              // families whose lines ended
  std::string current;
  while (std::getline(in, line)) {
    const std::string where = "line " + std::to_string(++line_no) + ": ";
    if (line.empty()) {
      continue;
    }
    std::string family;
    if (line[0] == '#') {
      if (!IsHelpOrType(line)) {
        return where + "comment is neither HELP nor TYPE";
      }
      family = CommentName(line);
      if (line.compare(2, 4, "TYPE") == 0) {
        // "# TYPE <family> <kind>"
        const std::string kind =
            line.substr(std::min(line.size(), 8 + family.size()));
        if (!kinds.emplace(family, kind).second) {
          return where + "second # TYPE for " + family;
        }
      }
    } else {
      Sample sample;
      if (const char* problem = ParseSample(line, &sample)) {
        return where + problem;
      }
      double value;
      if (!ParseNumber(sample.value, &value)) {
        return where + "bad sample value \"" + sample.value + "\"";
      }
      any_sample = true;
      family = sample.name;
      // A summary's _sum/_count samples belong to its family.
      const size_t cut = family.rfind('_');
      if (cut != std::string::npos) {
        const std::string suffix = family.substr(cut);
        const auto it = kinds.find(family.substr(0, cut));
        if ((suffix == "_sum" || suffix == "_count") && it != kinds.end() &&
            it->second == "summary") {
          family = it->first;
        }
      }
    }
    if (family != current) {
      if (closed.count(family) != 0) {
        return where + "lines of " + family + " are not contiguous";
      }
      closed.insert(current);
      current = family;
    }
  }
  if (!any_sample) {
    return "no samples in exposition";
  }
  return "";
}

std::string FederateMetrics(const std::vector<std::string>& pages,
                            const std::string& fleet_tier) {
  struct Family {
    std::string help;
    std::string type;
    // Per-server sample lines, already server-labelled.
    std::vector<std::string> lines;
    // Aggregation: labels -> summed value (counters only).
    std::vector<std::pair<std::string, double>> sums;
    bool integral = true;
  };
  std::vector<std::string> order;  // first-seen family order
  std::vector<Family> families;
  const auto family_of = [&](const std::string& name) -> Family& {
    for (size_t i = 0; i < order.size(); ++i) {
      if (order[i] == name) {
        return families[i];
      }
    }
    order.push_back(name);
    families.emplace_back();
    return families.back();
  };

  for (size_t server = 0; server < pages.size(); ++server) {
    std::istringstream in(pages[server]);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) {
        continue;
      }
      if (line[0] == '#') {
        if (!IsHelpOrType(line) || line.find(' ', 7) == std::string::npos) {
          continue;
        }
        Family& fam = family_of(CommentName(line));
        std::string& slot =
            line.compare(2, 4, "HELP") == 0 ? fam.help : fam.type;
        if (slot.empty()) {
          slot = line.substr(line.find(' ', 7) + 1);
        }
        continue;
      }
      Sample sample;
      if (ParseSample(line, &sample) != nullptr) {
        continue;
      }
      if (sample.name == "psp_up") {
        continue;  // re-emitted once, terminal, for the merged page
      }
      Family& fam = family_of(sample.name);
      std::string labelled = "server=\"" + std::to_string(server) + "\"";
      if (!sample.labels.empty()) {
        labelled += "," + sample.labels;
      }
      fam.lines.push_back(sample.name + "{" + labelled + "} " + sample.value);
      double v;
      if (ParseNumber(sample.value, &v)) {
        bool found = false;
        for (auto& [labels, sum] : fam.sums) {
          if (labels == sample.labels) {
            sum += v;
            found = true;
            break;
          }
        }
        if (!found) {
          fam.sums.emplace_back(sample.labels, v);
        }
        if (v != static_cast<double>(static_cast<long long>(v))) {
          fam.integral = false;
        }
      }
    }
  }

  std::string out;
  const auto append_value = [&](double v, bool integral) {
    char buf[64];
    if (integral && v < 9e15 && v > -9e15) {
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    } else {
      std::snprintf(buf, sizeof(buf), "%.9g", v);
    }
    out += buf;
  };
  for (size_t i = 0; i < order.size(); ++i) {
    const Family& fam = families[i];
    // A summary keeps its header even when all its samples are _sum/_count
    // (collected under those names, right after it in first-seen order).
    if (fam.lines.empty() && fam.type != "summary") {
      continue;
    }
    if (!fam.help.empty()) {
      out += "# HELP " + order[i] + " " + fam.help + "\n";
    }
    if (!fam.type.empty()) {
      out += "# TYPE " + order[i] + " " + fam.type + "\n";
    }
    for (const std::string& line : fam.lines) {
      out += line + "\n";
    }
  }
  // Fleet roll-up: counters are meaningfully summable across servers.
  for (size_t i = 0; i < order.size(); ++i) {
    const Family& fam = families[i];
    if (fam.type != "counter" || fam.sums.empty()) {
      continue;
    }
    const std::string fleet_name =
        order[i].compare(0, 4, "psp_") == 0
            ? "psp_fleet_" + order[i].substr(4)
            : "psp_fleet_" + order[i];
    out += "# HELP " + fleet_name + " Sum of " + order[i] +
           " across federated servers.\n";
    out += "# TYPE " + fleet_name + " counter\n";
    for (const auto& [labels, sum] : fam.sums) {
      out += fleet_name;
      if (!labels.empty()) {
        out += "{" + labels + "}";
      }
      out += " ";
      append_value(sum, fam.integral);
      out += "\n";
    }
  }
  // The fleet tier's own families, verbatim but for its psp_up.
  std::istringstream tier(fleet_tier);
  std::string line;
  while (std::getline(tier, line)) {
    const std::string name = line.empty() || line[0] != '#'
                                 ? line.substr(0, ScanName(line))
                                 : CommentName(line);
    if (!line.empty() && name != "psp_up") {
      out += line + "\n";
    }
  }
  out += "# HELP psp_fleet_servers Endpoints merged into this page.\n";
  out += "# TYPE psp_fleet_servers gauge\n";
  out += "psp_fleet_servers " + std::to_string(pages.size()) + "\n";
  out += "psp_up 1\n";
  return out;
}

}  // namespace psp
