// Format contract for the Prometheus text exposition
// (src/introspect/prometheus.h): name sanitisation, label escaping, counter
// vs gauge vs summary shapes, worker-label folding, latest-interval gauges,
// byte determinism, the page validator, and the federation that builds every
// fleet page from its servers' pages.
#include "src/introspect/prometheus.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/fleet/fleet_snapshot.h"
#include "src/telemetry/snapshot.h"

namespace psp {
namespace {

// Splits the exposition into lines for targeted assertions.
std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    out.push_back(line);
  }
  return out;
}

bool Contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

TEST(Prometheus, MetricNameSanitisation) {
  EXPECT_EQ(PrometheusMetricName("scheduler.dispatched"),
            "scheduler_dispatched");
  EXPECT_EQ(PrometheusMetricName("a-b c"), "a_b_c");
  EXPECT_EQ(PrometheusMetricName("ns:metric"), "ns:metric");
  // Leading digit gets an underscore prefix.
  EXPECT_EQ(PrometheusMetricName("9lives"), "_9lives");
}

TEST(Prometheus, LabelEscaping) {
  EXPECT_EQ(PrometheusLabelEscape("plain"), "plain");
  EXPECT_EQ(PrometheusLabelEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(PrometheusLabelEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(PrometheusLabelEscape("a\nb"), "a\\nb");
}

TEST(Prometheus, CounterGaugeSummaryShapes) {
  TelemetrySnapshot snap;
  snap.counters["scheduler.dispatched"] = 42;
  snap.gauges["engine.num_workers"] = 14;
  snap.histograms["latency"].Add(1000);
  snap.histograms["latency"].Add(3000);

  const std::string text = RenderPrometheusText(snap);

  // Counter: HELP + TYPE + _total suffix.
  EXPECT_TRUE(Contains(text,
                       "# TYPE psp_scheduler_dispatched_total counter\n"));
  EXPECT_TRUE(Contains(text, "\npsp_scheduler_dispatched_total 42\n"));
  // Gauge: no suffix.
  EXPECT_TRUE(Contains(text, "# TYPE psp_engine_num_workers gauge\n"));
  EXPECT_TRUE(Contains(text, "\npsp_engine_num_workers 14\n"));
  // Summary: quantiles + _sum + _count.
  EXPECT_TRUE(Contains(text, "# TYPE psp_latency summary\n"));
  EXPECT_TRUE(Contains(text, "psp_latency{quantile=\"0.5\"}"));
  EXPECT_TRUE(Contains(text, "psp_latency{quantile=\"0.99\"}"));
  EXPECT_TRUE(Contains(text, "psp_latency{quantile=\"0.999\"}"));
  EXPECT_TRUE(Contains(text, "psp_latency_sum 4000\n"));
  EXPECT_TRUE(Contains(text, "psp_latency_count 2\n"));
  // Liveness marker always present.
  EXPECT_TRUE(Contains(text, "\npsp_up 1\n"));
}

TEST(Prometheus, WorkerMetricsFoldIntoLabels) {
  TelemetrySnapshot snap;
  snap.counters["worker.0.requests"] = 10;
  snap.counters["worker.3.requests"] = 30;
  snap.gauges["worker.0.busy_permille"] = 512;

  const std::string text = RenderPrometheusText(snap);

  EXPECT_TRUE(
      Contains(text, "psp_worker_requests_total{worker=\"0\"} 10\n"));
  EXPECT_TRUE(
      Contains(text, "psp_worker_requests_total{worker=\"3\"} 30\n"));
  EXPECT_TRUE(
      Contains(text, "psp_worker_busy_permille{worker=\"0\"} 512\n"));
  // The folded family gets exactly one TYPE header.
  size_t headers = 0;
  for (const std::string& line : Lines(text)) {
    if (line == "# TYPE psp_worker_requests_total counter") {
      ++headers;
    }
  }
  EXPECT_EQ(headers, 1u);
  // The raw dotted name must not leak through.
  EXPECT_FALSE(Contains(text, "worker_0_requests"));
}

// Golden-format contract for the socket-ingress counter families the
// runtime folds out of UdpIngressStats: flat ingress.* counters plus the
// per-shard rx fold into a shard label.
TEST(Prometheus, IngressCountersGoldenFormat) {
  TelemetrySnapshot snap;
  snap.counters["ingress.rx_datagrams"] = 1000;
  snap.counters["ingress.malformed"] = 7;
  snap.counters["ingress.ring_full_drops"] = 2;
  snap.counters["ingress.tx_datagrams"] = 998;
  snap.counters["ingress.tx_drops"] = 0;
  snap.counters["ingress.poll_sleeps"] = 55;
  snap.counters["ingress.poll_slept_nanos"] = 123456;
  snap.counters["ingress.shard.0.rx_datagrams"] = 600;
  snap.counters["ingress.shard.1.rx_datagrams"] = 400;

  const std::string text = RenderPrometheusText(snap);

  // Flat families: HELP + TYPE + _total, exact sample lines.
  EXPECT_TRUE(Contains(text, "# TYPE psp_ingress_rx_datagrams_total counter\n"));
  EXPECT_TRUE(Contains(text, "\npsp_ingress_rx_datagrams_total 1000\n"));
  EXPECT_TRUE(Contains(text, "# TYPE psp_ingress_malformed_total counter\n"));
  EXPECT_TRUE(Contains(text, "\npsp_ingress_malformed_total 7\n"));
  EXPECT_TRUE(Contains(text, "\npsp_ingress_ring_full_drops_total 2\n"));
  EXPECT_TRUE(Contains(text, "\npsp_ingress_tx_datagrams_total 998\n"));
  EXPECT_TRUE(Contains(text, "\npsp_ingress_tx_drops_total 0\n"));
  EXPECT_TRUE(Contains(text, "# TYPE psp_ingress_poll_sleeps_total counter\n"));
  EXPECT_TRUE(Contains(text, "\npsp_ingress_poll_sleeps_total 55\n"));
  EXPECT_TRUE(Contains(text, "\npsp_ingress_poll_slept_nanos_total 123456\n"));

  // Per-shard rx folds into one family with a shard label, like workers.
  EXPECT_TRUE(Contains(
      text, "psp_ingress_shard_rx_datagrams_total{shard=\"0\"} 600\n"));
  EXPECT_TRUE(Contains(
      text, "psp_ingress_shard_rx_datagrams_total{shard=\"1\"} 400\n"));
  size_t headers = 0;
  for (const std::string& line : Lines(text)) {
    if (line == "# TYPE psp_ingress_shard_rx_datagrams_total counter") {
      ++headers;
    }
  }
  EXPECT_EQ(headers, 1u);
  // The raw dotted per-shard name must not leak through as a flat metric.
  EXPECT_FALSE(Contains(text, "ingress_shard_0_rx_datagrams"));
}

// The event-queue surface (ClusterEngine::telemetry_snapshot in
// owned-simulation mode): engine counters as psp_sim_engine_*_total, the
// pending depth as a gauge.
TEST(Prometheus, SimEngineGoldenFormat) {
  TelemetrySnapshot snap;
  snap.counters["sim.engine.executed"] = 123456;
  snap.counters["sim.engine.cascades"] = 789;
  snap.counters["sim.engine.rollovers"] = 42;
  snap.counters["sim.engine.arena_allocations"] = 9;
  snap.gauges["sim.engine.pending_events"] = 77;

  const std::string text = RenderPrometheusText(snap);

  EXPECT_TRUE(Contains(text, "# TYPE psp_sim_engine_executed_total counter\n"));
  EXPECT_TRUE(Contains(text, "\npsp_sim_engine_executed_total 123456\n"));
  EXPECT_TRUE(Contains(text, "# TYPE psp_sim_engine_cascades_total counter\n"));
  EXPECT_TRUE(Contains(text, "\npsp_sim_engine_cascades_total 789\n"));
  EXPECT_TRUE(Contains(text, "\npsp_sim_engine_rollovers_total 42\n"));
  EXPECT_TRUE(Contains(text, "\npsp_sim_engine_arena_allocations_total 9\n"));
  EXPECT_TRUE(Contains(text, "# TYPE psp_sim_engine_pending_events gauge\n"));
  EXPECT_TRUE(Contains(text, "\npsp_sim_engine_pending_events 77\n"));
}

// Golden-format contract for the deadline-tier families: flat totals render
// through the generic counter path, the per-type split folds into a type
// label, and dispatch-time slack comes out as a summary (sum/count pair,
// negative sums allowed). Deadline-free snapshots render none of it.
TEST(Prometheus, DeadlineFamiliesGoldenFormat) {
  TelemetrySnapshot snap;
  snap.counters["deadline.stamped"] = 900;
  snap.counters["deadline.missed"] = 12;
  snap.counters["deadline.met"] = 888;
  snap.counters["deadline.shed"] = 5;
  DeadlineTypeStats short_type;
  short_type.type = 1;
  short_type.name = "SHORT";
  short_type.missed = 2;
  short_type.shed = 0;
  short_type.slack_sum_nanos = 123456;
  short_type.slack_samples = 450;
  short_type.budget_nanos = 20000;
  DeadlineTypeStats long_type;
  long_type.type = 2;
  long_type.name = "LONG";
  long_type.missed = 10;
  long_type.shed = 5;
  long_type.slack_sum_nanos = -789;  // dispatches past the deadline
  long_type.slack_samples = 440;
  long_type.budget_nanos = 150000;
  snap.deadline_types = {short_type, long_type};

  const std::string text = RenderPrometheusText(snap);

  // Flat totals via the generic counter renderer.
  EXPECT_TRUE(Contains(text,
                       "# TYPE psp_deadline_stamped_total counter\n"));
  EXPECT_TRUE(Contains(text, "\npsp_deadline_stamped_total 900\n"));
  EXPECT_TRUE(Contains(text, "\npsp_deadline_missed_total 12\n"));
  EXPECT_TRUE(Contains(text, "\npsp_deadline_met_total 888\n"));
  EXPECT_TRUE(Contains(text, "\npsp_deadline_shed_total 5\n"));

  // Per-type folds with a type label, one TYPE header per family.
  EXPECT_TRUE(Contains(text,
                       "# TYPE psp_deadline_type_missed_total counter\n"));
  EXPECT_TRUE(
      Contains(text, "psp_deadline_type_missed_total{type=\"SHORT\"} 2\n"));
  EXPECT_TRUE(
      Contains(text, "psp_deadline_type_missed_total{type=\"LONG\"} 10\n"));
  EXPECT_TRUE(
      Contains(text, "psp_deadline_type_shed_total{type=\"LONG\"} 5\n"));
  EXPECT_TRUE(Contains(text, "# TYPE psp_deadline_type_budget_ns gauge\n"));
  EXPECT_TRUE(
      Contains(text, "psp_deadline_type_budget_ns{type=\"SHORT\"} 20000\n"));

  // Slack summary: per-type sum/count, negative sums render as-is.
  EXPECT_TRUE(Contains(text, "# TYPE psp_deadline_type_slack_ns summary\n"));
  EXPECT_TRUE(Contains(
      text, "psp_deadline_type_slack_ns_sum{type=\"SHORT\"} 123456\n"));
  EXPECT_TRUE(Contains(
      text, "psp_deadline_type_slack_ns_count{type=\"SHORT\"} 450\n"));
  EXPECT_TRUE(
      Contains(text, "psp_deadline_type_slack_ns_sum{type=\"LONG\"} -789\n"));
  size_t headers = 0;
  for (const std::string& line : Lines(text)) {
    if (line == "# TYPE psp_deadline_type_missed_total counter") {
      ++headers;
    }
  }
  EXPECT_EQ(headers, 1u);

  // A deadline-free snapshot renders no deadline family at all — the tier is
  // pay-for-what-you-use and existing scrapes stay byte-identical.
  const std::string bare = RenderPrometheusText(TelemetrySnapshot{});
  EXPECT_FALSE(Contains(bare, "psp_deadline"));
}

// Interval deadline gauges ride the latest time-series record and are
// omitted entirely for deadline-free intervals (skip-if-all-zero).
TEST(Prometheus, DeadlineIntervalGauges) {
  TelemetrySnapshot snap;
  snap.type_names[1] = "SHORT";
  snap.type_names[2] = "LONG";
  IntervalRecord rec;
  rec.seq = 3;
  TypeIntervalStats s1;
  s1.type = 1;
  s1.deadline_misses = 4;
  s1.deadline_sheds = 1;
  TypeIntervalStats s2;
  s2.type = 2;
  rec.types = {s1, s2};
  snap.timeseries.push_back(rec);

  const std::string text = RenderPrometheusText(snap);
  EXPECT_TRUE(Contains(
      text, "psp_deadline_type_interval_misses{type=\"SHORT\"} 4\n"));
  EXPECT_TRUE(Contains(
      text, "psp_deadline_type_interval_sheds{type=\"SHORT\"} 1\n"));

  // All-zero interval: the families disappear from the scrape.
  TelemetrySnapshot quiet;
  quiet.type_names[1] = "SHORT";
  IntervalRecord calm;
  calm.seq = 4;
  TypeIntervalStats c1;
  c1.type = 1;
  c1.arrivals = 10;
  calm.types = {c1};
  quiet.timeseries.push_back(calm);
  const std::string quiet_text = RenderPrometheusText(quiet);
  EXPECT_FALSE(Contains(quiet_text, "psp_deadline_type_interval"));
}

TEST(Prometheus, LatestIntervalPerTypeGauges) {
  TelemetrySnapshot snap;
  snap.type_names[0] = "SHORT";
  snap.type_names[1] = "LO\"NG";  // exercises label escaping in type names

  IntervalRecord rec;
  rec.seq = 7;
  rec.end = 123456789;
  rec.arrival_rate_rps = 1000.5;
  rec.completion_rate_rps = 999.5;
  rec.reservation_updates = 2;
  TypeIntervalStats s0;
  s0.type = 0;
  s0.arrivals = 90;
  s0.completions = 88;
  s0.queue_depth = 4;
  s0.reserved_workers = 1;
  s0.slowdown_p99_milli = 1500;
  TypeIntervalStats s1;
  s1.type = 1;
  s1.arrivals = 10;
  s1.queue_depth = -1;  // sentinel: engine provided no sampler
  s1.reserved_workers = -1;
  rec.types = {s0, s1};
  rec.worker_busy_permille = {250, 750};
  snap.timeseries.push_back(rec);

  const std::string text = RenderPrometheusText(snap);

  EXPECT_TRUE(Contains(text, "\npsp_interval_seq 7\n"));
  EXPECT_TRUE(
      Contains(text, "psp_type_interval_arrivals{type=\"SHORT\"} 90\n"));
  EXPECT_TRUE(
      Contains(text, "psp_type_interval_arrivals{type=\"LO\\\"NG\"} 10\n"));
  EXPECT_TRUE(Contains(text, "psp_type_queue_depth{type=\"SHORT\"} 4\n"));
  // -1 sentinels are omitted, not rendered.
  EXPECT_FALSE(Contains(text, "psp_type_queue_depth{type=\"LO\\\"NG\"}"));
  EXPECT_TRUE(
      Contains(text, "psp_type_slowdown_p99_milli{type=\"SHORT\"} 1500\n"));
  EXPECT_TRUE(
      Contains(text, "psp_worker_interval_busy_permille{worker=\"1\"} 750\n"));
}

TEST(Prometheus, OnlyLatestIntervalRendered) {
  TelemetrySnapshot snap;
  IntervalRecord old;
  old.seq = 1;
  IntervalRecord latest;
  latest.seq = 2;
  snap.timeseries = {old, latest};
  const std::string text = RenderPrometheusText(snap);
  EXPECT_TRUE(Contains(text, "\npsp_interval_seq 2\n"));
  EXPECT_FALSE(Contains(text, "\npsp_interval_seq 1\n"));
}

TEST(Prometheus, EveryLineWellFormed) {
  TelemetrySnapshot snap;
  snap.counters["a.b"] = 1;
  snap.gauges["worker.2.depth"] = 3;
  snap.histograms["h"].Add(5);
  for (const std::string& line : Lines(RenderPrometheusText(snap))) {
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    // Sample lines: name[{labels}] SP value, exactly one separating space
    // outside the label block.
    const size_t brace = line.find('{');
    const size_t close = line.rfind('}');
    const size_t sep = close != std::string::npos && brace != std::string::npos
                           ? line.find(' ', close)
                           : line.find(' ');
    ASSERT_NE(sep, std::string::npos) << line;
    EXPECT_GT(sep, 0u) << line;
    EXPECT_LT(sep + 1, line.size()) << line;
  }
}

TEST(Prometheus, ByteDeterministic) {
  TelemetrySnapshot snap;
  snap.counters["x"] = 1;
  snap.counters["worker.0.requests"] = 2;
  snap.gauges["g"] = -5;
  snap.histograms["h"].Add(7);
  snap.type_names[3] = "T";
  IntervalRecord rec;
  rec.seq = 1;
  TypeIntervalStats t;
  t.type = 3;
  t.arrivals = 9;
  rec.types.push_back(t);
  snap.timeseries.push_back(rec);

  EXPECT_EQ(RenderPrometheusText(snap), RenderPrometheusText(snap));
}

TEST(Exposition, AcceptsRenderedPagesAndQuotedLabelPunctuation) {
  EXPECT_EQ(CheckExposition(RenderPrometheusText(TelemetrySnapshot{})), "");
  // '}', ' ' and an escaped '"' inside a quoted label value do not end the
  // label block.
  EXPECT_EQ(CheckExposition("# TYPE psp_x gauge\n"
                            "psp_x{a=\"}{\",b=\"q\\\"} 1\"} 3\n"),
            "");
  EXPECT_EQ(CheckExposition("# HELP psp_s s\n# TYPE psp_s summary\n"
                            "psp_s{quantile=\"0.5\"} 1\npsp_s_sum 2.5\n"
                            "psp_s_count 2\npsp_up 1\n"),
            "");
}

TEST(Exposition, RejectsMalformedPages) {
  EXPECT_EQ(CheckExposition(""), "no samples in exposition");
  EXPECT_EQ(CheckExposition("# HELP psp_x only comments\n"),
            "no samples in exposition");
  EXPECT_EQ(CheckExposition("psp_x abc\n"),
            "line 1: bad sample value \"abc\"");
  EXPECT_EQ(CheckExposition("psp_x{a=\"}\" 1\n"),
            "line 1: unterminated labels");
  EXPECT_EQ(CheckExposition("9x 1\n"), "line 1: bad metric name");
  EXPECT_EQ(CheckExposition("psp_x\n"), "line 1: missing value separator");
  EXPECT_EQ(CheckExposition("# note\npsp_x 1\n"),
            "line 1: comment is neither HELP nor TYPE");
}

TEST(Exposition, RejectsRedeclaredOrScatteredFamilies) {
  EXPECT_EQ(CheckExposition("# TYPE psp_x gauge\npsp_x 1\n"
                            "# TYPE psp_x gauge\n"),
            "line 3: second # TYPE for psp_x");
  EXPECT_EQ(CheckExposition("psp_x{a=\"1\"} 1\npsp_y 2\n"
                            "psp_x{a=\"2\"} 3\n"),
            "line 3: lines of psp_x are not contiguous");
  // _sum/_count belong to their summary: one after another family is a
  // scattered summary, not a new family.
  EXPECT_EQ(CheckExposition("# TYPE psp_s summary\npsp_s_sum 1\n"
                            "psp_y 2\npsp_s_count 1\n"),
            "line 4: lines of psp_s are not contiguous");
}

// Literal golden: FederateMetrics (what `pspctl federate` prints) must stay
// byte-identical to the merger it was moved from.
TEST(Federation, GoldenMergeOfTwoPages) {
  const std::vector<std::string> pages = {
      "# HELP psp_requests_total counter \"requests\"\n"
      "# TYPE psp_requests_total counter\n"
      "psp_requests_total 10\n"
      "# HELP psp_worker_busy_total counter \"worker.<N>.busy\" per worker\n"
      "# TYPE psp_worker_busy_total counter\n"
      "psp_worker_busy_total{worker=\"0\"} 3\n"
      "psp_worker_busy_total{worker=\"1\"} 4\n"
      "# HELP psp_depth gauge \"depth\"\n"
      "# TYPE psp_depth gauge\n"
      "psp_depth 2\n"
      "# HELP psp_latency histogram \"latency\" as quantile summary\n"
      "# TYPE psp_latency summary\n"
      "psp_latency{quantile=\"0.5\"} 100\n"
      "psp_latency{quantile=\"0.999\"} 900\n"
      "psp_latency_sum 1500.5\n"
      "psp_latency_count 3\n"
      "# HELP psp_up introspection plane liveness\n"
      "# TYPE psp_up gauge\n"
      "psp_up 1\n",
      "# HELP psp_requests_total counter \"requests\"\n"
      "# TYPE psp_requests_total counter\n"
      "psp_requests_total 5\n"
      "# TYPE psp_worker_busy_total counter\n"
      "psp_worker_busy_total{worker=\"0\"} 7\n"
      "# HELP psp_ratio_total a fractional counter\n"
      "# TYPE psp_ratio_total counter\n"
      "psp_ratio_total{type=\"a\\\"b}\"} 0.5\n"
      "psp_ratio_total{type=\"c\"} 2\n"
      "# TYPE psp_latency summary\n"
      "psp_latency{quantile=\"0.5\"} 200\n"
      "psp_latency{quantile=\"0.999\"} 300\n"
      "psp_latency_sum 700\n"
      "psp_latency_count 2\n"
      "psp_up 1\n"};
  const std::string expected =
      "# HELP psp_requests_total counter \"requests\"\n"
      "# TYPE psp_requests_total counter\n"
      "psp_requests_total{server=\"0\"} 10\n"
      "psp_requests_total{server=\"1\"} 5\n"
      "# HELP psp_worker_busy_total counter \"worker.<N>.busy\" per worker\n"
      "# TYPE psp_worker_busy_total counter\n"
      "psp_worker_busy_total{server=\"0\",worker=\"0\"} 3\n"
      "psp_worker_busy_total{server=\"0\",worker=\"1\"} 4\n"
      "psp_worker_busy_total{server=\"1\",worker=\"0\"} 7\n"
      "# HELP psp_depth gauge \"depth\"\n"
      "# TYPE psp_depth gauge\n"
      "psp_depth{server=\"0\"} 2\n"
      "# HELP psp_latency histogram \"latency\" as quantile summary\n"
      "# TYPE psp_latency summary\n"
      "psp_latency{server=\"0\",quantile=\"0.5\"} 100\n"
      "psp_latency{server=\"0\",quantile=\"0.999\"} 900\n"
      "psp_latency{server=\"1\",quantile=\"0.5\"} 200\n"
      "psp_latency{server=\"1\",quantile=\"0.999\"} 300\n"
      "psp_latency_sum{server=\"0\"} 1500.5\n"
      "psp_latency_sum{server=\"1\"} 700\n"
      "psp_latency_count{server=\"0\"} 3\n"
      "psp_latency_count{server=\"1\"} 2\n"
      "# HELP psp_ratio_total a fractional counter\n"
      "# TYPE psp_ratio_total counter\n"
      "psp_ratio_total{server=\"1\",type=\"a\\\"b}\"} 0.5\n"
      "psp_ratio_total{server=\"1\",type=\"c\"} 2\n"
      "# HELP psp_fleet_requests_total Sum of psp_requests_total across "
      "federated servers.\n"
      "# TYPE psp_fleet_requests_total counter\n"
      "psp_fleet_requests_total 15\n"
      "# HELP psp_fleet_worker_busy_total Sum of psp_worker_busy_total across "
      "federated servers.\n"
      "# TYPE psp_fleet_worker_busy_total counter\n"
      "psp_fleet_worker_busy_total{worker=\"0\"} 10\n"
      "psp_fleet_worker_busy_total{worker=\"1\"} 4\n"
      "# HELP psp_fleet_ratio_total Sum of psp_ratio_total across "
      "federated servers.\n"
      "# TYPE psp_fleet_ratio_total counter\n"
      "psp_fleet_ratio_total{type=\"a\\\"b}\"} 0.5\n"
      "psp_fleet_ratio_total{type=\"c\"} 2\n"
      "# HELP psp_fleet_servers Endpoints merged into this page.\n"
      "# TYPE psp_fleet_servers gauge\n"
      "psp_fleet_servers 2\n"
      "psp_up 1\n";
  EXPECT_EQ(FederateMetrics(pages), expected);
  EXPECT_EQ(CheckExposition(expected), "");
}

// A server snapshot that exercises every renderer family: plain and indexed
// scalars, summaries, the latest interval, the deadline tier and the ledger.
TelemetrySnapshot RichServerSnapshot(uint64_t scale) {
  TelemetrySnapshot snap;
  snap.type_names[1] = "SHORT";
  snap.counters["engine.completed"] = 100 * scale;
  snap.counters["worker.0.requests"] = 40 * scale;
  snap.counters["worker.1.requests"] = 60 * scale;
  snap.counters["ingress.shard.0.rx_datagrams"] = 7 * scale;
  snap.gauges["scheduler.idle_workers"] = 1;
  snap.gauges["worker.1.depth"] = 2;
  for (uint64_t v = 1; v <= 50 * scale; ++v) {
    snap.histograms["engine.latency"].Add(static_cast<int64_t>(v * 1000));
  }
  IntervalRecord rec;
  rec.seq = 3;
  TypeIntervalStats t;
  t.type = 1;
  t.arrivals = 9;
  t.deadline_misses = 1;
  rec.types.push_back(t);
  rec.worker_busy_permille = {500, 250};
  snap.timeseries.push_back(rec);
  DeadlineTypeStats d;
  d.type = 1;
  d.name = "SHORT";
  d.missed = scale;
  d.slack_sum_nanos = 10;
  d.slack_samples = 2;
  snap.deadline_types.push_back(d);
  WorkerTimeRecord ledger;
  ledger.slot = 0;
  ledger.role = "worker";
  ledger.state_ns[static_cast<size_t>(WorkerTimeState::kBusy)] = 900;
  ledger.busy_type_ns = {{"SHORT", 600}};
  snap.worker_time.push_back(ledger);
  return snap;
}

// The fleet page is its servers' pages: every family of a server's own page
// (but psp_up) appears under the same name and TYPE, and every one of its
// samples appears with server="i" added to its labels.
TEST(Federation, FleetPageContainsEachServerPage) {
  FleetSnapshot fleet;
  fleet.policy = "po2c";
  fleet.counters["fleet.generated"] = 500;
  fleet.counters["fleet.server.0.dispatched"] = 200;
  fleet.counters["fleet.server.1.dispatched"] = 300;
  fleet.gauges["fleet.server.1.outstanding"] = 4;
  fleet.servers = {RichServerSnapshot(1), RichServerSnapshot(2)};
  const std::string page = fleet.ToPrometheus();
  EXPECT_EQ(CheckExposition(page), "");

  for (size_t i = 0; i < fleet.servers.size(); ++i) {
    const std::string server = "server=\"" + std::to_string(i) + "\"";
    for (const std::string& line :
         Lines(RenderPrometheusText(fleet.servers[i]))) {
      if (line == "psp_up 1" || Contains(line, " psp_up ")) {
        continue;
      }
      if (line.rfind("# TYPE ", 0) == 0) {
        EXPECT_TRUE(Contains(page, line + "\n")) << line;
        continue;
      }
      if (line[0] == '#') {
        continue;
      }
      const size_t brace = line.find('{');
      const size_t space = line.find(' ');
      const std::string labelled =
          brace < space ? line.substr(0, brace + 1) + server + "," +
                              line.substr(brace + 1)
                        : line.substr(0, space) + "{" + server + "}" +
                              line.substr(space);
      EXPECT_TRUE(Contains(page, "\n" + labelled + "\n")) << labelled;
    }
  }

  // Roll-ups, the dispatcher tier and the page-level families.
  EXPECT_TRUE(Contains(page, "\npsp_fleet_engine_completed_total 300\n"));
  EXPECT_TRUE(Contains(
      page, "\npsp_fleet_worker_requests_total{worker=\"1\"} 180\n"));
  EXPECT_TRUE(Contains(
      page, "\npsp_fleet_engine_latency{quantile=\"0.999\"} " +
                std::to_string(fleet.Merged()
                                   .histograms.at("engine.latency")
                                   .Percentile(99.9)) +
                "\n"));
  EXPECT_TRUE(Contains(page, "\npsp_fleet_engine_latency_count 150\n"));
  EXPECT_TRUE(Contains(page, "\npsp_fleet_generated_total 500\n"));
  EXPECT_TRUE(Contains(
      page, "\npsp_fleet_server_dispatched_total{server=\"1\"} 300\n"));
  EXPECT_TRUE(
      Contains(page, "\npsp_fleet_server_outstanding{server=\"1\"} 4\n"));
  EXPECT_TRUE(Contains(page, "\npsp_fleet_policy{policy=\"po2c\"} 1\n"));
  EXPECT_TRUE(Contains(page, "\npsp_fleet_servers 2\n"));
  EXPECT_FALSE(Contains(page, "psp_fleet_fleet_"));
  EXPECT_FALSE(Contains(page, "server=\"merged\""));
  size_t up = 0;
  for (const std::string& line : Lines(page)) {
    up += line.rfind("psp_up", 0) == 0 || Contains(line, " psp_up ") ? 1 : 0;
  }
  EXPECT_EQ(up, 1u);
}

}  // namespace
}  // namespace psp
