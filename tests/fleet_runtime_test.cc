// FleetRuntime end-to-end: two real Persephone servers behind the front-end
// dispatch thread, client-observed latency through Submit/harvest, round-robin
// spread, and the fleet admin plane scraped over a real loopback socket.
#include "src/fleet/fleet_runtime.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "src/apps/synthetic.h"
#include "src/introspect/admin_client.h"
#include "src/introspect/prometheus.h"

namespace psp {
namespace {

// One request to the loopback admin port through the shared client.
AdminResponse HttpRequest(uint16_t port, const std::string& method,
                          const std::string& path,
                          const std::string& body = "") {
  return AdminRequest(AdminEndpoint{"127.0.0.1", port, ""}, method, path,
                      body);
}

FleetRuntimeConfig SmallFleetRuntime(FleetPolicyKind kind,
                                     uint32_t servers = 2) {
  FleetRuntimeConfig config;
  config.num_servers = servers;
  config.server.num_workers = 2;
  config.server.pool_buffers = 1024;
  config.policy = FleetPolicyConfig::Default(kind);
  return config;
}

// Submits `total` spin requests, then polls until every dispatched request
// has come back (or a generous deadline expires).
void SubmitAndDrain(FleetRuntime& fleet, uint64_t total, Nanos spin) {
  for (uint64_t i = 0; i < total; ++i) {
    while (!fleet.Submit(1, static_cast<uint32_t>(i * 2654435761u), &spin,
                         sizeof(spin))) {
      std::this_thread::yield();
    }
    // A short pause keeps the 2-worker servers from saturating: this is a
    // smoke test of the plumbing, not a load test.
    if (i % 64 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const FleetClientReport report = fleet.client_report();
    if (report.responses + report.dispatch_drops >= total) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

TEST(FleetRuntime, DispatchesAndHarvestsAcrossTwoServers) {
  FleetRuntime fleet(SmallFleetRuntime(FleetPolicyKind::kRoundRobin));
  fleet.RegisterType(1, "SPIN", MakeSpinHandler(), FromMicros(2), 1.0);
  fleet.Start();

  constexpr uint64_t kTotal = 600;
  SubmitAndDrain(fleet, kTotal, FromMicros(2));
  fleet.Stop();

  const FleetClientReport report = fleet.client_report();
  EXPECT_EQ(report.submitted, kTotal);
  EXPECT_EQ(report.dispatched + report.dispatch_drops, kTotal);
  // At this trivial load, effectively everything comes back; allow for
  // scheduler-side drops but require real throughput.
  EXPECT_GT(report.responses, kTotal / 2);
  EXPECT_GT(report.overall.Count(), 0u);
  // Spin time is a lower bound on client-observed latency.
  EXPECT_GE(report.latency.at(1).Min(), FromMicros(2));
}

TEST(FleetRuntime, RoundRobinSpreadsAcrossServers) {
  FleetRuntime fleet(SmallFleetRuntime(FleetPolicyKind::kRoundRobin));
  fleet.RegisterType(1, "SPIN", MakeSpinHandler(), FromMicros(1), 1.0);
  fleet.Start();
  SubmitAndDrain(fleet, 400, FromMicros(1));
  fleet.Stop();

  const FleetClientReport report = fleet.client_report();
  const uint64_t a = fleet.dispatched(0);
  const uint64_t b = fleet.dispatched(1);
  EXPECT_EQ(a + b, report.dispatched);
  // Round-robin alternates, so the split is even up to dispatch drops.
  EXPECT_LE(a > b ? a - b : b - a, report.dispatch_drops + 1);
  EXPECT_GT(a, 0u);
  EXPECT_GT(b, 0u);
}

TEST(FleetRuntime, FleetAdminPlaneServesAggregation) {
  FleetRuntimeConfig config = SmallFleetRuntime(FleetPolicyKind::kPowerOfTwo);
  config.admin.enabled = true;  // port 0 = ephemeral
  FleetRuntime fleet(config);
  fleet.RegisterType(1, "SPIN", MakeSpinHandler(), FromMicros(1), 1.0);
  fleet.Start();
  ASSERT_NE(fleet.admin(), nullptr);
  ASSERT_GT(fleet.admin_port(), 0);
  SubmitAndDrain(fleet, 200, FromMicros(1));

  const AdminResponse fleet_json =
      HttpRequest(fleet.admin_port(), "GET", "/fleet.json");
  EXPECT_EQ(fleet_json.status, 200);
  EXPECT_NE(fleet_json.headers.find("application/json"), std::string::npos);
  EXPECT_NE(fleet_json.body.find("\"policy\":\"po2c\""), std::string::npos);
  EXPECT_NE(fleet_json.body.find("\"num_servers\":2"), std::string::npos);
  EXPECT_NE(fleet_json.body.find("\"servers\":["), std::string::npos);

  const AdminResponse metrics =
      HttpRequest(fleet.admin_port(), "GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("psp_fleet_servers 2"), std::string::npos);
  EXPECT_NE(metrics.body.find("server=\"0\""), std::string::npos);
  EXPECT_NE(metrics.body.find("server=\"1\""), std::string::npos);
  EXPECT_EQ(CheckExposition(metrics.body), "");
  EXPECT_EQ(metrics.body.find("psp_fleet_fleet_"), std::string::npos);
  // The summary roll-up is the merged histogram, value for value.
  const std::string rollup =
      "\npsp_fleet_client_latency{quantile=\"0.999\"} ";
  const size_t at = metrics.body.find(rollup);
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(std::stoll(metrics.body.substr(at + rollup.size())),
            fleet.fleet_snapshot()
                .Merged()
                .histograms.at("client.latency")
                .Percentile(99.9));

  // /snapshot.json serves the merged rollup (counters summed across servers).
  const AdminResponse snapshot =
      HttpRequest(fleet.admin_port(), "GET", "/snapshot.json");
  EXPECT_EQ(snapshot.status, 200);
  EXPECT_NE(snapshot.body.find("\"counters\""), std::string::npos);
  fleet.Stop();
}

TEST(FleetRuntime, SingleNodeAdminHasNoFleetEndpoint) {
  // A plain Persephone admin plane (no fleet hooks) 404s on /fleet.json.
  AdminConfig config;
  config.enabled = true;
  AdminHooks hooks;
  hooks.snapshot = [] { return TelemetrySnapshot{}; };
  AdminServer server(config, std::move(hooks));
  ASSERT_EQ(server.Start(), "");
  EXPECT_EQ(HttpRequest(server.port(), "GET", "/fleet.json").status, 404);
  server.Stop();
}

TEST(FleetRuntime, RejectsInvalidConfig) {
  FleetRuntimeConfig bad = SmallFleetRuntime(FleetPolicyKind::kRandom);
  bad.ingress_depth = 1000;  // not a power of two
  EXPECT_THROW(FleetRuntime{bad}, std::invalid_argument);

  FleetRuntimeConfig zero = SmallFleetRuntime(FleetPolicyKind::kRandom);
  zero.num_servers = 0;
  EXPECT_THROW(FleetRuntime{zero}, std::invalid_argument);
}

TEST(FleetRuntime, OversizedPayloadIsRefusedAtSubmit) {
  FleetRuntime fleet(SmallFleetRuntime(FleetPolicyKind::kRandom));
  fleet.RegisterType(1, "SPIN", MakeSpinHandler(), FromMicros(1), 1.0);
  fleet.Start();
  std::byte big[FleetRuntime::kMaxInlinePayload + 1] = {};
  EXPECT_FALSE(fleet.Submit(1, 0, big, sizeof(big)));
  EXPECT_EQ(fleet.client_report().submitted, 0u);
  fleet.Stop();
}

}  // namespace
}  // namespace psp
