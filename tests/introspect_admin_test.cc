// End-to-end admin plane tests: a real AdminServer on an ephemeral loopback
// port (and UDS), scraped over actual sockets; then the full runtime with
// the endpoint enabled — counters move between scrapes, POST /config
// adjusts sampling live, and the outlier ring serves its JSON.
#include "src/introspect/admin.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>

#include "src/apps/synthetic.h"
#include "src/introspect/admin_client.h"
#include "src/introspect/prometheus.h"
#include "src/runtime/loadgen.h"
#include "src/runtime/persephone.h"

namespace psp {
namespace {

// One request to the loopback admin port through the shared client.
AdminResponse HttpRequest(uint16_t port, const std::string& method,
                          const std::string& path,
                          const std::string& body = "") {
  return AdminRequest(AdminEndpoint{"127.0.0.1", port, ""}, method, path,
                      body);
}

// A one-shot loopback peer: accepts one connection, reads the request head,
// answers `reply` verbatim and closes. Returns its port (0 on failure).
uint16_t ServeOnce(const std::string& reply, std::thread* thread) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (listener < 0 ||
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
      ::listen(listener, 1) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  *thread = std::thread([listener, reply] {
    const int fd = ::accept(listener, nullptr, nullptr);
    std::string request;
    char chunk[512];
    ssize_t n;
    while (request.find("\r\n\r\n") == std::string::npos &&
           (n = ::read(fd, chunk, sizeof(chunk))) > 0) {
      request.append(chunk, static_cast<size_t>(n));
    }
    EXPECT_EQ(::write(fd, reply.data(), reply.size()),
              static_cast<ssize_t>(reply.size()));
    ::close(fd);
    ::close(listener);
  });
  return ntohs(addr.sin_port);
}

// The status line must be `HTTP/<d>.<d> <3 digits> `: a reply without one,
// or with a non-numeric code, is malformed — never a misread status.
TEST(AdminClient, RejectsMalformedStatusLine) {
  for (const std::string reply :
       {"HTTP/1.1\r\nX: y\r\n\r\nbody", "HTTP/1.1 5xx Oops\r\n\r\nbody",
        "HTTP/1.1 20 OK\r\n\r\n", "ok\r\n\r\n", "HTTP/1.1 200 OK\r\n"}) {
    std::thread peer;
    const uint16_t port = ServeOnce(reply, &peer);
    ASSERT_GT(port, 0);
    const AdminResponse response = HttpRequest(port, "GET", "/healthz");
    peer.join();
    EXPECT_EQ(response.error, "malformed HTTP response") << reply;
    EXPECT_EQ(response.status, 0) << reply;
  }
}

TEST(AdminClient, SplitsStatusHeadersAndBody) {
  std::thread peer;
  const uint16_t port = ServeOnce(
      "HTTP/1.0 503 Service Unavailable\r\nA: 1\r\nB: 2\r\n\r\n"
      "busy\r\n\r\n",
      &peer);
  ASSERT_GT(port, 0);
  const AdminResponse response = HttpRequest(port, "GET", "/healthz");
  peer.join();
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(response.status, 503);
  EXPECT_EQ(response.headers, "A: 1\r\nB: 2");
  EXPECT_EQ(response.body, "busy\r\n\r\n");
}

TEST(AdminServer, ServesMetricsSnapshotAndHealth) {
  AdminConfig config;
  config.enabled = true;  // port 0 = ephemeral
  AdminHooks hooks;
  hooks.snapshot = [] {
    TelemetrySnapshot snap;
    snap.counters["test.counter"] = 5;
    return snap;
  };
  AdminServer server(config, hooks);
  ASSERT_EQ(server.Start(), "");
  ASSERT_GT(server.port(), 0);

  const AdminResponse metrics = HttpRequest(server.port(), "GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("psp_test_counter_total 5"),
            std::string::npos);
  EXPECT_NE(metrics.headers.find("text/plain; version=0.0.4"),
            std::string::npos);

  const AdminResponse snapshot =
      HttpRequest(server.port(), "GET", "/snapshot.json");
  EXPECT_EQ(snapshot.status, 200);
  EXPECT_NE(snapshot.body.find("\"test.counter\""), std::string::npos);

  const AdminResponse timeseries =
      HttpRequest(server.port(), "GET", "/timeseries.json");
  EXPECT_EQ(timeseries.status, 200);

  const AdminResponse health = HttpRequest(server.port(), "GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  // Unknown path and unhooked endpoints.
  EXPECT_EQ(HttpRequest(server.port(), "GET", "/nope").status, 404);
  EXPECT_EQ(HttpRequest(server.port(), "GET", "/outliers.json").status, 404);
  EXPECT_EQ(HttpRequest(server.port(), "POST", "/trace/start").status, 501);
  EXPECT_EQ(HttpRequest(server.port(), "PUT", "/metrics").status, 405);
  EXPECT_GE(server.requests_served(), 8u);
  server.Stop();
  EXPECT_FALSE(server.running());
}

// The 405 body echoes the client-supplied method inside a JSON string, so a
// hostile method token carrying control bytes must come back escaped: the
// body stays valid JSON (no raw byte below 0x20 inside the object).
TEST(AdminServer, MethodNotAllowedEscapesControlBytes) {
  AdminConfig config;
  config.enabled = true;
  AdminHooks hooks;
  hooks.snapshot = [] { return TelemetrySnapshot{}; };
  AdminServer server(config, hooks);
  ASSERT_EQ(server.Start(), "");
  const AdminResponse response =
      HttpRequest(server.port(), "\x01X", "/healthz");
  server.Stop();
  EXPECT_EQ(response.status, 405);
  std::string body = response.body;
  ASSERT_FALSE(body.empty());
  ASSERT_EQ(body.back(), '\n');  // the line terminator after the object
  body.pop_back();
  for (const char c : body) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20)
        << "raw control byte in 405 body: " << body;
  }
  EXPECT_EQ(body, "{\"error\":\"method not allowed: \\u0001X\"}");
}

TEST(AdminServer, UnixDomainSocketListener) {
  AdminConfig config;
  config.enabled = true;
  config.listen_tcp = false;
  config.uds_path = ::testing::TempDir() + "/psp_admin_test.sock";
  AdminHooks hooks;
  hooks.snapshot = [] { return TelemetrySnapshot{}; };
  AdminServer server(config, hooks);
  ASSERT_EQ(server.Start(), "");
  EXPECT_EQ(server.port(), 0);  // no TCP listener

  AdminEndpoint endpoint;
  endpoint.uds_path = config.uds_path;
  EXPECT_EQ(AdminRequest(endpoint, "GET", "/healthz").status, 200);
  server.Stop();
  // Stop removes the socket file.
  EXPECT_NE(::access(config.uds_path.c_str(), F_OK), 0);
}

TEST(AdminServer, ConfigPostValidation) {
  AdminConfig config;
  config.enabled = true;
  AdminHooks hooks;
  hooks.snapshot = [] { return TelemetrySnapshot{}; };
  hooks.set_config = [](const std::string& key, const std::string& value) {
    if (key == "good") {
      return std::string();
    }
    return "unknown key " + key + "=" + value;
  };
  AdminServer server(config, hooks);
  ASSERT_EQ(server.Start(), "");

  EXPECT_EQ(HttpRequest(server.port(), "POST", "/config", "good=1").status,
            200);
  EXPECT_EQ(
      HttpRequest(server.port(), "POST", "/config", "good=1\nbad=2").status,
      400);
  EXPECT_EQ(HttpRequest(server.port(), "POST", "/config", "").status, 400);
  EXPECT_EQ(HttpRequest(server.port(), "POST", "/config", "noequals").status,
            400);
  server.Stop();
}

// The full loop: runtime with the admin plane on, real load, two scrapes
// observing progress, live sampling adjustment, outliers and trace capture.
TEST(AdminServer, RuntimeEndToEnd) {
  RuntimeConfig config;
  config.num_workers = 2;
  config.telemetry.sample_every = 2;
  config.telemetry.timeseries.enabled = true;
  config.telemetry.timeseries.interval = 10 * kMillisecond;
  config.admin.enabled = true;  // ephemeral port
  config.outliers.enabled = true;
  config.outliers.k = 4;
  Persephone server(config);
  server.RegisterType(1, "SPIN", MakeSpinHandler(), FromMicros(5), 1.0);
  server.Start();
  const uint16_t port = server.admin_port();
  ASSERT_GT(port, 0);

  // Scrape an idle server: liveness marker present, exposition well formed.
  const std::string before = HttpRequest(port, "GET", "/metrics").body;
  EXPECT_NE(before.find("psp_up 1"), std::string::npos);

  // Arm a trace capture, then drive load.
  EXPECT_EQ(HttpRequest(port, "POST", "/trace/start").status, 200);
  // Double-arm is a 409.
  EXPECT_EQ(HttpRequest(port, "POST", "/trace/start").status, 409);

  LoadGenConfig lg;
  lg.rate_rps = 4000;
  lg.total_requests = 400;
  LoadGenerator gen(&server, {MakeSpinSpec(1, "SPIN", 1.0, FromMicros(5))},
                    lg);
  gen.Run();

  // Counters moved between scrapes.
  const std::string after = HttpRequest(port, "GET", "/metrics").body;
  EXPECT_NE(after.find("psp_runtime_rx_packets_total 400"),
            std::string::npos)
      << after.substr(0, 2000);

  // Live sampling change through POST /config.
  EXPECT_EQ(HttpRequest(port, "POST", "/config", "sampling=8").status, 200);
  EXPECT_EQ(server.telemetry().sample_every(), 8u);
  EXPECT_EQ(HttpRequest(port, "POST", "/config", "sampling=x").status, 400);

  // Outliers captured with full stage breakdowns.
  const std::string outliers =
      HttpRequest(port, "GET", "/outliers.json").body;
  EXPECT_NE(outliers.find("\"name\":\"SPIN\""), std::string::npos);
  EXPECT_NE(outliers.find("\"stages\""), std::string::npos);
  EXPECT_GT(server.outliers()->offered(), 0u);

  // Stop the capture: a catapult trace with events comes back.
  const AdminResponse trace = HttpRequest(port, "POST", "/trace/stop");
  EXPECT_EQ(trace.status, 200);
  EXPECT_NE(trace.body.find("\"traceEvents\""), std::string::npos);
  // Stopping again without re-arming is a 409.
  EXPECT_EQ(HttpRequest(port, "POST", "/trace/stop").status, 409);

  // Flight record on demand.
  const AdminResponse flight =
      HttpRequest(port, "POST", "/flightrecorder/dump");
  EXPECT_EQ(flight.status, 200);
  EXPECT_FALSE(flight.body.empty());

  server.Stop();
  // The endpoint is down after Stop().
  EXPECT_FALSE(HttpRequest(port, "GET", "/healthz").ok());
}

}  // namespace
}  // namespace psp
