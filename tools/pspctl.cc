// pspctl: command-line client for the live introspection plane
// (src/introspect/admin.h). It reaches the endpoint only over its socket, the
// way an external scraper would, through the shared admin client
// (src/introspect/admin_client.h); the exposition validator and the
// federation merger are src/introspect/prometheus.h's.
//
// Usage:
//   pspctl [--port P | --host H:P | --uds PATH] [--out FILE] [--check] CMD
//
// Commands:
//   metrics            GET /metrics   (--check validates the exposition)
//   snapshot           GET /snapshot.json
//   fleet              GET /fleet.json (fleet endpoints only; 404 elsewhere)
//   timeseries         GET /timeseries.json
//   outliers           GET /outliers.json
//   lifecycle          GET /lifecycle.json (sampled per-request records)
//   health             GET /healthz
//   trace start        POST /trace/start   (arms an on-demand capture)
//   trace stop         POST /trace/stop    (returns the trace; use --out)
//   profile [HZ [DUR]] one-shot CPU profile: POST /profile/start?hz=HZ,
//                      wait DUR seconds locally (defaults 99 Hz, 2 s),
//                      POST /profile/stop, GET /profile.folded and print
//                      the folded stacks (use --out for flamegraph.pl).
//   profile start [HZ [DUR]] | profile stop | profile folded
//                      drive the endpoints individually (start with DUR
//                      arms the server-side auto-stop).
//   flight             POST /flightrecorder/dump
//   set KEY=VALUE...   POST /config  (e.g. set sampling=64)
//   federate H:P...    scrape /metrics from N independent server processes
//                      and merge (psp::FederateMetrics): every sample gains
//                      a server="i" label, counter families are summed into
//                      psp_fleet_* families, psp_fleet_servers counts the
//                      endpoints.
//                      --check validates the merged page.
//   checkfile FILE     run the --check exposition validator on a local file
//                      (e.g. psp_loadgen --prom output); no endpoint needed.
//
// The port defaults to $PSP_ADMIN_PORT. Exit codes: 0 success, 1 usage,
// 2 connect/transport failure or malformed HTTP response, 3 HTTP error
// status, 4 --check failed.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/introspect/admin_client.h"
#include "src/introspect/prometheus.h"

namespace {

struct Options {
  psp::AdminEndpoint endpoint;
  std::string out_file;
  bool check = false;
};

int UsageError(const char* detail) {
  std::fprintf(stderr,
               "pspctl: %s\n"
               "usage: pspctl [--port P | --host H:P | --uds PATH] "
               "[--out FILE] [--check]\n"
               "              metrics|snapshot|fleet|timeseries|outliers|"
               "lifecycle|health|flight|trace start|stop|set K=V...\n"
               "       pspctl [endpoint flags] profile [HZ [DUR_SEC]]\n"
               "       pspctl [endpoint flags] profile start [HZ [DUR]]|"
               "stop|folded\n"
               "       pspctl [--out FILE] [--check] federate HOST:PORT...\n"
               "       pspctl checkfile FILE\n",
               detail);
  return 1;
}

// A TCP port from text; 0 (unset) unless it lies in [1, 65535].
uint16_t ParsePort(const char* text) {
  const int port = std::atoi(text);
  return port > 0 && port <= 65535 ? static_cast<uint16_t>(port) : 0;
}

// Splits HOST:PORT into `endpoint`; false when there is no colon.
bool ParseHostPort(const std::string& text, psp::AdminEndpoint* endpoint) {
  const size_t colon = text.rfind(':');
  if (colon == std::string::npos) {
    return false;
  }
  endpoint->host = text.substr(0, colon);
  endpoint->port = ParsePort(text.c_str() + colon + 1);
  return true;
}

// Issues one request and fills `body`. Returns 0, or — after saying why on
// stderr — 2 for a transport failure or malformed response and 3 for an
// HTTP error status.
int Fetch(const psp::AdminEndpoint& endpoint, const std::string& method,
          const std::string& path, const std::string& payload,
          std::string* body) {
  const psp::AdminResponse response =
      psp::AdminRequest(endpoint, method, path, payload);
  const std::string where = method + " " + path;
  if (!response.ok()) {
    std::fprintf(stderr, "pspctl: %s: %s\n", where.c_str(),
                 response.error.c_str());
    return 2;
  }
  if (response.status >= 400) {
    std::fprintf(stderr, "pspctl: %s: HTTP %d: %s", where.c_str(),
                 response.status, response.body.c_str());
    return 3;
  }
  *body = response.body;
  return 0;
}

int Emit(const Options& opt, const std::string& body) {
  if (opt.out_file.empty()) {
    std::fwrite(body.data(), 1, body.size(), stdout);
    return 0;
  }
  std::ofstream out(opt.out_file, std::ios::binary);
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  if (!out) {
    std::fprintf(stderr, "pspctl: write %s failed\n", opt.out_file.c_str());
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (const char* env = std::getenv("PSP_ADMIN_PORT")) {
    opt.endpoint.port = ParsePort(env);
  }
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "pspctl: %s needs a value\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      opt.endpoint.port = ParsePort(next("--port"));
    } else if (arg == "--host") {
      if (!ParseHostPort(next("--host"), &opt.endpoint)) {
        return UsageError("--host expects HOST:PORT");
      }
    } else if (arg == "--uds") {
      opt.endpoint.uds_path = next("--uds");
    } else if (arg == "--out") {
      opt.out_file = next("--out");
    } else if (arg == "--check") {
      opt.check = true;
    } else if (arg == "--help" || arg == "-h") {
      UsageError("help");
      return 0;
    } else {
      args.push_back(arg);
    }
  }
  if (args.empty()) {
    return UsageError("missing command");
  }

  // Commands with their own endpoint story come first: checkfile is purely
  // local, federate names its endpoints as positional HOST:PORT arguments.
  if (args[0] == "checkfile") {
    if (args.size() != 2) {
      return UsageError("checkfile expects exactly one FILE argument");
    }
    std::ifstream in(args[1], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "pspctl: cannot read %s\n", args[1].c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    if (const std::string problem = psp::CheckExposition(ss.str());
        !problem.empty()) {
      std::fprintf(stderr, "pspctl: %s: malformed exposition: %s\n",
                   args[1].c_str(), problem.c_str());
      return 4;
    }
    return 0;
  }
  if (args[0] == "federate") {
    if (args.size() < 2) {
      return UsageError("federate expects one or more HOST:PORT arguments");
    }
    std::vector<std::string> pages;
    for (size_t i = 1; i < args.size(); ++i) {
      psp::AdminEndpoint endpoint;
      if (!ParseHostPort(args[i], &endpoint)) {
        return UsageError(("federate endpoint is not HOST:PORT: " + args[i])
                              .c_str());
      }
      if (endpoint.port == 0) {
        return UsageError(("bad port in endpoint: " + args[i]).c_str());
      }
      std::string body;
      if (const int rc = Fetch(endpoint, "GET", "/metrics", "", &body)) {
        return rc;
      }
      pages.push_back(std::move(body));
    }
    const std::string merged = psp::FederateMetrics(pages);
    if (opt.check) {
      if (const std::string problem = psp::CheckExposition(merged);
          !problem.empty()) {
        std::fprintf(stderr, "pspctl: malformed federated exposition: %s\n",
                     problem.c_str());
        return 4;
      }
    }
    return Emit(opt, merged);
  }

  if (opt.endpoint.uds_path.empty() && opt.endpoint.port == 0) {
    return UsageError("no endpoint: pass --port/--host/--uds or set "
                      "PSP_ADMIN_PORT");
  }

  if (args[0] == "profile") {
    // Sub-forms that map to a single endpoint fall through to the generic
    // request path below; the argument-less / numeric form is the one-shot
    // capture loop (start -> local wait -> stop -> fetch folded stacks).
    auto one_request = [&](const std::string& method, const std::string& path,
                           std::string* body) {
      return Fetch(opt.endpoint, method, path, "", body);
    };
    std::string body;
    if (args.size() >= 2 && args[1] == "stop") {
      if (const int rc = one_request("POST", "/profile/stop", &body)) {
        return rc;
      }
      return Emit(opt, body);
    }
    if (args.size() >= 2 && args[1] == "folded") {
      if (const int rc = one_request("GET", "/profile.folded", &body)) {
        return rc;
      }
      return Emit(opt, body);
    }
    const bool explicit_start = args.size() >= 2 && args[1] == "start";
    const size_t num_begin = explicit_start ? 2 : 1;
    double hz = 99.0;
    double dur_sec = 2.0;
    bool dur_given = false;
    if (args.size() > num_begin) {
      hz = std::atof(args[num_begin].c_str());
    }
    if (args.size() > num_begin + 1) {
      dur_sec = std::atof(args[num_begin + 1].c_str());
      dur_given = true;
    }
    if (hz < 1 || hz > 10000 || dur_sec < 0 || dur_sec > 3600) {
      return UsageError("profile expects HZ in [1,10000], DUR in [0,3600]");
    }
    std::string start_path =
        "/profile/start?hz=" + std::to_string(static_cast<int>(hz));
    if (explicit_start) {
      // Explicit start hands the stop to the server-side auto-stop timer
      // (when DUR is given) or to a later `pspctl profile stop`.
      if (dur_given) {
        start_path += "&dur=" + std::to_string(dur_sec);
      }
      if (const int rc = one_request("POST", start_path, &body)) {
        return rc;
      }
      return Emit(opt, body);
    }
    // One-shot: no server-side dur — this process owns the stop, so the
    // explicit /profile/stop below can never race an auto-stop into a 409.
    if (const int rc = one_request("POST", start_path, &body)) {
      return rc;
    }
    std::fprintf(stderr, "pspctl: profiling at %d Hz for %.1f s...\n",
                 static_cast<int>(hz), dur_sec);
    timespec wait{};
    wait.tv_sec = static_cast<time_t>(dur_sec);
    wait.tv_nsec =
        static_cast<long>((dur_sec - std::floor(dur_sec)) * 1e9);
    while (::nanosleep(&wait, &wait) != 0 && errno == EINTR) {
    }
    if (const int rc = one_request("POST", "/profile/stop", &body)) {
      return rc;
    }
    std::fprintf(stderr, "pspctl: %s\n", body.c_str());
    if (const int rc = one_request("GET", "/profile.folded", &body)) {
      return rc;
    }
    return Emit(opt, body);
  }

  const std::string& cmd = args[0];
  std::string method = "GET";
  std::string path;
  std::string payload;
  if (cmd == "metrics") {
    path = "/metrics";
  } else if (cmd == "snapshot") {
    path = "/snapshot.json";
  } else if (cmd == "fleet") {
    path = "/fleet.json";
  } else if (cmd == "timeseries") {
    path = "/timeseries.json";
  } else if (cmd == "outliers") {
    path = "/outliers.json";
  } else if (cmd == "lifecycle") {
    path = "/lifecycle.json";
  } else if (cmd == "health") {
    path = "/healthz";
  } else if (cmd == "flight") {
    method = "POST";
    path = "/flightrecorder/dump";
  } else if (cmd == "trace") {
    if (args.size() != 2 || (args[1] != "start" && args[1] != "stop")) {
      return UsageError("trace expects 'start' or 'stop'");
    }
    method = "POST";
    path = "/trace/" + args[1];
  } else if (cmd == "set") {
    if (args.size() < 2) {
      return UsageError("set expects KEY=VALUE arguments");
    }
    method = "POST";
    path = "/config";
    for (size_t i = 1; i < args.size(); ++i) {
      payload += args[i];
      payload += '\n';
    }
  } else {
    return UsageError(("unknown command: " + cmd).c_str());
  }

  std::string body;
  if (const int rc = Fetch(opt.endpoint, method, path, payload, &body)) {
    return rc;
  }
  if (opt.check && cmd == "metrics") {
    if (const std::string problem = psp::CheckExposition(body);
        !problem.empty()) {
      std::fprintf(stderr, "pspctl: malformed exposition: %s\n",
                   problem.c_str());
      return 4;
    }
  }
  return Emit(opt, body);
}
