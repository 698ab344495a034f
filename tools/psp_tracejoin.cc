// psp_tracejoin: joins the client and server halves of a sampled
// distributed trace into one Perfetto/catapult file.
//
//   psp_tracejoin --client report.json [--server lifecycle.json]
//                 [--admin HOST:PORT] --out trace.json
//
// --client takes the psp_loadgen --json report (run the loadgen with
// --sample N so it contains "samples"). The server half comes from a file
// (--server, a saved /lifecycle.json body, e.g. `pspctl lifecycle --out f`)
// or straight from a live admin endpoint (--admin fetches /lifecycle.json).
// The tool estimates the client↔server clock offset by min-one-way-delay
// alignment, joins on (client_id, request_id), and writes a trace where
// each sampled request decomposes into client-queue → wire-out → the
// server's seven lifecycle stages → wire-back.
//
// Exit codes: 0 success, 1 usage, 2 I/O or transport failure, 3 malformed
// input, 4 join produced no spans (the trace file is still written).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/introspect/admin_client.h"
#include "src/introspect/tracejoin.h"

namespace {

int Usage(const char* detail) {
  std::fprintf(stderr,
               "psp_tracejoin: %s\n"
               "usage: psp_tracejoin --client REPORT.json "
               "[--server LIFECYCLE.json | --admin HOST:PORT] "
               "--out TRACE.json\n",
               detail);
  return 1;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string client_path;
  std::string server_path;
  psp::AdminEndpoint admin;
  std::string out_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "psp_tracejoin: %s needs a value\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--client") {
      client_path = next("--client");
    } else if (arg == "--server") {
      server_path = next("--server");
    } else if (arg == "--admin") {
      const std::string hp = next("--admin");
      const size_t colon = hp.rfind(':');
      if (colon == std::string::npos) {
        return Usage("--admin expects HOST:PORT");
      }
      admin.host = hp.substr(0, colon);
      const int port = std::atoi(hp.c_str() + colon + 1);
      admin.port = port > 0 && port <= 65535 ? static_cast<uint16_t>(port) : 0;
    } else if (arg == "--out") {
      out_path = next("--out");
    } else {
      return Usage(("unknown argument: " + arg).c_str());
    }
  }
  if (client_path.empty() || out_path.empty()) {
    return Usage("--client and --out are required");
  }
  if (server_path.empty() && admin.port == 0) {
    return Usage("need a server half: --server FILE or --admin HOST:PORT");
  }

  std::string client_json;
  if (!ReadFile(client_path, &client_json)) {
    std::fprintf(stderr, "psp_tracejoin: cannot read %s\n",
                 client_path.c_str());
    return 2;
  }
  std::string server_json;
  if (!server_path.empty()) {
    if (!ReadFile(server_path, &server_json)) {
      std::fprintf(stderr, "psp_tracejoin: cannot read %s\n",
                   server_path.c_str());
      return 2;
    }
  } else {
    const psp::AdminResponse response =
        psp::AdminRequest(admin, "GET", "/lifecycle.json");
    if (!response.ok() || response.status != 200) {
      const std::string why =
          response.ok() ? "HTTP " + std::to_string(response.status)
                        : response.error;
      std::fprintf(stderr, "psp_tracejoin: fetch lifecycle: %s\n",
                   why.c_str());
      return 2;
    }
    server_json = response.body;
  }

  std::vector<psp::ClientTraceRecord> client;
  std::vector<psp::ServerTraceRecord> server;
  std::string error;
  if (!psp::ParseClientSamplesJson(client_json, &client, &error)) {
    std::fprintf(stderr, "psp_tracejoin: client report: %s\n", error.c_str());
    return 3;
  }
  if (!psp::ParseLifecycleJson(server_json, &server, &error)) {
    std::fprintf(stderr, "psp_tracejoin: lifecycle: %s\n", error.c_str());
    return 3;
  }

  const psp::ClockOffsetEstimate clocks = psp::EstimateClockOffset(client);
  psp::JoinStats stats;
  const std::vector<psp::JoinedSpan> spans =
      psp::JoinTraces(client, server, &stats);
  const std::string trace = psp::ExportJoinedTrace(spans, clocks);

  std::ofstream out(out_path, std::ios::binary);
  out.write(trace.data(), static_cast<std::streamsize>(trace.size()));
  if (!out) {
    std::fprintf(stderr, "psp_tracejoin: write %s failed\n", out_path.c_str());
    return 2;
  }

  std::fprintf(stderr,
               "joined %zu spans (%zu client-only, %zu server-only, "
               "%zu duplicate keys) from %zu client / %zu server records\n",
               stats.joined, stats.client_only, stats.server_only,
               stats.duplicate_keys, client.size(), server.size());
  if (clocks.valid) {
    std::fprintf(stderr,
                 "clock offset (server - client): %lld ns "
                 "(± %lld ns, %zu samples)\n",
                 static_cast<long long>(clocks.offset),
                 static_cast<long long>(clocks.uncertainty), clocks.samples);
  } else {
    std::fprintf(stderr, "clock offset: no usable samples\n");
  }
  return stats.joined > 0 ? 0 : 4;
}
