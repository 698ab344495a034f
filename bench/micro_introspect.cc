// Scrape-under-load bench: the admin plane must be able to serve a 10 Hz
// Prometheus scraper without disturbing the data path. Runs the same
// open-loop spin workload against a live runtime in interleaved rounds —
// scraper idle vs. scraping GET /metrics every 100 ms — and compares the
// client-observed p99 (min across rounds per variant, robust to shared-box
// noise the same way micro_telemetry's min-of-batches is). Acceptance: the
// scraped p99 stays within 5% of baseline.
//
// Env: PSP_BENCH_REQUESTS (per round, default 20000), PSP_BENCH_ROUNDS
// (default 5), PSP_BENCH_JSON=1 (emit a JSON result line for
// scripts/bench_report.sh).
// Exit codes: 0 ok, 1 gate breach, 2 operational failure (no scrapes landed
// or malformed exposition).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "src/apps/synthetic.h"
#include "src/introspect/admin_client.h"
#include "src/runtime/loadgen.h"
#include "src/runtime/persephone.h"

namespace psp {
namespace {

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0'
             ? std::strtoull(value, nullptr, 10)
             : fallback;
}

int Main() {
  const uint64_t requests = EnvOr("PSP_BENCH_REQUESTS", 20000);
  const int rounds = static_cast<int>(EnvOr("PSP_BENCH_ROUNDS", 5));
  const bool json = EnvOr("PSP_BENCH_JSON", 0) != 0;

  RuntimeConfig config;
  config.num_workers = 2;
  config.telemetry.sample_every = 64;
  config.telemetry.timeseries.enabled = true;
  config.telemetry.timeseries.interval = 50 * kMillisecond;
  config.admin.enabled = true;  // ephemeral loopback port
  config.outliers.enabled = true;
  config.outliers.k = 8;
  Persephone server(config);
  server.RegisterType(1, "SPIN", MakeSpinHandler(), FromMicros(5), 1.0);
  server.Start();
  const uint16_t port = server.admin_port();

  // 10 Hz scraper, gated by `armed` so the idle variant shares the thread's
  // scheduling footprint and differs only in the scrapes themselves.
  std::atomic<bool> armed{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scrapes{0};
  std::atomic<uint64_t> bad_scrapes{0};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      if (!armed.load(std::memory_order_acquire)) {
        continue;
      }
      const AdminResponse scrape =
          AdminRequest(AdminEndpoint{"127.0.0.1", port, ""}, "GET", "/metrics");
      if (scrape.ok() && scrape.body.find("psp_up 1") != std::string::npos) {
        scrapes.fetch_add(1, std::memory_order_relaxed);
      } else {
        bad_scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  auto run_round = [&](bool scraped, uint64_t seed) {
    armed.store(scraped, std::memory_order_release);
    LoadGenConfig lg;
    lg.rate_rps = 20000;
    lg.total_requests = requests;
    lg.seed = seed;
    LoadGenerator gen(&server, {MakeSpinSpec(1, "SPIN", 1.0, FromMicros(5))},
                      lg);
    const LoadGenReport report = gen.Run();
    armed.store(false, std::memory_order_release);
    return static_cast<double>(report.overall.Percentile(0.99));
  };

  // Warm-up round (TSC calibration, allocator, code paths) — not measured.
  run_round(false, 1);

  double base_p99 = 1e18;
  double scraped_p99 = 1e18;
  for (int round = 0; round < rounds; ++round) {
    base_p99 = std::min(base_p99,
                        run_round(false, 100 + static_cast<uint64_t>(round)));
    scraped_p99 = std::min(
        scraped_p99, run_round(true, 200 + static_cast<uint64_t>(round)));
  }

  stop.store(true, std::memory_order_release);
  scraper.join();
  server.Stop();

  const double delta_pct = (scraped_p99 - base_p99) / base_p99 * 100.0;
  const uint64_t total_scrapes = scrapes.load();
  const uint64_t failed = bad_scrapes.load();

  std::printf("# scrape-under-load, %d rounds x %" PRIu64
              " requests per variant, 10 Hz GET /metrics\n",
              rounds, requests);
  std::printf("%-24s %10.0f ns\n", "p99 (scraper idle)", base_p99);
  std::printf("%-24s %10.0f ns  (delta %+.2f%%)\n", "p99 (10 Hz scrape)",
              scraped_p99, delta_pct);
  std::printf("%-24s %10" PRIu64 " ok, %" PRIu64 " failed\n", "scrapes",
              total_scrapes, failed);
  if (json) {
    std::printf("{\"p99_base_nanos\":%.0f,\"p99_scraped_nanos\":%.0f,"
                "\"delta_pct\":%.3f,\"scrapes\":%" PRIu64
                ",\"bad_scrapes\":%" PRIu64 "}\n",
                base_p99, scraped_p99, delta_pct, total_scrapes, failed);
  }

  if (total_scrapes == 0 || failed > 0) {
    std::printf("scrape-check: FAIL (%" PRIu64 " ok, %" PRIu64 " failed)\n",
                total_scrapes, failed);
    return 2;
  }
  const bool ok = delta_pct < 5.0;
  std::printf("scrape-overhead-check: %s (%+.2f%% < 5%%)\n",
              ok ? "PASS" : "FAIL", delta_pct);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace psp

int main() { return psp::Main(); }
