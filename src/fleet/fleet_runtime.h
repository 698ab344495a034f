// FleetRuntime: N in-process Persephone instances behind one front-end
// dispatch thread — the threaded-runtime substrate of the rack-scale fleet
// layer (the sim-substrate counterpart is FleetSimulation).
//
// Topology: a client thread Submit()s typed requests into a lock-free ingress
// ring. The front-end thread drains it, asks the inter-server policy
// (src/fleet/policy.h) to pick a server, builds the wire frame (PSP header
// with the client timestamp stamped at Submit) and delivers it to that
// server's NIC RX queue. Each server runs the unmodified Perséphone pipeline
// (net worker + dispatcher + DARC + workers). The front-end also harvests
// every server's NIC egress, records client-observed per-type latency, and
// maintains the per-server outstanding-request counts the depth-aware
// policies read (refreshed on the depth_staleness grid, like the sim).
//
// Threading: Submit is single-producer (one client thread); the front-end
// thread owns dispatch + harvest + depth tracking; fleet-tier stats are
// guarded by one mutex so the admin thread can snapshot mid-run.
//
// Observability: when config.admin.enabled, a fleet-level AdminServer serves
// GET /fleet.json (FleetSnapshot::ToJson), /metrics with server="N" labels
// and psp_fleet_* roll-ups (FleetSnapshot::ToPrometheus), and /snapshot.json
// as the merged rollup.
// Per-server admin planes are forced off — the fleet endpoint is the one
// scrape surface.
#ifndef PSP_SRC_FLEET_FLEET_RUNTIME_H_
#define PSP_SRC_FLEET_FLEET_RUNTIME_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/spsc_ring.h"
#include "src/fleet/fleet_snapshot.h"
#include "src/fleet/policy.h"
#include "src/introspect/admin.h"
#include "src/net/ingress.h"
#include "src/runtime/persephone.h"

namespace psp {

struct FleetRuntimeConfig {
  uint32_t num_servers = 2;
  // Per-server template. The per-server admin plane is forced off (the fleet
  // serves one endpoint for the whole rack).
  RuntimeConfig server;
  FleetPolicyConfig policy;
  // Fleet-level admin plane (off by default).
  AdminConfig admin;
  // Submit ring depth (power of two).
  size_t ingress_depth = 4096;
  uint64_t seed = 42;

  // Empty string = valid; otherwise a description of the misconfiguration.
  std::string Validate() const;
};

// Client-observed results accumulated by the front-end harvest loop.
struct FleetClientReport {
  uint64_t submitted = 0;
  uint64_t dispatched = 0;
  uint64_t dispatch_drops = 0;  // ingress full at the chosen server / no buffer
  uint64_t responses = 0;
  std::map<TypeId, Histogram> latency;  // per type, client-observed
  Histogram overall;
};

class FleetRuntime {
 public:
  explicit FleetRuntime(FleetRuntimeConfig config);
  ~FleetRuntime();

  FleetRuntime(const FleetRuntime&) = delete;
  FleetRuntime& operator=(const FleetRuntime&) = delete;

  // --- Setup (before Start): fans out to every server ----------------------
  void RegisterType(TypeId wire_id, std::string name, RequestHandler handler,
                    Nanos expected_mean = 0, double expected_ratio = 0);

  // --- Lifecycle ------------------------------------------------------------
  void Start();
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // --- Client-facing --------------------------------------------------------
  // Enqueues one request (single producer thread). `flow_hash` feeds the
  // RSS-affinity policy and the wire flow tuple; `payload` (up to
  // kMaxInlinePayload bytes) becomes the request payload — e.g. the 8-byte
  // spin duration of the synthetic app. Returns false when the ingress ring
  // is full (open-loop drop; counted in the report as neither submitted nor
  // dispatched).
  static constexpr uint32_t kMaxInlinePayload = 16;
  bool Submit(TypeId wire_type, uint32_t flow_hash,
              const void* payload = nullptr, uint32_t payload_length = 0);

  // --- Observability --------------------------------------------------------
  FleetClientReport client_report() const;
  FleetSnapshot fleet_snapshot() const;
  uint32_t num_servers() const { return config_.num_servers; }
  Persephone& server(uint32_t i) { return *servers_[i]; }
  uint64_t dispatched(uint32_t server) const;
  // The fleet admin plane, when config.admin.enabled (nullptr otherwise).
  const AdminServer* admin() const { return admin_.get(); }
  uint16_t admin_port() const { return admin_ ? admin_->port() : 0; }

 private:
  struct SubmitEntry {
    TypeId wire_type = 0;
    uint32_t flow_hash = 0;
    uint64_t request_id = 0;
    Nanos client_timestamp = 0;
    uint32_t payload_length = 0;
    std::byte payload[kMaxInlinePayload];
  };

  void FrontEndLoop();
  // Dispatches one submitted request; stats_mu_ must be held.
  void DispatchLocked(const SubmitEntry& entry);
  // Harvests up to one egress frame from server `i`; stats_mu_ must be held.
  bool HarvestOneLocked(uint32_t i);
  // Brings depth_view_ up to the staleness contract (front-end thread only).
  void MaybeRefreshDepths(Nanos now);

  FleetRuntimeConfig config_;
  std::unique_ptr<FleetDispatchPolicy> policy_;
  std::vector<std::unique_ptr<Persephone>> servers_;
  std::vector<std::string> type_names_;  // parallel to registered wire ids
  std::vector<TypeId> type_ids_;

  // The submit ring behind the same IngressSource seam the per-server
  // runtime uses (typed SubmitEntry frames instead of packets): the client
  // pushes into ingress_.ring(), the front-end thread is the single
  // PollBurst consumer.
  RingIngressSource<SubmitEntry> ingress_;
  std::thread front_end_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};

  // Producer-side state (the single Submit caller).
  uint64_t next_request_id_ = 0;
  std::atomic<uint64_t> submitted_{0};

  // Front-end state. Depth views are plain: only the front-end touches them
  // outside the stats lock.
  Rng rng_;  // stream 1 of config.seed: policy randomness
  std::vector<int64_t> depth_view_;
  Nanos depth_refreshed_at_ = -1;
  uint64_t depth_refreshes_ = 0;

  // Fleet-tier stats: written by the front-end under stats_mu_, read by
  // snapshots from other threads.
  mutable std::mutex stats_mu_;
  std::vector<int64_t> outstanding_;
  std::vector<uint64_t> dispatched_per_server_;
  uint64_t dispatched_total_ = 0;
  uint64_t dispatch_drops_ = 0;
  uint64_t responses_ = 0;
  std::map<TypeId, Histogram> latency_;
  Histogram overall_latency_;
  // Client-observed latency split by serving server; surfaces in the fleet
  // snapshot as each server's "client.latency" histogram, so the Prometheus
  // page gets psp_client_latency{server="N"} plus the psp_fleet_client_latency
  // roll-up.
  std::vector<Histogram> server_latency_;

  std::unique_ptr<AdminServer> admin_;
};

}  // namespace psp

#endif  // PSP_SRC_FLEET_FLEET_RUNTIME_H_
