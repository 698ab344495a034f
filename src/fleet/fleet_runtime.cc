#include "src/fleet/fleet_runtime.h"

#include <cstring>
#include <stdexcept>

#include "src/net/packet.h"

namespace psp {

std::string FleetRuntimeConfig::Validate() const {
  if (num_servers == 0) {
    return "fleet runtime: num_servers must be >= 1";
  }
  if (ingress_depth == 0 || (ingress_depth & (ingress_depth - 1)) != 0) {
    return "fleet runtime: ingress_depth must be a power of two";
  }
  const std::string policy_error = policy.Validate();
  if (!policy_error.empty()) {
    return policy_error;
  }
  return admin.Validate();
}

namespace {

// Validation must precede member construction: the ingress ring terminates on
// a non-power-of-two depth, so the config is checked before it is built.
FleetRuntimeConfig ValidatedFleetConfig(FleetRuntimeConfig config) {
  const std::string error = config.Validate();
  if (!error.empty()) {
    throw std::invalid_argument(error);
  }
  return config;
}

}  // namespace

FleetRuntime::FleetRuntime(FleetRuntimeConfig config)
    : config_(ValidatedFleetConfig(std::move(config))),
      policy_(FleetDispatchPolicy::Create(config_.policy,
                                          config_.num_servers)),
      ingress_(config_.ingress_depth, /*yield_on_idle=*/true),
      rng_(Rng::StreamSeed(config_.seed, 1)),
      depth_view_(config_.num_servers, 0),
      outstanding_(config_.num_servers, 0),
      dispatched_per_server_(config_.num_servers, 0),
      server_latency_(config_.num_servers) {
  servers_.reserve(config_.num_servers);
  for (uint32_t i = 0; i < config_.num_servers; ++i) {
    RuntimeConfig server_config = config_.server;
    // One scrape surface for the rack: the fleet admin plane.
    server_config.admin = AdminConfig{};
    servers_.push_back(std::make_unique<Persephone>(server_config));
  }
}

FleetRuntime::~FleetRuntime() { Stop(); }

void FleetRuntime::RegisterType(TypeId wire_id, std::string name,
                                RequestHandler handler, Nanos expected_mean,
                                double expected_ratio) {
  for (auto& server : servers_) {
    server->RegisterType(wire_id, name, handler, expected_mean,
                         expected_ratio);
  }
  type_ids_.push_back(wire_id);
  type_names_.push_back(std::move(name));
}

void FleetRuntime::Start() {
  if (running()) {
    return;
  }
  stop_.store(false, std::memory_order_release);
  for (auto& server : servers_) {
    server->Start();
  }
  front_end_ = std::thread([this] { FrontEndLoop(); });
  if (config_.admin.enabled) {
    AdminHooks hooks;
    hooks.snapshot = [this] { return fleet_snapshot().Merged(); };
    hooks.metrics_text = [this] { return fleet_snapshot().ToPrometheus(); };
    hooks.fleet_json = [this] { return fleet_snapshot().ToJson(); };
    admin_ = std::make_unique<AdminServer>(config_.admin, std::move(hooks));
    const std::string error = admin_->Start();
    if (!error.empty()) {
      admin_.reset();
    }
  }
  running_.store(true, std::memory_order_release);
}

void FleetRuntime::Stop() {
  if (!running()) {
    return;
  }
  stop_.store(true, std::memory_order_release);
  if (front_end_.joinable()) {
    front_end_.join();
  }
  if (admin_) {
    admin_->Stop();
    admin_.reset();
  }
  for (auto& server : servers_) {
    server->Stop();
  }
  running_.store(false, std::memory_order_release);
}

bool FleetRuntime::Submit(TypeId wire_type, uint32_t flow_hash,
                          const void* payload, uint32_t payload_length) {
  SubmitEntry entry;
  entry.wire_type = wire_type;
  entry.flow_hash = flow_hash;
  entry.request_id = next_request_id_;
  entry.client_timestamp = TscClock::Global().Now();
  if (payload != nullptr && payload_length > 0) {
    if (payload_length > kMaxInlinePayload) {
      return false;
    }
    entry.payload_length = payload_length;
    std::memcpy(entry.payload, payload, payload_length);
  }
  if (!ingress_.ring().TryPush(entry)) {
    return false;
  }
  ++next_request_id_;
  submitted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void FleetRuntime::MaybeRefreshDepths(Nanos now) {
  if (!policy_->uses_depths()) {
    return;
  }
  const Nanos staleness = config_.policy.depth_staleness;
  if (staleness <= 0) {
    depth_view_ = outstanding_;
    ++depth_refreshes_;
    return;
  }
  const Nanos grid = now - now % staleness;
  if (grid > depth_refreshed_at_) {
    depth_view_ = outstanding_;
    depth_refreshed_at_ = grid;
    ++depth_refreshes_;
  }
}

void FleetRuntime::DispatchLocked(const SubmitEntry& entry) {
  MaybeRefreshDepths(TscClock::Global().Now());
  const FleetDepths depths{depth_view_.data(), config_.num_servers};
  const uint32_t pick = policy_->Pick(entry.flow_hash, rng_, depths);
  // The dispatcher always knows its own dispatches: the staleness bound only
  // blurs completion information (prevents herding within a grid period).
  ++depth_view_[pick];
  Persephone& server = *servers_[pick];

  std::byte* buf = server.pool().AllocGlobal();
  if (buf == nullptr) {
    ++dispatch_drops_;
    return;
  }
  RequestFrame frame;
  frame.flow = FlowTuple{
      0x0A000000u | (entry.flow_hash & 0xFFu), 0x0A0000FF,
      static_cast<uint16_t>(1024 + ((entry.flow_hash >> 8) % 60000)), 6789};
  frame.request_type = entry.wire_type;
  frame.request_id = entry.request_id;
  frame.client_id = 1;
  frame.client_timestamp = entry.client_timestamp;
  frame.payload = entry.payload;
  frame.payload_length = entry.payload_length;
  const uint32_t len =
      BuildRequestPacket(frame, buf, server.pool().buffer_size());
  if (len == 0 || !server.nic().DeliverToQueue(0, PacketRef{buf, len})) {
    server.pool().FreeGlobal(buf);
    ++dispatch_drops_;
    return;
  }
  ++outstanding_[pick];
  ++dispatched_per_server_[pick];
  ++dispatched_total_;
}

bool FleetRuntime::HarvestOneLocked(uint32_t i) {
  PacketRef pkt;
  if (!servers_[i]->nic().PollEgress(&pkt)) {
    return false;
  }
  const Nanos now = TscClock::Global().Now();
  const auto parsed = ParseRequestPacket(pkt.data, pkt.length);
  if (parsed.has_value()) {
    const Nanos latency = now - parsed->psp.client_timestamp;
    latency_[parsed->psp.request_type].Add(latency);
    overall_latency_.Add(latency);
    server_latency_[i].Add(latency);
    ++responses_;
    --outstanding_[i];
  }
  servers_[i]->pool().FreeGlobal(pkt.data);
  return true;
}

void FleetRuntime::FrontEndLoop() {
  constexpr size_t kBurst = 16;
  SubmitEntry batch[kBurst];
  while (!stop_.load(std::memory_order_acquire)) {
    bool did_work = false;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      const size_t n = ingress_.PollBurst(batch, kBurst);
      for (size_t i = 0; i < n; ++i) {
        DispatchLocked(batch[i]);
      }
      did_work = n > 0;
      for (uint32_t i = 0; i < config_.num_servers; ++i) {
        for (size_t h = 0; h < kBurst && HarvestOneLocked(i); ++h) {
          did_work = true;
        }
      }
    }
    if (!did_work) {
      ingress_.IdleHint();
    }
  }
  // Final sweep so responses in flight at stop time still count.
  std::lock_guard<std::mutex> lock(stats_mu_);
  for (uint32_t i = 0; i < config_.num_servers; ++i) {
    while (HarvestOneLocked(i)) {
    }
  }
}

FleetClientReport FleetRuntime::client_report() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  FleetClientReport report;
  report.submitted = submitted_.load(std::memory_order_relaxed);
  report.dispatched = dispatched_total_;
  report.dispatch_drops = dispatch_drops_;
  report.responses = responses_;
  report.latency = latency_;
  report.overall = overall_latency_;
  return report;
}

uint64_t FleetRuntime::dispatched(uint32_t server) const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return dispatched_per_server_[server];
}

FleetSnapshot FleetRuntime::fleet_snapshot() const {
  FleetSnapshot snap;
  snap.policy = policy_->Name();
  std::vector<Histogram> server_latency;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    server_latency = server_latency_;
    snap.counters["fleet.submitted"] =
        submitted_.load(std::memory_order_relaxed);
    snap.counters["fleet.dispatched"] = dispatched_total_;
    snap.counters["fleet.dispatch_drops"] = dispatch_drops_;
    snap.counters["fleet.responses"] = responses_;
    snap.counters["fleet.depth_refreshes"] = depth_refreshes_;
    snap.gauges["fleet.num_servers"] = config_.num_servers;
    for (uint32_t i = 0; i < config_.num_servers; ++i) {
      const std::string key = "fleet.server." + std::to_string(i);
      snap.counters[key + ".dispatched"] = dispatched_per_server_[i];
      snap.gauges[key + ".outstanding"] = outstanding_[i];
    }
  }
  snap.servers.reserve(servers_.size());
  for (uint32_t i = 0; i < servers_.size(); ++i) {
    snap.servers.push_back(servers_[i]->telemetry_snapshot());
    snap.servers.back().histograms["client.latency"] =
        server_latency[i];
  }
  return snap;
}

}  // namespace psp
