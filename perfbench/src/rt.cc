// rt_ring and rt_udp: the threaded Perséphone runtime (one dispatcher, one
// worker, DARC over two 1 µs spin types) driven by the benchmark's own
// open-loop generator. Every request carries its *due* instant in
// client_timestamp, so generator stalls show up as latency instead of
// hiding, and every response must echo its spin duration and token.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/layers.h"
#include "perfbench/src/workloads.h"
#include "src/common/rng.h"
#include "src/net/packet.h"
#include "src/runtime/persephone.h"
#include "src/runtime/spin_work.h"
#include "src/sim/workload.h"

namespace perfbench {
namespace {

using psp::Nanos;

constexpr Nanos kSpin = psp::kMicrosecond;
constexpr psp::TypeId kTypes[2] = {1, 2};
// The generator thread's core: on the ring path the server pins its
// dispatcher to core 0 and its worker to core 1.
constexpr uint32_t kGeneratorCore = 2;
constexpr double kWarmupShare = 0.1;
// Saturating phase: outstanding requests kept in flight, far above what one
// worker drains between two dispatcher polls, far below every queue bound.
constexpr uint32_t kSaturationWindow = 256;
// Share of rt_ring's window spent in the open-loop phase (the rest
// saturates).
constexpr double kFixedShare = 0.65;
// Longest traced measurement (spans for every request stay in memory), and
// the completion rate one worker is not expected to exceed, for sizing them.
constexpr double kTracedSeconds = 3.0;
constexpr double kSaturatedRpsCeiling = 500000;
// Slices the open-loop percentiles and the goodput are taken over. Host
// interference only ever makes a slice slower, so the reported figure is
// the quiet quartile of the slices (the 25th percentile of the slice
// latencies, the 75th of the slice goodputs): a stalled stretch of the run
// spoils the slices it hits, not the figure.
constexpr Nanos kLatencySlice = 500 * psp::kMillisecond;
constexpr Nanos kGoodputBucket = 250 * psp::kMillisecond;
constexpr double kQuietQuartile = 25;
// A saturating-phase request unanswered this long was dropped by the server
// (its counters say so); it stops holding a slot of the window.
constexpr Nanos kInFlightExpiry = 20 * psp::kMillisecond;
// A phase's drain gives up this long after the last response.
constexpr Nanos kDrainIdle = 200 * psp::kMillisecond;

struct RtWorkload {
  const char* name;
  bool udp;
  double fixed_rps;
  bool saturate;
  uint32_t busy_threads;  // for the host-noise probe
};

// Request payload, echoed verbatim by the handler after spinning.
struct Payload {
  uint64_t spin_ns;
  uint64_t token;
};

uint64_t Token(uint64_t seed, uint64_t id) {
  psp::SplitMix64 mix(seed * 0x9E3779B97F4A7C15ULL + id);
  return mix.Next();
}

uint32_t SpinHandler(const std::byte* payload, uint32_t length,
                     std::byte* response, uint32_t capacity) {
  Payload p{};
  if (length < sizeof(p) || capacity < sizeof(p)) {
    return 0;
  }
  std::memcpy(&p, payload, sizeof(p));
  psp::SpinFor(static_cast<Nanos>(p.spin_ns));
  std::memcpy(response, &p, sizeof(p));
  return sizeof(p);
}

std::unique_ptr<psp::Persephone> MakeServer(const RtWorkload& w) {
  static const uint16_t kCtor = SpanName("runtime.ctor");
  static const uint16_t kRegister = SpanName("runtime.register_type");
  static const uint16_t kStart = SpanName("runtime.start");
  psp::RuntimeConfig config;
  config.num_workers = 1;
  config.scheduler.mode = psp::PolicyMode::kDarc;
  // Deep enough that the burst a generator sends after the host stalls it
  // for up to ~25 ms fits in the rings instead of being dropped.
  config.nic_queue_depth = 4096;
  config.yield_when_idle = false;
  if (w.udp) {
    config.ingress.mode = psp::IngressMode::kUdp;
    config.ingress.listen_port = 0;
    config.ingress.poll.policy = psp::PollPolicy::kAdaptive;
    // The runtime's core map would pin the UDP net worker onto the
    // dispatcher's core; unpinned, the four threads spread over the cores.
    config.pin_threads = false;
  } else {
    config.pin_threads = true;
  }
  std::unique_ptr<psp::Persephone> server;
  {
    Span s(kCtor);
    server = std::make_unique<psp::Persephone>(config);
  }
  for (const psp::TypeId t : kTypes) {
    Span s(kRegister);
    server->RegisterType(t, t == kTypes[0] ? "spin_a" : "spin_b", SpinHandler,
                         kSpin, 0.5);
  }
  {
    Span s(kStart);
    server->Start();
  }
  return server;
}

void StopServer(psp::Persephone* server) {
  static const uint16_t kStop = SpanName("runtime.stop");
  Span s(kStop);
  server->Stop();
}

// One parsed response.
struct Response {
  bool parsed = false;
  uint64_t id = 0;
  uint32_t type = 0;
  Nanos client_timestamp = 0;
  Payload payload{};
  Nanos received = 0;
};

// The client side of one transport.
enum class SendResult {
  kSent,     // handed to the server
  kDropped,  // the server's ingress refused it (and counted the drop)
  kRefused,  // the client could not hand it to the transport at all
};

class Client {
 public:
  virtual ~Client() = default;
  virtual SendResult Send(const psp::RequestFrame& frame, uint32_t id) = 0;
  // Up to max_n responses; 0 when none is pending.
  virtual size_t Poll(Response* out, size_t max_n) = 0;
};

bool ParseResponse(const std::byte* frame, uint32_t length, Nanos now,
                   Response* out) {
  static const uint16_t kParse = SpanName("net.parse");
  std::optional<psp::ParsedRequest> parsed;
  {
    Span s(kParse);
    parsed = psp::ParseRequestPacket(frame, length);
  }
  out->received = now;
  out->parsed = parsed.has_value() && parsed->payload_length == sizeof(Payload);
  if (out->parsed) {
    out->id = parsed->psp.request_id;
    out->type = parsed->psp.request_type;
    out->client_timestamp = parsed->psp.client_timestamp;
    std::memcpy(&out->payload, parsed->payload, sizeof(Payload));
  }
  return out->parsed;
}

// In-process ring: frames in pool buffers, delivered to NIC RX queue 0,
// responses drained from the NIC egress ring.
class RingClient final : public Client {
 public:
  explicit RingClient(psp::Persephone* server)
      : server_(server), cache_(&server->pool()) {}

  SendResult Send(const psp::RequestFrame& frame, uint32_t id) override {
    static const uint16_t kBuild = SpanName("net.build");
    static const uint16_t kDeliver = SpanName("net.nic_deliver");
    std::byte* buf = cache_.Alloc();
    if (buf == nullptr) {
      return SendResult::kRefused;
    }
    uint32_t len = 0;
    {
      Span s(kBuild, id);
      len = psp::BuildRequestPacket(frame, buf, server_->pool().buffer_size());
    }
    bool delivered = false;
    {
      Span s(kDeliver, id);
      delivered = server_->nic().DeliverToQueue(0, psp::PacketRef{buf, len});
    }
    if (!delivered) {
      // Counted by the NIC as an RX drop; the buffer is still ours.
      cache_.Free(buf);
      return SendResult::kDropped;
    }
    return SendResult::kSent;
  }

  size_t Poll(Response* out, size_t max_n) override {
    const psp::TscClock& clock = psp::TscClock::Global();
    size_t n = 0;
    psp::PacketRef pkt;
    while (n < max_n && server_->nic().PollEgress(&pkt)) {
      ParseResponse(pkt.data, pkt.length, clock.Now(), &out[n]);
      cache_.Free(pkt.data);
      ++n;
    }
    return n;
  }

 private:
  psp::Persephone* server_;
  psp::BufferCache cache_;
};

// Kernel UDP over loopback: datagrams are PspHeader | payload; responses are
// re-framed with WrapDatagramFrame so the same parser reads them.
class UdpClient final : public Client {
 public:
  explicit UdpClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ok_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                                sizeof(addr)) == 0;
    const int bytes = 4 << 20;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
    for (size_t i = 0; i < kBatch; ++i) {
      iov_[i] = {bufs_[i] + psp::kRequestOffset,
                 psp::kMaxPacketSize - psp::kRequestOffset};
      msgs_[i] = {};
      msgs_[i].msg_hdr.msg_iov = &iov_[i];
      msgs_[i].msg_hdr.msg_iovlen = 1;
    }
  }
  ~UdpClient() override {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  bool ok() const { return ok_; }

  SendResult Send(const psp::RequestFrame& frame, uint32_t id) override {
    static const uint16_t kBuild = SpanName("net.build");
    static const uint16_t kSend = SpanName("client.udp_send");
    uint32_t len = 0;
    {
      Span s(kBuild, id);
      len = psp::BuildRequestPacket(frame, scratch_, sizeof(scratch_));
    }
    Span s(kSend, id);
    return ::send(fd_, scratch_ + psp::kRequestOffset,
                  len - psp::kRequestOffset, MSG_DONTWAIT) > 0
               ? SendResult::kSent
               : SendResult::kRefused;
  }

  size_t Poll(Response* out, size_t max_n) override {
    static const uint16_t kWrap = SpanName("net.wrap_datagram");
    const int got = ::recvmmsg(fd_, msgs_, static_cast<unsigned>(
                                                std::min(max_n, kBatch)),
                               MSG_DONTWAIT, nullptr);
    if (got <= 0) {
      return 0;
    }
    const Nanos now = psp::TscClock::Global().Now();
    for (int i = 0; i < got; ++i) {
      uint32_t len = 0;
      {
        Span s(kWrap);
        len = psp::WrapDatagramFrame(bufs_[i], msgs_[i].msg_len,
                                     psp::FlowTuple{}, 0);
      }
      ParseResponse(bufs_[i], len, now, &out[i]);
    }
    return static_cast<size_t>(got);
  }

 private:
  static constexpr size_t kBatch = 32;
  int fd_ = -1;
  bool ok_ = false;
  std::byte scratch_[psp::kMaxPacketSize];
  std::byte bufs_[kBatch][psp::kMaxPacketSize];
  iovec iov_[kBatch];
  mmsghdr msgs_[kBatch];
};

// Client-side books for one server lifetime: what was sent when, what came
// back, and whether each echo was right. Fixed-phase requests (ids 1..N) keep
// one record each, for the latency percentiles; saturating-phase requests
// never exceed the in-flight window, so a ring keyed by id holds them and
// memory stays independent of how fast the server drains.
struct Ledger {
  static constexpr size_t kRing = 16 * kSaturationWindow;
  struct InFlight {
    uint64_t id = 0;
    Nanos due = 0;
    uint8_t slot = 0;
    bool done = true;
  };

  uint64_t seed = 0;
  std::vector<Nanos> due;  // fixed phase, per id - 1
  std::vector<uint8_t> type_slot;
  std::vector<uint8_t> seen;
  std::vector<Nanos> latency;  // -1 until a correct echo arrives
  std::vector<InFlight> ring = std::vector<InFlight>(kRing);
  uint64_t next_id = 1;
  uint64_t sent = 0;           // handed to the server or dropped at ingress
  uint64_t ingress_drops = 0;  // ... of which the ingress refused at once
  uint64_t send_refused = 0;
  uint64_t received = 0;
  uint64_t unmatched = 0;  // unparsable, or an id not in flight
  uint64_t bad_echo = 0;
  uint64_t duplicates = 0;

  // Requests still owed a response, as far as the client can tell (drops the
  // server makes after ingress stay in until the drain gives up).
  uint64_t outstanding() const {
    return sent - ingress_drops - received - unmatched;
  }

  void Count(SendResult result) {
    sent += result != SendResult::kRefused ? 1 : 0;
    ingress_drops += result == SendResult::kDropped ? 1 : 0;
    send_refused += result == SendResult::kRefused ? 1 : 0;
  }

  uint64_t AddFixed(Nanos due_at, uint8_t slot) {
    due.push_back(due_at);
    type_slot.push_back(slot);
    seen.push_back(0);
    latency.push_back(-1);
    return next_id++;
  }

  uint64_t AddInFlight(Nanos due_at, uint8_t slot) {
    const uint64_t id = next_id++;
    ring[id % kRing] = {id, due_at, slot, false};
    return id;
  }

  // True while saturating-phase request `id` is unanswered and was sent
  // after `cutoff`.
  bool InFlightAt(uint64_t id, Nanos cutoff) const {
    const InFlight& f = ring[id % kRing];
    return f.id == id && !f.done && f.due > cutoff;
  }

  bool EchoOk(const Response& r, uint8_t slot, Nanos due_at) const {
    return r.type == kTypes[slot] && r.client_timestamp == due_at &&
           r.payload.spin_ns == static_cast<uint64_t>(kSpin) &&
           r.payload.token == Token(seed, r.id);
  }

  void Absorb(const Response& r) {
    if (!r.parsed || r.id == 0 || r.id >= next_id) {
      ++unmatched;
      return;
    }
    if (r.id <= due.size()) {
      const size_t i = r.id - 1;
      if (seen[i] != 0) {
        ++duplicates;
        return;
      }
      seen[i] = 1;
      ++received;
      if (!EchoOk(r, type_slot[i], due[i])) {
        ++bad_echo;
        return;
      }
      latency[i] = r.received - due[i];
      return;
    }
    InFlight& f = ring[r.id % kRing];
    if (f.id != r.id) {
      ++unmatched;
      return;
    }
    if (f.done) {
      ++duplicates;
      return;
    }
    f.done = true;
    ++received;
    bad_echo += EchoOk(r, f.slot, f.due) ? 0 : 1;
  }
};

psp::RequestFrame FrameFor(uint64_t id, uint8_t slot, Nanos due,
                           const Payload* payload) {
  psp::RequestFrame frame;
  frame.flow = {0x0A000001u + static_cast<uint32_t>(id & 7), 0x0A0000FFu,
                static_cast<uint16_t>(1024 + (id % 60000)), 6789};
  frame.request_type = kTypes[slot];
  frame.request_id = id;
  frame.client_id = 1;
  frame.client_timestamp = due;
  frame.payload = reinterpret_cast<const std::byte*>(payload);
  frame.payload_length = sizeof(Payload);
  return frame;
}

struct FixedPhase {
  uint32_t first_id = 0;
  uint32_t count = 0;
  std::vector<double> late_us;
};

// Open loop at a fixed Poisson rate: the schedule (due offsets and types) is
// drawn from the seed before the phase starts; each request is stamped with
// its due instant, whenever the generator actually gets to it.
FixedPhase RunFixedPhase(Client* client, Ledger* ledger, double rate,
                         Nanos duration, uint64_t seed) {
  const psp::TscClock& clock = psp::TscClock::Global();
  psp::Rng rng(seed);
  std::vector<Nanos> offsets;
  std::vector<uint8_t> slots;
  const double gap = 1e9 / rate;
  for (Nanos t = 0;;) {
    t += static_cast<Nanos>(-gap * std::log(1.0 - rng.NextDouble())) + 1;
    if (t >= duration) {
      break;
    }
    offsets.push_back(t);
    slots.push_back(static_cast<uint8_t>(rng.NextBounded(2)));
  }
  FixedPhase phase;
  phase.count = static_cast<uint32_t>(offsets.size());
  phase.late_us.reserve(offsets.size());
  Response responses[32];
  const Nanos start = clock.Now() + psp::kMillisecond;
  phase.first_id = static_cast<uint32_t>(ledger->next_id);
  ledger->due.reserve(ledger->due.size() + offsets.size());
  ledger->type_slot.reserve(ledger->due.capacity());
  ledger->seen.reserve(ledger->due.capacity());
  ledger->latency.reserve(ledger->due.capacity());
  size_t next = 0;
  Nanos last_activity = start;
  for (;;) {
    const Nanos now = clock.Now();
    if (next < offsets.size() && now >= start + offsets[next]) {
      const Nanos due = start + offsets[next];
      const uint64_t id = ledger->AddFixed(due, slots[next]);
      const Payload payload{static_cast<uint64_t>(kSpin),
                            Token(ledger->seed, id)};
      ledger->Count(client->Send(FrameFor(id, slots[next], due, &payload),
                                 static_cast<uint32_t>(id)));
      phase.late_us.push_back(static_cast<double>(now - due) / 1e3);
      ++next;
      last_activity = now;
      continue;
    }
    const size_t n = client->Poll(responses, 32);
    for (size_t i = 0; i < n; ++i) {
      ledger->Absorb(responses[i]);
    }
    if (n > 0) {
      last_activity = now;
    }
    if (next == offsets.size() &&
        (ledger->outstanding() == 0 ||
         now - last_activity > kDrainIdle)) {
      break;
    }
  }
  return phase;
}

// Saturation: keep kSaturationWindow requests in flight for `duration`;
// goodput is the completion rate of the quiet quartile of kGoodputBucket
// slices after a short warmup.
double RunSaturatingPhase(Client* client, Ledger* ledger, Nanos duration,
                          uint64_t seed) {
  const psp::TscClock& clock = psp::TscClock::Global();
  psp::Rng rng(seed ^ 0x5a7);
  Response responses[32];
  const Nanos start = clock.Now();
  const Nanos measure_from = start + duration / 10;
  const Nanos end = start + duration;
  std::vector<double> completions(
      static_cast<size_t>((end - measure_from) / kGoodputBucket) + 1, 0);
  Nanos last_activity = start;
  // This phase's requests in send order; answered ones, and ones the server
  // dropped after ingress (no answer within kInFlightExpiry), leave the
  // window from the front.
  std::deque<uint64_t> in_flight;
  for (;;) {
    const Nanos now = clock.Now();
    while (!in_flight.empty() &&
           !ledger->InFlightAt(in_flight.front(), now - kInFlightExpiry)) {
      in_flight.pop_front();
    }
    if (now < end && in_flight.size() < kSaturationWindow) {
      const uint8_t slot = static_cast<uint8_t>(rng.NextBounded(2));
      const uint64_t id = ledger->AddInFlight(now, slot);
      const Payload payload{static_cast<uint64_t>(kSpin),
                            Token(ledger->seed, id)};
      ledger->Count(client->Send(FrameFor(id, slot, now, &payload),
                                 static_cast<uint32_t>(id)));
      in_flight.push_back(id);
      last_activity = now;
      continue;
    }
    const size_t n = client->Poll(responses, 32);
    for (size_t i = 0; i < n; ++i) {
      ledger->Absorb(responses[i]);
      const Nanos at = responses[i].received;
      if (at >= measure_from && at < end) {
        ++completions[static_cast<size_t>((at - measure_from) /
                                          kGoodputBucket)];
      }
    }
    if (n > 0) {
      last_activity = now;
    }
    if (now >= end &&
        (in_flight.empty() || now - last_activity > kDrainIdle)) {
      break;
    }
  }
  // The last slice is partial; full slices only (at least one).
  if (completions.size() > 1) {
    completions.pop_back();
  }
  return Percentile(completions, 100 - kQuietQuartile) /
         (static_cast<double>(kGoodputBucket) / 1e9) / 1e3;
}

struct Measurement {
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double p999 = 0;
  size_t slices = 0;
  uint64_t beyond_p99 = 0;
  uint64_t beyond_p999 = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double goodput_krps = 0;
  double late_p99_us = 0;
  double late_max_us = 0;
  double mean_latency_ns = 0;
  psp::TelemetrySnapshot snapshot;
};

// One server lifetime: start, fixed-rate phase, optional saturating phase,
// stop, then the books.
Measurement Measure(const RtWorkload& w, const Options& options,
                    double seconds, Report* report) {
  static const uint16_t kSnap = SpanName("telemetry.snapshot");
  std::unique_ptr<psp::Persephone> server = MakeServer(w);
  std::unique_ptr<Client> client;
  if (w.udp) {
    auto udp = std::make_unique<UdpClient>(server->udp_port());
    if (!udp->ok()) {
      report->Fail("rt_udp: client socket could not connect");
    }
    client = std::move(udp);
  } else {
    client = std::make_unique<RingClient>(server.get());
  }
  Ledger ledger;
  ledger.seed = options.seed;

  PinTo(kGeneratorCore);
  const double fixed_s = w.saturate ? seconds * kFixedShare : seconds;
  const FixedPhase fixed = RunFixedPhase(
      client.get(), &ledger, w.fixed_rps,
      static_cast<Nanos>(fixed_s * 1e9), options.seed);
  Measurement m;
  if (w.saturate) {
    m.goodput_krps = RunSaturatingPhase(
        client.get(), &ledger,
        static_cast<Nanos>((seconds - fixed_s) * 1e9), options.seed);
  }
  Unpin();
  StopServer(server.get());
  {
    Span s(kSnap);
    m.snapshot = server->telemetry_snapshot();
  }
  client.reset();

  // Latency from the due instant, as slowdown over the spin time; requests
  // that never came back count as infinitely slow. p50/p90 are the quiet
  // quartile of per-slice percentiles (slices by due instant); the tail
  // percentiles, diagnostics only, pool every request.
  const uint32_t warm = fixed.first_id +
                        static_cast<uint32_t>(kWarmupShare * fixed.count);
  const uint32_t last = fixed.first_id + fixed.count;  // one past
  std::vector<double> slowdowns;
  slowdowns.reserve(last - warm);
  double latency_sum = 0;
  for (uint32_t id = warm; id < last; ++id) {
    const Nanos lat = ledger.latency[id - 1];
    ++m.attempted;
    m.failed += lat < 0 ? 1 : 0;
    latency_sum += lat < 0 ? 0.0 : static_cast<double>(lat);
    slowdowns.push_back(lat < 0 ? INFINITY
                                : static_cast<double>(lat) /
                                      static_cast<double>(kSpin));
  }
  // Ids are in due order, so each slice is a contiguous run of slowdowns.
  std::vector<double> slice_p50;
  std::vector<double> slice_p90;
  const Nanos* due = &ledger.due[warm - 1];
  for (size_t begin = 0; begin < slowdowns.size();) {
    const Nanos slice_end =
        due[0] + kLatencySlice * static_cast<Nanos>(slice_p50.size() + 1);
    size_t end = begin;
    while (end < slowdowns.size() && due[end] < slice_end) {
      ++end;
    }
    const std::vector<double> slice(slowdowns.begin() + begin,
                                    slowdowns.begin() + end);
    slice_p50.push_back(Percentile(slice, 50));
    slice_p90.push_back(Percentile(slice, 90));
    begin = end;
  }
  m.slices = slice_p50.size();
  m.p50 = Percentile(slice_p50, kQuietQuartile);
  m.p90 = Percentile(slice_p90, kQuietQuartile);
  m.p99 = Percentile(slowdowns, 99);
  m.p999 = Percentile(slowdowns, 99.9);
  for (const double s : slowdowns) {
    m.beyond_p99 += s > m.p99 ? 1 : 0;
    m.beyond_p999 += s > m.p999 ? 1 : 0;
  }
  m.mean_latency_ns = latency_sum / static_cast<double>(std::max<uint64_t>(
                                        1, m.attempted - m.failed));
  m.late_p99_us = Percentile(fixed.late_us, 99);
  m.late_max_us = Percentile(fixed.late_us, 100);

  // Books: every request sent is answered or counted by a server drop
  // counter; every answer echoes its own spin duration and token.
  const psp::TelemetrySnapshot& snap = m.snapshot;
  uint64_t explained = ledger.received + snap.counter("scheduler.dropped") +
                       snap.counter("runtime.malformed");
  if (w.udp) {
    explained += snap.counter("ingress.malformed") +
                 snap.counter("ingress.ring_full_drops") +
                 snap.counter("ingress.tx_drops");
  } else {
    explained += snap.counter("nic.rx_drops");
  }
  report->ExpectEqual(std::string(w.name) +
                          ": sent == received + counted server drops",
                      ledger.sent, explained);
  report->ExpectEqual(std::string(w.name) + ": responses with a wrong echo",
                      ledger.bad_echo, 0);
  report->ExpectEqual(std::string(w.name) + ": unparsable or unknown responses",
                      ledger.unmatched, 0);
  report->ExpectEqual(std::string(w.name) + ": duplicate responses",
                      ledger.duplicates, 0);
  report->ExpectEqual(std::string(w.name) + ": requests the client could "
                                            "not hand to the transport",
                      ledger.send_refused, 0);
  report->AddAttempted(ledger.sent + ledger.send_refused);
  report->AddFailed(ledger.sent + ledger.send_refused - ledger.received);

  Say("%s: sent %llu received %llu | scheduler.dropped %llu nic.rx_drops "
      "%llu runtime.malformed %llu",
      w.name, static_cast<unsigned long long>(ledger.sent),
      static_cast<unsigned long long>(ledger.received),
      static_cast<unsigned long long>(snap.counter("scheduler.dropped")),
      static_cast<unsigned long long>(snap.counter("nic.rx_drops")),
      static_cast<unsigned long long>(snap.counter("runtime.malformed")));
  if (w.udp) {
    Say(" ingress.malformed %llu ring_full_drops %llu tx_drops %llu",
        static_cast<unsigned long long>(snap.counter("ingress.malformed")),
        static_cast<unsigned long long>(
            snap.counter("ingress.ring_full_drops")),
        static_cast<unsigned long long>(snap.counter("ingress.tx_drops")));
  }
  Say("\n%s: fixed %.0f rps: slowdown p50 %.3f p90 %.3f (quiet quartile of "
      "%zu slices) p99 %.2f (%llu beyond) p99.9 %.2f (%llu beyond) over %llu "
      "requests; generator late p99 %.2f us max %.1f us",
      w.name, w.fixed_rps, m.p50, m.p90, m.slices, m.p99,
      static_cast<unsigned long long>(m.beyond_p99), m.p999,
      static_cast<unsigned long long>(m.beyond_p999),
      static_cast<unsigned long long>(m.attempted), m.late_p99_us,
      m.late_max_us);
  if (w.saturate) {
    Say("; saturating goodput %.2f krps", m.goodput_krps);
  }
  Say("\n");
  return m;
}

void PrintRuntimeLayers(const RtWorkload& w, const Measurement& m) {
  const psp::TelemetrySnapshot& snap = m.snapshot;
  Say("workload-specific (traced server):\n");
  for (const char* name :
       {"runtime.rx_packets", "scheduler.enqueued", "scheduler.dispatched",
        "scheduler.stolen_dispatches", "scheduler.dropped", "nic.rx_drops"}) {
    Say("  %-28s %llu\n", name,
        static_cast<unsigned long long>(snap.counter(name)));
  }
  if (w.udp) {
    for (const char* name :
         {"ingress.rx_datagrams", "ingress.tx_datagrams", "ingress.tx_batches",
          "ingress.poll_sleeps"}) {
      Say("  %-28s %llu\n", name,
          static_cast<unsigned long long>(snap.counter(name)));
    }
  }
  // Lifecycle stage medians over every sampled trace (all types merged).
  psp::Histogram pre, queue, handoff, service, reply;
  uint64_t traces = 0;
  for (const auto& [type, b] : snap.StageBreakdown()) {
    (void)type;
    pre.Merge(b.preprocess);
    queue.Merge(b.queueing);
    handoff.Merge(b.handoff);
    service.Merge(b.service);
    reply.Merge(b.reply);
    traces += b.traces;
  }
  Say("  runtime.stage p50 us over %llu sampled traces: preprocess %.3f "
      "queueing %.3f handoff %.3f service %.3f reply %.3f\n",
      static_cast<unsigned long long>(traces),
      static_cast<double>(pre.Percentile(50)) / 1e3,
      static_cast<double>(queue.Percentile(50)) / 1e3,
      static_cast<double>(handoff.Percentile(50)) / 1e3,
      static_cast<double>(service.Percentile(50)) / 1e3,
      static_cast<double>(reply.Percentile(50)) / 1e3);
  Say("  loadgen.late_p99_us %.3f loadgen.late_max_us %.1f\n", m.late_p99_us,
      m.late_max_us);
}

void RunRuntime(const RtWorkload& w, const Options& options, Report* report) {
  const psp::TscClock& clock = psp::TscClock::Global();
  if (OnlineCores() < 3) {
    Say("%s needs 3 cores (dispatcher, worker, generator); host has %u\n",
        w.name, OnlineCores());
  }
  const HostNoise noise =
      ProbeHostNoise(w.busy_threads, 300 * psp::kMillisecond);

  // Set-up: construct, register both types, Start() — repeated; the median
  // is the figure.
  std::vector<double> setup_samples;
  for (int i = 0; i < kSetupReps; ++i) {
    const Nanos t0 = clock.Now();
    std::unique_ptr<psp::Persephone> server = MakeServer(w);
    setup_samples.push_back(static_cast<double>(clock.Now() - t0) / 1e9);
    server->Stop();
  }
  report->Set("setup_s", Median(setup_samples), "s");

  const double untraced_s =
      options.trace ? options.seconds / 2 : options.seconds;
  const Measurement m = Measure(w, options, untraced_s, report);
  report->Set("p50_slowdown", m.p50, "x");
  report->Set("p90_slowdown", m.p90, "x");
  if (w.saturate) {
    report->Set("goodput_krps", m.goodput_krps, "krps");
  }
  if (!options.trace) {
    return;
  }

  // The traced half records a few spans per request, so it is capped to keep
  // the span buffer (reserved up front, off the measured path) bounded.
  const double traced_s =
      std::min(options.seconds - untraced_s, kTracedSeconds);
  StartTracing();
  const double requests =
      w.saturate ? traced_s * (kFixedShare * w.fixed_rps +
                               (1 - kFixedShare) * kSaturatedRpsCeiling)
                 : traced_s * w.fixed_rps;
  ThreadSpanBuffer()->spans.Reserve(
      static_cast<size_t>(requests * (w.udp ? 4 : 3)));
  const Measurement traced = Measure(w, options, traced_s, report);
  Say("\ntracing overhead: p50_slowdown %.4f untraced vs %.4f traced "
      "(%+.2f%%)",
      m.p50, traced.p50, 100.0 * (traced.p50 - m.p50) / m.p50);
  if (w.saturate) {
    Say("; goodput_krps %.2f vs %.2f", m.goodput_krps, traced.goodput_krps);
  }
  Say("\n");
  report->Set("trace.overhead_pct", 100.0 * (traced.p50 - m.p50) / m.p50, "%");
  report->Set("client.p99_slowdown", traced.p99, "x");
  report->Set("client.p999_slowdown", traced.p999, "x");
  report->Set("completed_ratio",
              static_cast<double>(traced.attempted - traced.failed) /
                  static_cast<double>(traced.attempted),
              "ratio");
  report->Set("host.max_gap_us", noise.max_gap_us, "us");
  Say("host.gaps_over_1ms %llu\n",
      static_cast<unsigned long long>(noise.gaps_over_1ms));
  PrintRuntimeLayers(w, traced);
  SetLedgerMetrics(traced.snapshot.worker_time, report);

  psp::WorkloadSpec mix;
  mix.name = "two 1us spin types";
  mix.phases.push_back({0,
                        {{kTypes[0], "spin_a", 1.0, 0.5},
                         {kTypes[1], "spin_b", 1.0, 0.5}},
                        1.0});
  LayerInputs in;
  // One worker: the fixed rate as a share of its peak.
  in.mixes = {{mix, w.fixed_rps / mix.PeakLoadRps(1)}};
  in.workers = 1;
  in.seed = options.seed;
  in.pending_events = static_cast<uint32_t>(
      std::max(8.0, std::ceil(w.fixed_rps / 1e9 * traced.mean_latency_ns)));
  in.server_snapshots.assign(4, traced.snapshot);
  RunLayerProbes(in, report);
}

}  // namespace

void RunRtRing(const Options& options, Report* report) {
  RunRuntime({"rt_ring", false, 150000, true, 3}, options, report);
}

void RunRtUdp(const Options& options, Report* report) {
  RunRuntime({"rt_udp", true, 50000, false, 4}, options, report);
}

}  // namespace perfbench
