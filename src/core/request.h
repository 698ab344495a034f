// Core request representation shared by the discrete-event simulator and the
// threaded runtime. The scheduler is engine-agnostic: it sees opaque requests
// tagged with a type index and timestamps expressed in Nanos.
#ifndef PSP_SRC_CORE_REQUEST_H_
#define PSP_SRC_CORE_REQUEST_H_

#include <cstdint>

#include "src/common/time.h"
#include "src/telemetry/lifecycle.h"

namespace psp {

using WorkerId = uint32_t;
inline constexpr WorkerId kInvalidWorker = ~WorkerId{0};

// External request-type identifier produced by classifiers (application
// protocol value, e.g. a TPC-C transaction id).
using TypeId = uint32_t;

// Classifier output for unrecognised requests. They are placed in a
// low-priority queue served by the spillway core(s) (paper §4.2).
inline constexpr TypeId kUnknownTypeId = ~TypeId{0};

// Dense internal index assigned by the scheduler's type registry.
using TypeIndex = uint32_t;
inline constexpr TypeIndex kInvalidTypeIndex = ~TypeIndex{0};

// Field order packs the struct into one cache line (eight-byte fields first,
// then the four-byte ones): every typed-queue slot, EDF-ring slot and
// Assignment copies a Request, so its size is the data path's per-hop cost.
struct Request {
  uint64_t id = 0;
  // When the request entered the dispatcher's typed queue.
  Nanos arrival = 0;
  // The true service demand for simulation engines (the scheduler itself
  // never reads this; policies that cheat, like oracle SJF, may).
  Nanos service_demand = 0;
  // Absolute completion deadline (engine clock). 0 = no deadline. Stamped at
  // ingress from the wire budget (PspHeader::deadline_us) when the client set
  // one, else from the type's DeadlineConfig target; consumed by the EDF
  // dispatch order, the admission-control shed predicate and the miss/slack
  // accounting in OnCompletion.
  Nanos deadline = 0;
  // Opaque payload handle for the threaded runtime (points into a NIC
  // buffer); the simulator stores its SimRequest here.
  void* payload = nullptr;
  // Wire identity from the PSP header (client's request_id / client_id),
  // preserved so sampled lifecycle records can be joined with client-side
  // trace samples across the process boundary. 0 when not from a wire.
  uint64_t wire_id = 0;
  // Internal type index (registry slot), not the wire TypeId.
  TypeIndex type = kInvalidTypeIndex;
  uint32_t payload_length = 0;
  uint32_t client_id = 0;
  // Lifecycle-trace slot in the dispatcher's TraceSlab; kNoTrace (0) when
  // the request is not sampled. The stamps themselves live in the slab.
  TraceHandle trace = kNoTrace;
};
static_assert(sizeof(Request) <= 64, "Request must fit one cache line");

}  // namespace psp

#endif  // PSP_SRC_CORE_REQUEST_H_
