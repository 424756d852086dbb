// ServingTier: the per-AS mapping-server capacity model. Each replica AS is
// a c-server FIFO station with a bounded waiting room and token-bucket
// admission in front (the NIC-style rate limiter + bounded queue idiom):
//
//   arrival ──> token bucket ──> bounded FIFO queue ──> c servers
//                  │ empty             │ full
//                  └──── shed ─────────┘
//
// The tier is *virtual-time* rather than event-per-request: Admit() is
// called once per request at its (simulated) arrival instant and returns
// the queue wait and service time in closed form from the station state —
// the completion times of the requests currently in the system. The caller
// (ProtocolNetwork delivery) schedules the reply at wait + service; a shed request produces no reply at all, so the
// client's timeout/retry/fall-through machinery (PR 4) takes over.
//
// Determinism: Admit() must be called in non-decreasing sim-time order —
// which one serial simulator guarantees — and exponential service times are
// pure functions of (seed, server AS, per-server arrival index), so a run
// is replayable bit-for-bit and independent of worker count (each parallel
// trial/point owns its tier, like its Simulator).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "event/sim_time.h"
#include "obs/metrics_registry.h"
#include "obs/probe_trace.h"
#include "serve/serving_config.h"
#include "topo/graph.h"

namespace dmap {

// What Admit decided for one request. On kShed both delays are zero and the
// server state is unchanged (no token consumed, nothing queued).
struct AdmitResult {
  AdmissionOutcome outcome = AdmissionOutcome::kServed;
  double queue_delay_ms = 0.0;  // wait before service starts
  double service_ms = 0.0;      // the service time itself

  // Total server-side delay to add on top of the network path.
  double DelayMs() const { return queue_delay_ms + service_ms; }
};

class ServingTier {
 public:
  // Throws std::invalid_argument (via ServingConfig::Validate) on an
  // inconsistent configuration.
  explicit ServingTier(const ServingConfig& config);

  const ServingConfig& config() const { return config_; }

  // Admits (or sheds) one request arriving at `server` at sim time `now`.
  // Calls must be in non-decreasing `now` order across all servers.
  AdmitResult Admit(AsId server, SimTime now);

  // Pure forecast of Admit's shed decision: true iff a request arriving at
  // `server` at sim time `now` would be shed (token bucket empty or waiting
  // room full). Touches no state, allocates nothing — it agrees exactly
  // with the outcome an Admit(server, now) call would return at this
  // instant (pinned by the tier tests), so callers can probe overload
  // without perturbing the station. Admit itself mutates (map growth,
  // completion retirement, token refill even on shed) and so cannot carry
  // the hot-path contract; this is the read-side admission check.
  bool WouldShed(AsId server, SimTime now) const DMAP_HOT_PATH;

  // Registers the serve.* instruments in `registry` and accounts every
  // subsequent Admit under worker slab `shard`. All serve.* metrics are
  // deterministic (the tier lives inside one serial simulator).
  void SetMetrics(MetricsRegistry* registry, unsigned shard = 0);

  // Aggregate accounting (also mirrored to serve.* metrics when set).
  std::uint64_t arrivals() const { return arrivals_; }
  std::uint64_t served() const { return served_; }
  std::uint64_t queued() const { return queued_; }
  std::uint64_t shed_tokens() const { return shed_tokens_; }
  std::uint64_t shed_queue() const { return shed_queue_; }
  std::uint64_t shed() const { return shed_tokens_ + shed_queue_; }

  // Arrival count of the busiest server seen so far, with its AS — the
  // measured hot-spot share feeding the M/M/1 saturation cross-check
  // (analysis/queueing.h). Scans the server map; call after the run.
  std::pair<AsId, std::uint64_t> HottestServer() const;

 private:
  struct Server {
    double tokens = 0.0;
    SimTime last_refill = SimTime::Zero();
    // Completion times of the requests currently in the system (in service
    // or queued), ascending. Bounded by concurrency + queue_depth.
    std::vector<SimTime> completions;
    std::uint64_t arrivals = 0;  // feeds the seed-pure service draws
  };

  double DrawServiceMs(AsId server, std::uint64_t arrival_index) const;
  void Count(std::uint64_t& plain, CounterId id);

  ServingConfig config_;
  std::unordered_map<AsId, Server> servers_;

  std::uint64_t arrivals_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t queued_ = 0;
  std::uint64_t shed_tokens_ = 0;
  std::uint64_t shed_queue_ = 0;

  struct Instruments {
    CounterId arrivals = 0, served = 0, queued = 0, shed_tokens = 0,
              shed_queue = 0;
    HistogramId queue_delay_ms = 0, service_ms = 0;
  };
  MetricsRegistry* metrics_ = nullptr;
  unsigned metrics_shard_ = 0;
  Instruments ins_{};
};

}  // namespace dmap
