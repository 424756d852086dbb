// Mobility fast-path experiment (Figure 10), two panels:
//
//  * Batch panel — update traffic vs batch size. The same seed-pure
//    handoff schedule (workload/mobility.h) is replayed once per batch
//    size B: each handoff's N GUID moves go out in ceil(N/B) BatchUpdate
//    waves, and the panel reports the wire messages a gateway would send
//    (one BatchUpdateRequest per distinct destination AS per wave)
//    against the K*N singleton-insert baseline the batch replaced. Store
//    contents after the replay are bit-identical for every B — batching
//    changes message count and completion time, never state.
//
//  * TTL panel — the staleness-vs-hit-rate frontier of the resolver-side
//    cache. One phased closed-form replay per TTL value: the handoff
//    schedule runs as batched updates while a Poisson lookup stream over
//    the mobile GUIDs drives a private ResolverCache; the panel reports
//    hit rate, the fraction of cache answers that were stale (behind the
//    owner table's stamp at serve time), and mean lookup latency.
//
// Determinism: points are the parallel unit. Each point owns a fully
// private service + workload replay seeded only by the config, written to
// its own result slot and merged in point order — bit-identical exports
// for every `threads` value (the CI mobility-smoke job byte-diffs
// --threads 1 vs 4).
#pragma once

#include <cstdint>
#include <vector>

#include "core/dmap_service.h"
#include "core/resolver_cache.h"
#include "sim/environment.h"
#include "workload/mobility.h"

namespace dmap {

class MetricsRegistry;

struct MobilityConfig {
  // The host population and churn schedule (shared by both panels).
  MobilityParams mobility;

  int k = 5;
  bool local_replica = true;
  std::uint64_t hash_seed = 0x5eedf00dULL;
  int shards = 0;        // store shards (execution knob; results identical)
  unsigned threads = 0;  // sweep workers; 0 = hardware. Results identical.

  // Batch panel: updates per BatchUpdate wave. 1 degenerates to singleton
  // waves (still batch-framed; the singleton baseline is reported
  // alongside every point). Empty skips the panel.
  std::vector<int> batch_sizes = {1, 4, 16, 64};

  // TTL panel: the cache template (capacity/shards/coherence mode; ttl_ms
  // is overridden per point) and the TTL values to sweep. An empty sweep
  // or a disabled template skips the panel.
  CacheConfig cache;
  std::vector<double> ttl_sweep_ms;
  // Poisson lookup rate over the mobile GUIDs during the TTL panel, in
  // lookups per simulated second (aggregate, not per host).
  double lookup_rate_hz = 2000.0;

  // Optional metrics sink; must outlive the call. Panel totals land in
  // "mobility.*" and the last TTL point's cache counters in "cache.*",
  // merged serially in point order (thread-count independent).
  MetricsRegistry* metrics = nullptr;
};

// One batch-panel point, fully merged.
struct MobilityBatchPoint {
  int batch_size = 0;
  std::uint64_t handoffs = 0;      // host migrations replayed
  std::uint64_t guid_updates = 0;  // individual GUID re-attachments
  std::uint64_t waves = 0;         // BatchUpdate calls issued
  // Wire messages of the batched waves: one BatchUpdateRequest per
  // distinct destination AS per wave.
  std::uint64_t batch_messages = 0;
  // The K-per-GUID singleton-insert baseline those waves replaced.
  std::uint64_t singleton_messages = 0;
  double reduction = 0.0;  // singleton_messages / batch_messages
  double mean_wave_latency_ms = 0.0;
};

// One TTL-panel point, fully merged.
struct MobilityTtlPoint {
  double ttl_ms = 0.0;
  std::uint64_t lookups = 0;
  std::uint64_t found = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t stale_served = 0;  // cache answers behind the owner stamp
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;
  double hit_rate = 0.0;        // hits / (hits + misses)
  double stale_fraction = 0.0;  // stale_served / hits
  double mean_latency_ms = 0.0;
};

struct MobilityResult {
  std::vector<MobilityBatchPoint> batch_points;  // in batch_sizes order
  std::vector<MobilityTtlPoint> ttl_points;      // in ttl_sweep_ms order
};

// Runs both panels. Throws std::invalid_argument on bad parameters.
MobilityResult RunMobilitySweep(SimEnvironment& env,
                                const MobilityConfig& config);

}  // namespace dmap
