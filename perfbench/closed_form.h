// Traced replay of one closed-form DMapService::Lookup, shared by the
// lookup_zipf and mobility_mixed workloads.
#pragma once

#include <cstdint>

#include "bench.h"
#include "bgp/dir24_8.h"
#include "bgp/prefix_table.h"
#include "core/dmap_service.h"

namespace perfbench {

// Calls, each in its own child span of `parent`, the layer functions the
// lookup of (guid, querier) used, on the same inputs: the cache probe, then
// (on a cache miss) ResolveAll with its hash chain and LPM probes as
// children, the K RTT queries and the store reads of the probes the lookup
// made. `dir` must be a DIR-24-8 snapshot of `table`.
void ReplayLookupLayers(dmap::DMapService& service, const dmap::Dir24_8& dir,
                        const dmap::PrefixTable& table, SpanRecorder& spans,
                        unsigned lane, std::uint64_t parent, std::uint64_t op,
                        const dmap::Guid& guid, dmap::AsId querier,
                        const dmap::LookupResult& result);

// Lookup-path counters of the closed-form service, read from its registry.
struct LookupCounters {
  std::uint64_t lookups = 0;
  std::uint64_t probes = 0;
  std::uint64_t hash_evals = 0;
  std::uint64_t deputies = 0;

  static LookupCounters Read(const dmap::MetricsRegistry& registry);
  LookupCounters operator-(const LookupCounters& o) const {
    return {lookups - o.lookups, probes - o.probes, hash_evals - o.hash_evals,
            deputies - o.deputies};
  }
};

// Adds the per-layer metrics and attribution rows of the closed-form lookup
// path. `counts` are the untraced pass's deltas; `full_lookups` the lookups
// that took the full probe path (cache misses) and `cache_probes` the cache
// probes (0 without a cache); `extra_hash_evals` are evaluations counted in
// `counts` that belong to writes, not lookups.
void AddLookupLayers(Report& report,
                     const std::map<std::string, SpanRecorder::LayerSelf>& self,
                     const LookupCounters& counts, std::uint64_t full_lookups,
                     std::uint64_t cache_probes, std::uint64_t extra_hash_evals,
                     int k);

// Lists the per-layer metrics of the wire path (event kernel, codec, serving
// tier, faults, the wire client's full-vector oracle queries) as unmeasured:
// the closed-form workloads bypass those layers.
void MarkWireLayersUnmeasured(Report& report);

}  // namespace perfbench
