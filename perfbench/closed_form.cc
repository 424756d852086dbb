#include "closed_form.h"

#include <algorithm>
#include <array>
#include <vector>

namespace perfbench {

using namespace dmap;

namespace {
// Keeps replayed results observable so the calls are not optimised away.
thread_local std::uint64_t replay_sink = 0;
}  // namespace

void ReplayLookupLayers(DMapService& service, const Dir24_8& dir,
                        const PrefixTable& table, SpanRecorder& spans,
                        unsigned lane, std::uint64_t parent, std::uint64_t op,
                        const Guid& guid, AsId querier,
                        const LookupResult& result) {
  if (ResolverCache* cache = service.cache()) {
    ScopedSpan span(&spans, lane, "cache.probe", parent, op);
    replay_sink += cache->Probe(querier, guid, service.cache_now()) != nullptr;
  }
  if (result.served_from_cache) return;

  const int k = service.options().k;
  // ResolveAll in its own span; the hash chains and LPM probes it made are
  // replayed after it as its children.
  const std::uint64_t resolve =
      spans.Begin(lane, "resolve", parent, op, std::uint32_t(k));
  const std::vector<HostResolution> resolved =
      service.resolver().ResolveAll(guid, lane);
  spans.End(resolve);
  std::uint32_t evals = 0, deputies = 0;
  for (const HostResolution& r : resolved) {
    evals += std::uint32_t(r.hash_count);
    deputies += r.used_nearest;
  }

  // The hash chains ResolveAll walked, with the same batched kernels: all
  // K first hashes at once, then one RehashManyInto wave per chain depth
  // over the replicas whose chain is that long.
  std::vector<Ipv4Address> chain;
  chain.reserve(evals);
  {
    ScopedSpan hash(&spans, lane, "hash", resolve, op, evals);
    std::array<Ipv4Address, 64> cur{}, in{}, out{};
    std::array<int, 64> lanes{};
    service.hash_family().HashAllInto(guid, cur.data());
    chain.insert(chain.end(), cur.begin(), cur.begin() + k);
    for (int depth = 1;; ++depth) {
      std::size_t n = 0;
      for (int i = 0; i < k; ++i) {
        if (resolved[std::size_t(i)].hash_count > depth) {
          in[n] = cur[std::size_t(i)];
          lanes[n++] = i;
        }
      }
      if (n == 0) break;
      service.hash_family().RehashManyInto(in.data(), lanes.data(), n,
                                           out.data());
      for (std::size_t j = 0; j < n; ++j) {
        cur[std::size_t(lanes[j])] = out[j];
        chain.push_back(out[j]);
      }
    }
  }
  {
    ScopedSpan lpm(&spans, lane, "lpm.dir24_8", resolve, op, evals);
    for (const Ipv4Address addr : chain) replay_sink += dir.Lookup(addr);
  }
  if (deputies > 0) {
    ScopedSpan nearest(&spans, lane, "lpm.nearest", resolve, op, deputies);
    for (const HostResolution& r : resolved) {
      if (!r.used_nearest) continue;
      replay_sink += table.NearestAnnounced(r.hashed_address).has_value();
    }
  }

  std::vector<std::pair<double, AsId>> order;
  order.reserve(std::size_t(k));
  {
    ScopedSpan rtt(&spans, lane, "oracle.rtt", parent, op, std::uint32_t(k));
    for (const HostResolution& r : resolved) {
      order.emplace_back(service.oracle().RttMs(querier, r.host, lane), r.host);
    }
  }
  std::sort(order.begin(), order.end());

  const bool local = service.options().local_replica;
  const int probes = std::min(result.attempts, int(order.size()));
  ScopedSpan store(&spans, lane, "store.read", parent, op,
                   std::uint32_t(probes + (local ? 1 : 0)));
  for (int i = 0; i < probes; ++i) {
    replay_sink += service.StoreLookup(order[std::size_t(i)].second, guid) !=
                   nullptr;
  }
  if (local) replay_sink += service.StoreLookup(querier, guid) != nullptr;
}

LookupCounters LookupCounters::Read(const MetricsRegistry& registry) {
  LookupCounters c;
  for (const auto& counter : registry.Snapshot().counters) {
    if (counter.name == "dmap.lookups") c.lookups = counter.value;
    if (counter.name == "dmap.probes") c.probes = counter.value;
    if (counter.name == "algo1.hash_evaluations") c.hash_evals = counter.value;
    if (counter.name == "algo1.deputy_fallbacks") c.deputies = counter.value;
  }
  return c;
}

void AddLookupLayers(Report& report,
                     const std::map<std::string, SpanRecorder::LayerSelf>& self,
                     const LookupCounters& counts, std::uint64_t full_lookups,
                     std::uint64_t cache_probes, std::uint64_t extra_hash_evals,
                     int k) {
  const auto ns = [&](const std::string& name) { return SelfNs(self, name); };
  const double lookups = double(counts.lookups);
  const double full = double(full_lookups);
  const double evals = double(counts.hash_evals - extra_hash_evals);
  const double per_lookup = lookups > 0 ? 1.0 / lookups : 0.0;

  report.Layer("hash.ns_per_eval", ns("hash"), "ns");
  report.Layer("hash.evals_per_lookup", evals * per_lookup, "count");
  report.Layer("lpm.dir24_8_ns", ns("lpm.dir24_8"), "ns");
  report.Layer("lpm.nearest_ns", ns("lpm.nearest"), "ns");
  report.Layer("lpm.deputy_per_lookup", double(counts.deputies) * per_lookup,
               "count");
  report.Layer("resolve.ns_per_replica", ns("resolve"), "ns");
  report.Layer("resolve.hashes_per_replica", full > 0 ? evals / (full * k) : 0.0,
               "count");
  report.Layer("store.read_ns", ns("store.read"), "ns");
  report.Layer("service.lookup_self_ns", ns("service.lookup"), "ns");
  report.Layer("service.probes_per_lookup", double(counts.probes) * per_lookup,
               "count");
  report.Layer("oracle.rtt_ns", ns("oracle.rtt"), "ns");
  if (cache_probes > 0) report.Layer("cache.probe_ns", ns("cache.probe"), "ns");

  report.attribution.push_back({"service.lookup", ns("service.lookup"), lookups});
  if (cache_probes > 0) {
    report.attribution.push_back(
        {"cache.probe", ns("cache.probe"), double(cache_probes)});
  }
  report.attribution.push_back({"resolve", ns("resolve"), full * k});
  report.attribution.push_back({"hash", ns("hash"), evals});
  report.attribution.push_back({"lpm.dir24_8", ns("lpm.dir24_8"), evals});
  report.attribution.push_back(
      {"lpm.nearest", ns("lpm.nearest"), double(counts.deputies)});
  report.attribution.push_back({"oracle.rtt", ns("oracle.rtt"), full * k});
  report.attribution.push_back(
      {"store.read", ns("store.read"), double(counts.probes) + full});
}

void MarkWireLayersUnmeasured(Report& report) {
  report.Unmeasured(
      "bypassed: only the wire client asks for full latency vectors",
      {"oracle.latencies_from_us", "oracle.dijkstra_per_lookup",
       "oracle.cache_hit_ratio"});
  report.Unmeasured(
      "bypassed: closed-form lookups use no event kernel, codec, serving "
      "tier or fault injector",
      {"sim.events_per_lookup", "sim.ns_per_event", "sim.peak_pending",
       "codec.encode_ns.insert_request", "codec.encode_ns.insert_ack",
       "codec.encode_ns.lookup_request", "codec.encode_ns.lookup_response",
       "codec.decode_ns.insert_request", "codec.decode_ns.insert_ack",
       "codec.decode_ns.lookup_request", "codec.decode_ns.lookup_response",
       "wire.msgs_per_lookup", "wire.bytes_per_lookup", "serve.admit_ns",
       "serve.queue_ms_mean", "serve.shed_frac",
       "fault.retransmissions_per_lookup", "fault.drops_per_lookup"});
}

}  // namespace perfbench
