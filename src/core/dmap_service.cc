#include "core/dmap_service.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "fault/retry_policy.h"

namespace dmap {

void DMapOptions::Validate() const {
  if (k < 1) {
    throw std::invalid_argument("DMapOptions: k must be >= 1 (got " +
                                std::to_string(k) + ")");
  }
  if (max_hashes < 1) {
    throw std::invalid_argument("DMapOptions: max_hashes must be >= 1 (got " +
                                std::to_string(max_hashes) + ")");
  }
  if (!(failure_timeout_ms >= 0.0)) {  // also rejects NaN
    throw std::invalid_argument(
        "DMapOptions: failure_timeout_ms must be >= 0 (got " +
        std::to_string(failure_timeout_ms) + ")");
  }
  if (probe_retries < 0) {
    throw std::invalid_argument(
        "DMapOptions: probe_retries must be >= 0 (got " +
        std::to_string(probe_retries) + ")");
  }
  if (!(retry_backoff >= 1.0)) {  // also rejects NaN
    throw std::invalid_argument(
        "DMapOptions: retry_backoff must be >= 1 (got " +
        std::to_string(retry_backoff) + ")");
  }
  if (write_quorum < 0) {
    throw std::invalid_argument(
        "DMapOptions: write_quorum must be >= 0 (0 = majority; got " +
        std::to_string(write_quorum) + ")");
  }
  if (store_shards < 0 ||
      store_shards > int(ShardedMappingStore::kMaxShards)) {
    throw std::invalid_argument(
        "DMapOptions: store_shards must be in [0, " +
        std::to_string(ShardedMappingStore::kMaxShards) + "] (got " +
        std::to_string(store_shards) + ")");
  }
  cache.Validate();
}

DMapService::DMapService(const AsGraph& graph, const PrefixTable& table,
                         const DMapOptions& options)
    : graph_(&graph),
      table_(&table),
      options_((options.Validate(), options)),
      hashes_(options.k, options.hash_seed),
      resolver_(hashes_, table, options.max_hashes),
      oracle_(graph),
      store_(graph.num_nodes(), unsigned(options.store_shards)) {
  if (options_.resolver_snapshot) {
    // Arm the snapshot but defer the (64 MB) build to the first serial
    // write point — the prefix table is typically still being announced
    // when the service is constructed.
    resolver_.EnableSnapshot();
  }
  if (options_.cache.enabled()) {
    cache_ = std::make_unique<ResolverCache>(options_.cache);
  }
}

void DMapService::SetMetrics(MetricsRegistry* registry) {
  metrics_ = registry;
  resolver_.SetMetrics(registry);
  if (registry == nullptr) return;
  ins_.inserts = registry->Counter("dmap.inserts");
  ins_.updates = registry->Counter("dmap.updates");
  ins_.add_attachments = registry->Counter("dmap.add_attachments");
  ins_.deregisters = registry->Counter("dmap.deregisters");
  ins_.rehomes = registry->Counter("dmap.rehomes");
  ins_.replicas_moved = registry->Counter("dmap.replicas_moved");
  ins_.lookups = registry->Counter("dmap.lookups");
  ins_.lookup_hits = registry->Counter("dmap.lookup_hits");
  ins_.lookup_misses = registry->Counter("dmap.lookup_misses");
  ins_.local_wins = registry->Counter("dmap.local_wins");
  ins_.probes = registry->Counter("dmap.probes");
  ins_.probe_misses = registry->Counter("dmap.probe_misses");
  ins_.probe_failures = registry->Counter("dmap.probe_failures");
  ins_.hash_evaluations = registry->Counter("dmap.hash_evaluations");
  ins_.lookup_latency_ms = registry->Histogram(
      "dmap.lookup_latency_ms", MetricsRegistry::LatencyBoundariesMs());
  ins_.update_latency_ms = registry->Histogram(
      "dmap.update_latency_ms", MetricsRegistry::LatencyBoundariesMs());
  ins_.lookup_attempts = registry->Histogram(
      "dmap.lookup_attempts", MetricsRegistry::CountBoundaries());
}

void DMapService::AccountUpdate(const UpdateResult& result,
                                CounterId op_counter, unsigned shard) {
  metrics_->Add(op_counter, 1, shard);
  metrics_->Add(ins_.hash_evaluations,
                std::uint64_t(result.hash_evaluations), shard);
  if (result.latency_ms >= 0) {
    metrics_->Observe(ins_.update_latency_ms, result.latency_ms, shard);
  }
}

UpdateResult DMapService::WriteReplicas(const Guid& guid, OwnerState& state,
                                        AsId src_as, unsigned shard) {
  UpdateResult result;
  result.version = state.version;

  // Writes are serial by contract (store_ is WRITE_SERIAL_READ_SHARED),
  // which makes this a safe point to catch the resolver's snapshot up
  // with any BGP churn since the last write.
  resolver_.RefreshSnapshot();

  // Remove entries from replicas that are no longer in the set (only
  // happens via Rehome/Update-after-churn; the common case is a no-op).
  const std::vector<HostResolution> resolutions =
      resolver_.ResolveAll(guid, shard);
  std::vector<AsId> new_replicas;
  new_replicas.reserve(resolutions.size());
  for (const HostResolution& r : resolutions) {
    new_replicas.push_back(r.host);
    result.hash_evaluations += r.hash_count;
  }

  const MappingEntry entry{state.nas, state.version, state.writer};
  for (const HostResolution& r : resolutions) {
    if (store_.Lookup(r.host, guid) == nullptr) ++total_entries_;
    store_.Upsert(r.host, guid, entry, r.stored_address);
  }
  // Drop stale replicas (set difference; K is tiny so quadratic is fine).
  for (const AsId old_host : state.replicas) {
    if (std::find(new_replicas.begin(), new_replicas.end(), old_host) ==
        new_replicas.end()) {
      if (store_.Erase(old_host, guid)) --total_entries_;
    }
  }
  state.replicas = new_replicas;

  // Local replica at the attachment AS (Section III-C).
  if (options_.local_replica) {
    const AsId new_local = state.nas.empty() ? kInvalidAs : state.nas[0].as;
    if (state.local_as != new_local && state.local_as != kInvalidAs) {
      // The host left this AS; the old local copy is deleted unless the AS
      // also serves as a global replica.
      if (std::find(new_replicas.begin(), new_replicas.end(),
                    state.local_as) == new_replicas.end()) {
        if (store_.Erase(state.local_as, guid)) --total_entries_;
      }
    }
    if (new_local != kInvalidAs) {
      if (store_.Lookup(new_local, guid) == nullptr) ++total_entries_;
      store_.Upsert(new_local, guid, entry);
    }
    state.local_as = new_local;
  }

  result.replicas = state.replicas;
  result.attempts = int(state.replicas.size());

  // Invalidate-on-update coherence: drop every AS's cached copy at the
  // same serial write point the replicas change, so no cache can serve
  // the superseded NA set. TTL-only mode skips this — bounded staleness
  // is the trade being measured.
  if (cache_ != nullptr && options_.cache.invalidate_on_update) {
    cache_->Invalidate(guid);
  }

  // Completion timing. Replica writes go out in parallel; with the quorum
  // discipline off (write_quorum = 1) the update completes at the slowest
  // round trip (Section III-A, the paper's model, bit-exact with the
  // pre-quorum behaviour). With a quorum W >= 2 it completes at the W-th
  // applied acknowledgement — the local replica is an instant ack, a dead
  // replica never acks — and reports kQuorumFailed when fewer than W
  // replicas are reachable, at the time the last stand-in timeout fires.
  if (options_.measure_update_latency) {
    const int participants =
        int(state.replicas.size()) + (options_.local_replica ? 1 : 0);
    const int w = ResolveQuorum(options_.write_quorum, participants);
    if (w <= 1) {
      double max_rtt = 0.0;
      for (const AsId host : state.replicas) {
        max_rtt = std::max(max_rtt, oracle_.RttMs(src_as, host, shard));
      }
      result.latency_ms = max_rtt;
    } else {
      std::vector<double> acks;  // arrival times of applied acks
      acks.reserve(std::size_t(participants));
      if (options_.local_replica) acks.push_back(0.0);
      double last_resolved = 0.0;  // when the final slot acks or times out
      for (const AsId host : state.replicas) {
        const double rtt = oracle_.RttMs(src_as, host, shard);
        if (failures_.IsFailed(host)) {
          // No ack will come; the wire path's per-slot timeout stands in.
          last_resolved = std::max(
              last_resolved, std::max(options_.failure_timeout_ms, 1.5 * rtt));
          continue;
        }
        acks.push_back(rtt);
        last_resolved = std::max(last_resolved, rtt);
      }
      if (int(acks.size()) < w) {
        result.status = ResolverStatus::kQuorumFailed;
        result.latency_ms = last_resolved;
      } else {
        std::sort(acks.begin(), acks.end());
        result.latency_ms = acks[std::size_t(w - 1)];
      }
    }
  }
  return result;
}

UpdateResult DMapService::Insert(const Guid& guid, NetworkAddress na) {
  if (na.as >= graph_->num_nodes()) {
    throw std::invalid_argument("Insert: NA references unknown AS");
  }
  OwnerState& state = owners_[guid];
  state.nas = NaSet(na);
  ++state.version;
  state.writer = na.as;
  UpdateResult result = WriteReplicas(guid, state, na.as);
  if (metrics_) AccountUpdate(result, ins_.inserts, 0);
  return result;
}

UpdateResult DMapService::Update(const Guid& guid, NetworkAddress na) {
  const auto it = owners_.find(guid);
  if (it == owners_.end()) {
    throw std::invalid_argument("Update: unknown GUID (insert first)");
  }
  OwnerState& state = it->second;
  state.nas = NaSet(na);
  ++state.version;
  state.writer = na.as;
  UpdateResult result = WriteReplicas(guid, state, na.as);
  if (metrics_) AccountUpdate(result, ins_.updates, 0);
  return result;
}

BatchUpdateResult DMapService::BatchUpdate(
    const std::vector<std::pair<Guid, NetworkAddress>>& moves) {
  BatchUpdateResult batch;
  if (moves.empty()) return batch;
  // A batch models one migrating host: every GUID lands at the same new
  // attachment AS, so all updates share a source and can share messages.
  const AsId src_as = moves.front().second.as;
  for (const auto& [guid, na] : moves) {
    if (na.as >= graph_->num_nodes()) {
      throw std::invalid_argument("BatchUpdate: NA references unknown AS");
    }
    if (na.as != src_as) {
      throw std::invalid_argument(
          "BatchUpdate: all moves must share one destination AS");
    }
    if (owners_.find(guid) == owners_.end()) {
      throw std::invalid_argument("BatchUpdate: unknown GUID (insert first)");
    }
  }

  // Each GUID goes through the exact sequential-update mutation —
  // same owner-state transition, same WriteReplicas, same metrics
  // accounting — so store contents and dmap.* exports are bit-identical
  // to issuing the updates one by one. Only the message accounting (and
  // the completion time, one message wave instead of N) differs.
  std::vector<AsId> destinations;  // distinct replica-host ASes, batched
  batch.per_guid.reserve(moves.size());
  double max_latency = -1.0;
  for (const auto& [guid, na] : moves) {
    OwnerState& state = owners_.find(guid)->second;
    state.nas = NaSet(na);
    ++state.version;
    state.writer = na.as;
    UpdateResult result = WriteReplicas(guid, state, na.as);
    if (metrics_) AccountUpdate(result, ins_.updates, 0);

    batch.unbatched_messages += result.replicas.size();
    batch.entries += result.replicas.size();
    batch.hash_evaluations += result.hash_evaluations;
    max_latency = std::max(max_latency, result.latency_ms);
    if (result.status != ResolverStatus::kOk &&
        batch.status == ResolverStatus::kOk) {
      batch.status = result.status;
    }
    for (const AsId host : result.replicas) {
      if (std::find(destinations.begin(), destinations.end(), host) ==
          destinations.end()) {
        destinations.push_back(host);
      }
    }
    batch.per_guid.push_back(std::move(result));
  }
  batch.guids = int(moves.size());
  batch.messages = destinations.size();
  batch.entries_applied = batch.entries;
  batch.latency_ms = max_latency;
  return batch;
}

UpdateResult DMapService::AddAttachment(const Guid& guid, NetworkAddress na) {
  const auto it = owners_.find(guid);
  if (it == owners_.end()) {
    throw std::invalid_argument("AddAttachment: unknown GUID");
  }
  OwnerState& state = it->second;
  if (!state.nas.Add(na)) {
    throw std::invalid_argument(
        "AddAttachment: NA already present or NA set full");
  }
  ++state.version;
  state.writer = na.as;
  UpdateResult result = WriteReplicas(guid, state, na.as);
  if (metrics_) AccountUpdate(result, ins_.add_attachments, 0);
  return result;
}

bool DMapService::Deregister(const Guid& guid) {
  const auto it = owners_.find(guid);
  if (it == owners_.end()) return false;
  OwnerState& state = it->second;
  for (const AsId host : state.replicas) {
    if (store_.Erase(host, guid)) --total_entries_;
  }
  if (state.local_as != kInvalidAs) {
    if (store_.Erase(state.local_as, guid)) --total_entries_;
  }
  owners_.erase(it);
  // A deregistered GUID must not be served from any cache, whatever the
  // coherence mode.
  if (cache_ != nullptr) cache_->Invalidate(guid);
  if (metrics_) metrics_->Add(ins_.deregisters, 1, 0);
  return true;
}

std::vector<std::pair<AsId, double>> DMapService::OrderReplicas(
    AsId querier, const std::vector<AsId>& hosts, unsigned shard) {
  std::vector<std::pair<AsId, double>> ordered;
  ordered.reserve(hosts.size());
  if (options_.selection == ReplicaSelection::kLowestRtt) {
    for (const AsId host : hosts) {
      ordered.emplace_back(host, oracle_.RttMs(querier, host, shard));
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const auto& a, const auto& b) {
                return a.second != b.second ? a.second < b.second
                                            : a.first < b.first;
              });
  } else {
    // Order by hop count, but the time cost of each probe is still its
    // real RTT ("using least hop count ... leads to similar results albeit
    // with marginally increased latencies").
    std::vector<std::pair<AsId, std::uint32_t>> by_hops;
    by_hops.reserve(hosts.size());
    for (const AsId host : hosts) {
      by_hops.emplace_back(host, oracle_.Hops(querier, host, shard));
    }
    std::sort(by_hops.begin(), by_hops.end(),
              [](const auto& a, const auto& b) {
                return a.second != b.second ? a.second < b.second
                                            : a.first < b.first;
              });
    for (const auto& [host, hops] : by_hops) {
      (void)hops;
      ordered.emplace_back(host, oracle_.RttMs(querier, host, shard));
    }
  }
  return ordered;
}

LookupResult DMapService::LookupInternal(const Guid& guid, AsId querier,
                                         const std::vector<AsId>& hosts,
                                         unsigned shard, char op,
                                         int hash_evaluations) {
  LookupResult result;
  const std::uint64_t guid_fp = guid.Fingerprint64();
  ProbeTrace* trace = nullptr;
  if (tracer_ != nullptr && tracer_->ShouldTrace(guid)) {
    result.trace.emplace();
    trace = &*result.trace;
    trace->op = op;
    trace->guid_fp = guid.Fingerprint64();
    trace->querier = querier;
    trace->hash_evaluations = hash_evaluations;
  }

  // Global resolution: walk replicas in preference order; each miss or
  // failure costs time before the next probe goes out.
  double global_cost = 0.0;
  bool global_found = false;
  int probe_misses = 0;
  int probe_failures = 0;
  NaSet global_nas;
  AsId global_server = kInvalidAs;
  const MappingEntry* global_entry = nullptr;
  for (const auto& [host, rtt] : OrderReplicas(querier, hosts, shard)) {
    ++result.attempts;
    if (failures_.IsFailed(host)) {
      // The client burns its whole retry budget on a dead replica before
      // falling through (fault/retry_policy.h keeps this aligned with the
      // wire path).
      const double cost = TotalTimeoutCostMs(
          options_.failure_timeout_ms, options_.probe_retries,
          options_.retry_backoff);
      global_cost += cost;
      ++probe_failures;
      if (trace) {
        trace->probes.push_back(
            ProbeEvent{host, cost, ProbeOutcome::kFailed});
      }
      continue;
    }
    if (const MappingEntry* entry = store_.Read(host, guid, guid_fp)) {
      global_cost += rtt;
      global_found = true;
      global_nas = entry->nas;
      global_server = host;
      global_entry = entry;
      if (trace) {
        trace->probes.push_back(ProbeEvent{host, rtt, ProbeOutcome::kHit});
      }
      break;
    }
    // "GUID missing" reply: a full round trip wasted.
    global_cost += rtt;
    ++probe_misses;
    if (trace) {
      trace->probes.push_back(ProbeEvent{host, rtt, ProbeOutcome::kMiss});
    }
  }

  // Local resolution, raced in parallel (Section III-C): one intra-AS
  // round trip.
  bool local_found = false;
  double local_cost = 0.0;
  NaSet local_nas;
  if (options_.local_replica && !failures_.IsFailed(querier)) {
    if (const MappingEntry* entry = store_.Read(querier, guid, guid_fp)) {
      local_found = true;
      local_cost = 2.0 * graph_->IntraLatencyMs(querier);
      local_nas = entry->nas;
    }
  }

  if (local_found && (!global_found || local_cost <= global_cost)) {
    result.found = true;
    result.nas = local_nas;
    result.latency_ms = local_cost;
    result.serving_as = querier;
    result.served_locally = true;
  } else if (global_found) {
    result.found = true;
    result.nas = global_nas;
    result.latency_ms = global_cost;
    result.serving_as = global_server;
  } else {
    // Total miss: the querier burnt every probe.
    result.latency_ms = global_cost;
  }

  // Resolver-cache fill: remember globally served answers (a local win
  // already costs exactly what a cache hit would, so caching it buys
  // nothing). Buffered per worker lane; merged and published at the next
  // serial point.
  if (cache_ != nullptr && global_found && !result.served_locally) {
    cache_->RecordFill(shard, querier, guid, *global_entry, cache_now_);
  }

  if (metrics_) {
    metrics_->Add(ins_.lookups, 1, shard);
    metrics_->Add(result.found ? ins_.lookup_hits : ins_.lookup_misses, 1,
                  shard);
    if (result.served_locally) metrics_->Add(ins_.local_wins, 1, shard);
    metrics_->Add(ins_.probes, std::uint64_t(result.attempts), shard);
    metrics_->Add(ins_.probe_misses, std::uint64_t(probe_misses), shard);
    metrics_->Add(ins_.probe_failures, std::uint64_t(probe_failures), shard);
    metrics_->Observe(ins_.lookup_latency_ms, result.latency_ms, shard);
    metrics_->Observe(ins_.lookup_attempts, double(result.attempts), shard);
  }
  if (trace) {
    trace->found = result.found;
    trace->local_won = result.served_locally;
    trace->latency_ms = result.latency_ms;
    trace->attempts = result.attempts;
    tracer_->Record(shard, *trace);
  }
  return result;
}

bool DMapService::IsStaleStamp(const Guid& guid,
                               const LogicalStamp& stamp) const {
  const auto it = owners_.find(guid);
  if (it == owners_.end()) return false;
  return stamp < LogicalStamp{it->second.version, it->second.writer};
}

LookupResult DMapService::ServeFromCache(const Guid& guid, AsId querier,
                                         const MappingEntry& cached,
                                         unsigned shard, char op) {
  LookupResult result;
  result.found = true;
  result.nas = cached.nas;
  result.serving_as = querier;
  result.served_from_cache = true;
  result.attempts = 0;  // no replica probe left the querier AS
  result.latency_ms = 2.0 * graph_->IntraLatencyMs(querier);

  // Staleness bookkeeping: a cached stamp behind the owner table's
  // authoritative one means this lookup served a superseded NA set — the
  // cost of TTL coherence, tallied so the frontier experiments score it.
  if (IsStaleStamp(guid, cached.stamp())) cache_->TallyStaleServed(shard);

  if (metrics_) {
    metrics_->Add(ins_.lookups, 1, shard);
    metrics_->Add(ins_.lookup_hits, 1, shard);
    metrics_->Observe(ins_.lookup_latency_ms, result.latency_ms, shard);
    metrics_->Observe(ins_.lookup_attempts, 0.0, shard);
  }
  if (tracer_ != nullptr && tracer_->ShouldTrace(guid)) {
    result.trace.emplace();
    result.trace->op = op;
    result.trace->guid_fp = guid.Fingerprint64();
    result.trace->querier = querier;
    result.trace->found = true;
    result.trace->latency_ms = result.latency_ms;
    result.trace->attempts = 0;
    tracer_->Record(shard, *result.trace);
  }
  return result;
}

LookupResult DMapService::Lookup(const Guid& guid, AsId querier,
                                 unsigned shard) {
  if (querier >= graph_->num_nodes()) {
    throw std::invalid_argument("Lookup: unknown querier AS");
  }
  if (cache_ != nullptr) {
    const MappingEntry* cached =
        cache_->Probe(querier, guid, guid.Fingerprint64(), cache_now_);
    cache_->TallyProbe(shard, cached != nullptr);
    if (cached != nullptr) {
      return ServeFromCache(guid, querier, *cached, shard, 'L');
    }
  }
  std::vector<AsId> hosts;
  hosts.reserve(std::size_t(options_.k));
  int hash_evaluations = 0;
  for (const HostResolution& r : resolver_.ResolveAll(guid, shard)) {
    hosts.push_back(r.host);
    hash_evaluations += r.hash_count;
  }
  return LookupInternal(guid, querier, hosts, shard, 'L', hash_evaluations);
}

LookupResult DMapService::LookupWithView(const Guid& guid, AsId querier,
                                         const PrefixTable& view,
                                         unsigned shard) {
  if (querier >= graph_->num_nodes()) {
    throw std::invalid_argument("LookupWithView: unknown querier AS");
  }
  // The cache is consulted under any BGP view: a cached copy was filled
  // from a completed resolution, and a gateway's cache outlives its
  // (possibly stale) prefix table.
  if (cache_ != nullptr) {
    const MappingEntry* cached =
        cache_->Probe(querier, guid, guid.Fingerprint64(), cache_now_);
    cache_->TallyProbe(shard, cached != nullptr);
    if (cached != nullptr) {
      return ServeFromCache(guid, querier, *cached, shard, 'V');
    }
  }
  HoleResolver view_resolver(hashes_, view, options_.max_hashes);
  std::vector<AsId> hosts;
  hosts.reserve(std::size_t(options_.k));
  int hash_evaluations = 0;
  for (const HostResolution& r : view_resolver.ResolveAll(guid)) {
    hosts.push_back(r.host);
    hash_evaluations += r.hash_count;
  }
  return LookupInternal(guid, querier, hosts, shard, 'V', hash_evaluations);
}

std::vector<std::pair<AsId, double>> DMapService::ProbePlan(const Guid& guid,
                                                            AsId querier) {
  std::vector<AsId> hosts;
  hosts.reserve(std::size_t(options_.k));
  for (const HostResolution& r : resolver_.ResolveAll(guid)) {
    hosts.push_back(r.host);
  }
  return OrderReplicas(querier, hosts);
}

void DMapService::SetFailedAses(const std::vector<AsId>& failed) {
  failures_.SetFailed(failed);
}

int DMapService::Rehome(const Guid& guid) {
  const auto it = owners_.find(guid);
  if (it == owners_.end()) return 0;
  OwnerState& state = it->second;
  const std::vector<AsId> before = state.replicas;
  WriteReplicas(guid, state, state.nas.empty() ? 0 : state.nas[0].as);
  int moved = 0;
  for (std::size_t i = 0; i < state.replicas.size(); ++i) {
    if (i >= before.size() || before[i] != state.replicas[i]) ++moved;
  }
  if (metrics_) {
    metrics_->Add(ins_.rehomes, 1, 0);
    metrics_->Add(ins_.replicas_moved, std::uint64_t(moved), 0);
  }
  return moved;
}

std::vector<Guid> DMapService::GuidsStoredIn(AsId as,
                                             const Cidr& prefix) const {
  return store_.GuidsStoredIn(as, prefix);
}

}  // namespace dmap
