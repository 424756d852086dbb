// DMapService: the public API of the reproduction. It glues the hash
// family, the IP-hole resolver, per-AS mapping stores and the latency
// oracle into the full DMap protocol of Section III:
//
//   * Insert / Update write the K global replicas (in parallel — update
//     latency is the max RTT over replicas) plus, when enabled, a local
//     replica at the attached AS (Section III-C);
//   * Lookup races a local and a global resolution, picks the preferred
//     replica (lowest RTT or fewest hops), and on a miss or router failure
//     falls through to the next replica, accumulating the extra round
//     trips (Sections III-D-1/3);
//   * LookupWithView models BGP-churn staleness: the querier locates
//     replicas with its own (possibly stale) prefix table while the
//     mappings sit where the authoritative table put them;
//   * Rehome implements the orphan-mapping migration that the withdrawing /
//     newly-announcing ASs perform (Section III-D-1).
//
// The service computes response times in closed form from the PathOracle.
// The wire protocol in proto/ executes the same exchanges as messages on
// the discrete-event kernel; tests assert both agree.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/prefix_table.h"
#include "common/guid.h"
#include "common/hash.h"
#include "common/thread_annotations.h"
#include "core/hole_resolver.h"
#include "event/sim_time.h"
#include "fault/failure_view.h"
#include "core/mapping.h"
#include "core/mapping_store.h"
#include "core/resolver_cache.h"
#include "obs/metrics_registry.h"
#include "obs/probe_trace.h"
#include "topo/graph.h"
#include "topo/shortest_path.h"

namespace dmap {

enum class ReplicaSelection {
  kLowestRtt,   // assumes RTT estimates to all ASs (paper's main results)
  kFewestHops,  // uses only BGP hop counts ("similar results, marginally
                // increased latencies")
};

struct DMapOptions {
  int k = 5;                    // number of global replicas
  int max_hashes = 10;          // M of Algorithm 1
  bool local_replica = true;    // Section III-C optimisation
  ReplicaSelection selection = ReplicaSelection::kLowestRtt;
  double failure_timeout_ms = 200.0;  // wait before trying the next replica
  // Retransmissions to an unresponsive replica before falling through to
  // the next one; each retry multiplies the timeout by retry_backoff
  // (fault/retry_policy.h). 0 = the single-shot behaviour, where one
  // timeout costs exactly failure_timeout_ms.
  int probe_retries = 0;
  double retry_backoff = 2.0;
  // Write-quorum discipline (DESIGN.md section 14). An update writes all
  // K global replicas (plus the local copy) regardless; write_quorum only
  // sets when the operation *completes* and what it guarantees:
  //   0  = majority of the written replica set (the default discipline);
  //   1  = the paper's fire-and-wait-all mode: completion at the slowest
  //        acknowledgement, success declared unconditionally — bit-exact
  //        with the pre-quorum behaviour;
  //   W>1 = completion at the W-th applied acknowledgement (the local
  //        replica counts as an instant ack); fewer than W reachable
  //        replicas yields ResolverStatus::kQuorumFailed, never a silent
  //        partial write.
  int write_quorum = 0;
  std::uint64_t hash_seed = 0x5eedf00dULL;
  // When false, Insert/Update skip the RTT computation (latency_ms = -1);
  // used by bulk loads where only lookups are being measured.
  bool measure_update_latency = true;
  // Route the resolver's LPM probes through an owned, epoch-versioned
  // DIR-24-8 snapshot (64 MB; rebuilt lazily at serial write points after
  // BGP churn). Resolutions are identical either way — the snapshot only
  // replaces trie walks with 1-2 array reads. Off: always walk the trie.
  bool resolver_snapshot = true;
  // Shard count of the sharded mapping store (ShardedMappingStore).
  // 0 = automatic (a power of two sized to the hardware threads). Every
  // result — lookups, latencies, exports — is identical for every value
  // (asserted by the cross-shard equivalence suite); the count only sets
  // how much read parallelism the serving path can absorb.
  int store_shards = 0;
  // Resolver-side mapping cache (core/resolver_cache.h). Disabled by
  // default (capacity 0): every lookup takes the full probe path, byte-
  // identical with the pre-cache behaviour. When enabled, Lookup and
  // LookupWithView consult the querier's cached copy before resolving any
  // replica, serve fresh hits in one intra-AS round trip, and record the
  // staleness they serve.
  CacheConfig cache;

  // Throws std::invalid_argument naming the offending field when the
  // options are inconsistent (k < 1, max_hashes < 1, negative timeout).
  // DMapService validates on construction; callers building options from
  // external input can validate earlier for better diagnostics.
  void Validate() const;
};

// Whether a backend actually implements the operation's semantics.
// Baselines return kUnsupported where their scheme has no analogue instead
// of silently diverging from the DMap behaviour. kQuorumFailed marks a
// write that could not gather its configured quorum of applied replica
// acknowledgements — the terminal outcome of the quorum discipline, never
// reported as success.
enum class ResolverStatus : std::uint8_t { kOk, kUnsupported, kQuorumFailed };

// Resolves a configured write/read quorum against `n` participating
// replicas: 0 selects a majority (n/2 + 1), any other value is clamped to
// [1, n]. Shared by the closed-form and wire paths so the two agree on
// when a quorum operation completes.
inline int ResolveQuorum(int configured, int n) {
  if (n < 1) return 1;
  if (configured == 0) return n / 2 + 1;
  return configured < 1 ? 1 : (configured > n ? n : configured);
}

// Fields every resolver operation reports, DMap and baselines alike: the
// time the operation cost, how many probes it took, and — when tracing is
// on and the operation was sampled — the full per-probe trace. UpdateResult
// and LookupResult extend this with their operation-specific payloads, so
// the observability layer needs no per-backend glue.
struct ResolverOutcome {
  double latency_ms = 0.0;
  int attempts = 0;  // probes/overlay hops issued (>= 1 once executed)
  ResolverStatus status = ResolverStatus::kOk;
  // Serving-tier accounting (src/serve/): the queue wait charged by the
  // replica that resolved the operation, and how its admission went. Every
  // backend without a capacity model — the closed form and all baselines —
  // keeps the defaults (zero-delay kServed), so the cross-backend contract
  // stays uniform; only the wire executor with a ServingTier installed
  // reports anything else. A lookup that exhausted its plan with at least
  // one probe shed reports kShed.
  double queue_delay_ms = 0.0;
  AdmissionOutcome admission = AdmissionOutcome::kServed;
  std::optional<ProbeTrace> trace;  // filled only for sampled operations
};

struct UpdateResult : ResolverOutcome {
  UpdateResult() { latency_ms = -1.0; }  // -1 = unmeasured

  std::vector<AsId> replicas;  // global replica hosts (K entries)
  int hash_evaluations = 0;    // total across replicas (hole rehashes)
  std::uint64_t version = 0;
};

struct LookupResult : ResolverOutcome {
  bool found = false;
  NaSet nas;
  AsId serving_as = kInvalidAs;
  bool served_locally = false;  // the local replica answered first
  // The querier's resolver cache answered (one intra-AS round trip, zero
  // probes). Possibly stale — the staleness is tallied in the cache.*
  // counters, never hidden.
  bool served_from_cache = false;
};

// Outcome of one batched handoff (BatchUpdate): all of a host's GUID
// updates written in a single per-destination-AS coalesced round. The
// store outcome is bit-identical to issuing the same moves as sequential
// Update calls — only the wire accounting (messages) and the completion
// model (one parallel round over destination ASes) differ.
struct BatchUpdateResult {
  ResolverStatus status = ResolverStatus::kOk;
  double latency_ms = -1.0;  // completion of the slowest destination ack
  int guids = 0;
  // BatchUpdateRequests a gateway would send: one per distinct
  // destination AS holding any of the batch's global replicas.
  std::uint64_t messages = 0;
  // The K-per-GUID InsertRequest singletons the batch replaced.
  std::uint64_t unbatched_messages = 0;
  std::uint64_t entries = 0;  // guid-replica writes carried in the batch
  // Entries the destinations actually applied (stamp gate passed). The
  // closed form always applies every entry — each move strictly advances
  // its GUID's version; the wire path can fall short under faults.
  std::uint64_t entries_applied = 0;
  int hash_evaluations = 0;
  // Per-GUID results, in move order — identical to what sequential
  // Update calls would have returned.
  std::vector<UpdateResult> per_guid;
};

class DMapService {
 public:
  // `graph` and `table` must outlive the service. `table` is the
  // authoritative prefix table governing where mappings are stored.
  DMapService(const AsGraph& graph, const PrefixTable& table,
              const DMapOptions& options);

  const DMapOptions& options() const { return options_; }
  const HoleResolver& resolver() const { return resolver_; }
  const GuidHashFamily& hash_family() const { return hashes_; }
  PathOracle& oracle() { return oracle_; }

  // Rebuilds the resolver's DIR-24-8 snapshot if BGP churn made it stale
  // (no-op when fresh or when options().resolver_snapshot is off). Serial
  // write points (Insert/Update/Rehome) call it automatically; harnesses
  // that mutate the prefix table and then go straight into a parallel
  // lookup phase should call it from the serial section in between —
  // lookups are correct either way (a stale snapshot falls back to the
  // trie), this only restores the fast path.
  void RefreshResolverSnapshot() WRITE_SERIAL_READ_SHARED() {
    resolver_.RefreshSnapshot();
  }

  // Publishes every read snapshot the serving path probes: the resolver's
  // DIR-24-8 table (above) and the mapping store's per-shard entry
  // snapshots. Call from the serial section between the last write and a
  // parallel lookup phase. Purely an optimisation — a stale snapshot
  // always falls back to the authoritative structure — but the lock-free
  // serving numbers come from reading fresh snapshots.
  void RefreshReadSnapshots() REQUIRES_ALL_SHARDS() {
    resolver_.RefreshSnapshot();
    store_.RefreshSnapshots();
    if (cache_ != nullptr) {
      cache_->ApplyFills();
      cache_->RefreshSnapshots();
    }
  }

  // The resolver-side cache; nullptr when options().cache is disabled.
  // Parallel sweeps must size its worker lanes (cache()->EnsureWorkers)
  // from the serial section, exactly like MetricsRegistry.
  ResolverCache* cache() { return cache_.get(); }
  const ResolverCache* cache() const { return cache_.get(); }

  // Advances the logical clock the closed-form cache TTL is evaluated
  // against (the closed form is otherwise timeless). Monotonic: earlier
  // times are ignored. Serial sections only.
  void AdvanceCacheTime(SimTime now) WRITE_SERIAL_READ_SHARED() {
    if (now > cache_now_) cache_now_ = now;
  }
  SimTime cache_now() const { return cache_now_; }

  // True when `stamp` is strictly behind the owner table's authoritative
  // stamp for `guid` (false for unknown GUIDs) — the staleness score for
  // cache-served reads. Read-shared: the owner table mutates only at
  // serial write points.
  bool IsStaleStamp(const Guid& guid, const LogicalStamp& stamp) const;

  // Observability (src/obs/). Both default to off: the uninstrumented hot
  // path pays a single predictable `if (ptr)` branch per operation.
  //
  // SetMetrics registers the service's instruments ("dmap.*" counters and
  // latency histograms, plus the hole resolver's "algo1.*") in `registry`
  // and accounts every subsequent operation under the worker slab selected
  // by the operation's `shard` argument. Call before the parallel phase;
  // nullptr disables.
  void SetMetrics(MetricsRegistry* registry);
  // SetTracer samples lookups by GUID (tracer->ShouldTrace) and both
  // records the trace in the tracer and returns it in the result's
  // ResolverOutcome::trace. nullptr disables.
  void SetTracer(ProbeTracer* tracer) { tracer_ = tracer; }

  // Registers a GUID currently attached at `na`. Issued by the host's
  // border gateway (the AS in `na`). The result carries the replica set and
  // the update latency — callers that only bulk-load may discard it
  // explicitly with std::ignore.
  [[nodiscard]] UpdateResult Insert(const Guid& guid, NetworkAddress na);

  // Mobility: the host moved; replaces its NA set with `na` under a new
  // version, refreshes the K global replicas, moves the local replica from
  // the previous attachment AS to the new one.
  [[nodiscard]] UpdateResult Update(const Guid& guid, NetworkAddress na);

  // Multi-homing: adds an additional NA (up to NaSet::kMaxNas) without
  // dropping existing ones.
  [[nodiscard]] UpdateResult AddAttachment(const Guid& guid,
                                           NetworkAddress na);

  // Mobility fast path: a migrating host's GUIDs updated as one batched
  // handoff. Every move must name the same attachment AS (one host, one
  // new gateway); each GUID's owner state advances exactly as Update would
  // advance it, so the stored replicas, versions and exports are
  // bit-identical to the equivalent sequence of Update calls for any
  // batch size. The result adds the batch-level accounting: one
  // BatchUpdateRequest per distinct destination AS instead of K
  // InsertRequests per GUID, completing in a single parallel round.
  [[nodiscard]] BatchUpdateResult BatchUpdate(
      const std::vector<std::pair<Guid, NetworkAddress>>& moves);

  // Removes the GUID everywhere (host going away). Returns false if
  // unknown.
  [[nodiscard]] bool Deregister(const Guid& guid);

  // Resolves `guid` from a host attached to `querier`. `shard` selects the
  // latency-oracle cache shard — parallel sweeps hand worker w shard w so
  // concurrent lookups share no mutable state (see PathOracle); the
  // default 0 is the single-threaded path.
  [[nodiscard]] LookupResult Lookup(const Guid& guid, AsId querier,
                                    unsigned shard = 0) REQUIRES_SHARD(shard);

  // Same, but replica locations are derived from `view` (the querier's
  // possibly-stale BGP table) while storage follows the authoritative
  // table. Probes that reach an AS not hosting the mapping cost a full
  // round trip and fall through to the next replica.
  [[nodiscard]] LookupResult LookupWithView(const Guid& guid, AsId querier,
                                            const PrefixTable& view,
                                            unsigned shard = 0)
      REQUIRES_SHARD(shard);

  // Marks ASs whose mapping servers are down (Section III-D-3). Probes to
  // them cost the full retry budget (TotalTimeoutCostMs over
  // failure_timeout_ms/probe_retries/retry_backoff) and fall through.
  // Equivalent to installing a FailureView of static windows.
  void SetFailedAses(const std::vector<AsId>& failed);

  // Installs a full failure schedule (fault/failure_view.h). The closed
  // form consults the static view (IsFailed); the wire protocol consults
  // the scheduled view at delivery time, so time-varying windows only take
  // effect on that path.
  void SetFailureView(const FailureView& view) { failures_ = view; }

  // Re-derives the replica set of `guid` against the current authoritative
  // table and migrates entries accordingly — the net effect of the
  // Section III-D-1 withdrawal/announcement repair protocol. Returns the
  // number of replicas that moved.
  int Rehome(const Guid& guid);

  // GUIDs whose replica at `as` was placed (hashed) inside `prefix` — the
  // mappings a withdrawal of that prefix would orphan. Feed these through
  // Rehome() after the withdrawal to run the Section III-D-1 repair.
  std::vector<Guid> GuidsStoredIn(AsId as, const Cidr& prefix) const;

  // The ordered global probe plan (host, RTT ms) a lookup from `querier`
  // would follow — first element is probed first. Exposed so tests can
  // aim failures at the replica a wire lookup will try first.
  std::vector<std::pair<AsId, double>> ProbePlan(const Guid& guid,
                                                 AsId querier);

  // Replica-store read for tests and the staleness bookkeeping: the entry
  // stored for `guid` at AS `as`, or nullptr. Goes through the shard
  // snapshot when fresh (lock-free), the mutable shard map otherwise —
  // always the same answer.
  const MappingEntry* StoreLookup(AsId as, const Guid& guid) const {
    return store_.Read(as, guid);
  }
  std::size_t StoreSizeAt(AsId as) const { return store_.SizeAt(as); }

  // Introspection for tests/benches.
  const ShardedMappingStore& store() const { return store_; }
  std::vector<std::size_t> StoreSizes() const { return store_.SizesByAs(); }
  std::uint64_t total_stored_entries() const { return total_entries_; }

 private:
  struct OwnerState {
    NaSet nas;
    std::uint64_t version = 0;
    // Writer half of the logical stamp, pinned at each version bump.
    // Rehome re-writes at the *same* (version, writer) stamp, so its
    // refresh of stored addresses rides the idempotent equal-stamp path.
    AsId writer = 0;
    std::vector<AsId> replicas;  // current global replica hosts
    AsId local_as = kInvalidAs;  // where the local copy lives
  };

  UpdateResult WriteReplicas(const Guid& guid, OwnerState& state,
                             AsId src_as, unsigned shard = 0);
  // Cache-hit service: builds the one-intra-AS-round-trip result and does
  // the staleness bookkeeping (owners_ is the authoritative stamp oracle).
  LookupResult ServeFromCache(const Guid& guid, AsId querier,
                              const MappingEntry& cached, unsigned shard,
                              char op);
  // Probe order per selection policy; uses the querier's latency vector.
  std::vector<std::pair<AsId, double>> OrderReplicas(
      AsId querier, const std::vector<AsId>& hosts, unsigned shard = 0);
  LookupResult LookupInternal(const Guid& guid, AsId querier,
                              const std::vector<AsId>& hosts, unsigned shard,
                              char op, int hash_evaluations);
  void AccountUpdate(const UpdateResult& result, CounterId op_counter,
                     unsigned shard);

  // Instrument ids, valid while metrics_ != nullptr.
  struct Instruments {
    CounterId inserts, updates, add_attachments, deregisters, rehomes,
        replicas_moved, lookups, lookup_hits, lookup_misses, local_wins,
        probes, probe_misses, probe_failures, hash_evaluations;
    HistogramId lookup_latency_ms, update_latency_ms, lookup_attempts;
  };

  const AsGraph* graph_;
  const PrefixTable* table_;
  DMapOptions options_;
  GuidHashFamily hashes_;
  HoleResolver resolver_;
  PathOracle oracle_;  // internally sharded; see REQUIRES_SHARD above
  // Mapping state: bulk-loaded/mutated at serial write points, read
  // concurrently during parallel phases — lock-free via per-shard
  // snapshots published by RefreshReadSnapshots().
  ShardedMappingStore store_ WRITE_SERIAL_READ_SHARED();
  std::unordered_map<Guid, OwnerState, GuidHash> owners_
      WRITE_SERIAL_READ_SHARED();
  FailureView failures_ WRITE_SERIAL_READ_SHARED();
  std::uint64_t total_entries_ = 0;
  // Resolver-side cache (null = disabled). Parallel phases only Probe the
  // published snapshots and buffer fills per worker; mutation happens at
  // the serial write points (ApplyFills/Invalidate/RefreshSnapshots).
  std::unique_ptr<ResolverCache> cache_;
  SimTime cache_now_ WRITE_SERIAL_READ_SHARED() = SimTime::Zero();

  MetricsRegistry* metrics_ = nullptr;
  ProbeTracer* tracer_ = nullptr;
  Instruments ins_{};
};

}  // namespace dmap
