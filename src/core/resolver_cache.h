// Resolver-side mapping cache — the one mapping cache, on the lookup hot
// path of both executors. Every border gateway keeps recently resolved
// GUID->NA mappings with a TTL; a fresh hit answers in one intra-AS round
// trip instead of an inter-AS probe (the locality argument of the
// Kademlia-caching literature in PAPERS.md).
// The cost is bounded staleness: a cached entry can outlive a mobility
// update for up to the TTL, and that staleness is *measured* (stale_served
// counters, scored against the PR 9 committed frontier), never assumed
// away.
//
// Concurrency follows the ShardedMappingStore snapshot discipline exactly:
//
//  * Entries are partitioned across shards by the GUID fingerprint alone,
//    so every AS's cached copy of one GUID lives in one shard and
//    Invalidate touches exactly one shard.
//  * Each shard owns a mutable LRU (a node pool with an open-addressing
//    index), written only from serial sections (Get/Put for single-owner
//    executors, ApplyFills for the parallel closed-form sweeps), plus an
//    immutable epoch-versioned open-addressing snapshot (DeltaSnapshot)
//    published by RefreshSnapshots(). After a shard's first publish it
//    logs every key it adds, refreshes, evicts or invalidates, and the
//    next publish patches just those slots, so a republish costs
//    O(changes), not O(shard).
//  * The parallel read path (Probe) only ever touches the snapshot —
//    lock-free, allocation-free, DMAP_HOT_PATH. A stale snapshot reports a
//    miss rather than falling back to the mutable map: for a cache a miss
//    is always correct (the caller falls through to the full probe), so
//    freshness only buys hit rate, never correctness.
//  * Fills discovered inside a parallel phase are buffered per worker
//    (RecordFill) and applied at the next serial point (ApplyFills) in a
//    canonical key order, so cache contents — and therefore hit/miss
//    streams and exports — are bit-identical for every thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/guid.h"
#include "common/thread_annotations.h"
#include "core/mapping.h"
#include "core/replica_table.h"
#include "event/sim_time.h"

namespace dmap {

class Config;

// The `--cache=` knob surface. Parsed once from an inline `k=v,...` string
// (or a config file section), never as N separate flags — the same
// convention as ServingConfig:
//
//   capacity   = 4096    # cached entries per shard-set; 0 disables
//   ttl_ms     = 200     # freshness bound; 0 = entries never expire
//   shards     = 8       # fingerprint partitions (clamped to [1, 256])
//   invalidate = false   # drop all cached copies of a GUID on update
struct CacheConfig {
  // Total cached-entry budget across all shards; 0 = caching disabled.
  std::size_t capacity = 0;
  // Freshness bound in simulated milliseconds; <= 0 = never expires (the
  // invalidate rule is then the only coherence mechanism).
  double ttl_ms = 0.0;
  // Fingerprint partitions; clamped to [1, kMaxShards].
  unsigned shards = 8;
  // Coherence mode: true models update-driven invalidation (every cached
  // copy of a GUID dropped at the update's serial point — zero staleness),
  // false models pure TTL expiry (the staleness-vs-TTL frontier).
  bool invalidate_on_update = false;

  bool enabled() const { return capacity > 0; }

  // Throws std::invalid_argument naming the offending field.
  void Validate() const;

  static CacheConfig FromConfig(const Config& config);
  // `--cache=<inline k=v,...>`: commas separate pairs; a bare number is
  // shorthand for `capacity=<n>`.
  static CacheConfig ParseArg(const std::string& arg);
};

class ResolverCache {
 public:
  static constexpr unsigned kMaxShards = 256;

  explicit ResolverCache(const CacheConfig& config);

  const CacheConfig& config() const { return config_; }

  // ---- Single-owner serial path (the wire executor, which owns a
  // private instance and drives it from one simulator loop;
  // NOT safe for concurrent callers — parallel phases use Probe/RecordFill
  // on a shared instance instead). --------------------------------------

  // Returns the cached entry for (as, guid) if present and fresh at `now`,
  // else nullptr. One index probe, then an O(1) move to the LRU front.
  // Expired entries are evicted on access. The pointer is valid until the
  // next write to the cache.
  const MappingEntry* Get(AsId as, const Guid& guid, SimTime now);

  // Inserts or refreshes (as, guid). Evicts the LRU tail on overflow.
  void Put(AsId as, const Guid& guid, const MappingEntry& entry, SimTime now);

  // ---- Serial write points (global: unreachable from parallel code). ---

  // Drops every AS's cached copy of `guid` — the invalidate-on-update
  // coherence rule. O(copies): the shard keyed by the GUID fingerprint
  // holds all copies, on one chain of pool nodes.
  // Returns the number of copies dropped.
  std::size_t Invalidate(const Guid& guid) REQUIRES_SERIAL();

  // Drains every worker's fill buffer and applies the fills in canonical
  // (fingerprint, guid, as) order, newest logical stamp winning per key —
  // an order-independent merge, so cache contents are identical no matter
  // which worker recorded which fill. Does NOT refresh snapshots.
  void ApplyFills() REQUIRES_SERIAL();

  // Republishes the per-shard read snapshots. Only shards whose mutable
  // state changed are touched, and those patch just their logged keys; a
  // shard refills its whole table only on its first publish, when its
  // entries outgrow the table's 50% load bound, or when its log outgrew a
  // quarter of the slots.
  void RefreshSnapshots() REQUIRES_SERIAL();

  // ---- Parallel phase (shared instance, closed-form sweeps). -----------

  // Sizes the per-worker fill buffers and tally slabs; serial sections
  // only.
  void EnsureWorkers(unsigned workers) REQUIRES_ALL_SHARDS();

  // Snapshot-only read: probes the shard's immutable table and returns the
  // entry when present and fresh at `now`, nullptr otherwise. A stale
  // snapshot (mutations since the last RefreshSnapshots) reports a miss —
  // correct for a cache, the caller simply takes the full-probe path.
  const MappingEntry* Probe(AsId as, const Guid& guid,
                            std::uint64_t fingerprint,
                            SimTime now) const DMAP_HOT_PATH;
  const MappingEntry* Probe(AsId as, const Guid& guid, SimTime now) const {
    return Probe(as, guid, guid.Fingerprint64(), now);
  }

  // Per-worker hit/miss/staleness tallies for Probe outcomes (the serial
  // Get path tallies internally). Increments a padded per-worker slab —
  // no locks, no allocation.
  void TallyProbe(unsigned worker, bool hit) REQUIRES_SHARD(worker);
  void TallyStaleServed(unsigned worker) REQUIRES_SHARD(worker);
  // Serial-path variant of the staleness tally.
  void CountStaleServed() { ++serial_.stale_served; }

  // Buffers a fill discovered during a parallel sweep; applied at the next
  // ApplyFills(). `worker` must be the caller's exclusive lane.
  void RecordFill(unsigned worker, AsId as, const Guid& guid,
                  const MappingEntry& entry, SimTime now)
      REQUIRES_SHARD(worker);

  // ---- Introspection (serial sections only). ---------------------------

  std::size_t size() const;
  bool snapshots_fresh() const;
  // Per-shard publishes, patched or refilled; and the refills among them.
  std::uint64_t snapshot_rebuilds() const { return snapshot_rebuilds_; }
  std::uint64_t full_rebuilds() const { return full_rebuilds_; }

  // Lifetime totals: serial-path counters plus every worker slab.
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const { return serial_.evictions; }
  std::uint64_t invalidations() const { return serial_.invalidations; }
  std::uint64_t stale_served() const;

 private:
  // What a probe hands back: the entry and its freshness deadline.
  struct Value {
    MappingEntry entry;
    SimTime expires;
  };
  // A fill buffered until the next ApplyFills.
  struct Cached {
    ReplicaKey key;
    Value value;
  };
  static constexpr std::uint32_t kNoNode = ~std::uint32_t{0};
  // One cached copy, in its shard's node pool: threaded on the shard's LRU
  // list and on the chain of copies of its GUID. `key.as == kInvalidAs`
  // marks a free node.
  struct Node {
    ReplicaKey key;
    Value value;
    std::uint32_t newer = kNoNode;
    std::uint32_t older = kNoNode;
    std::uint32_t next_copy = kNoNode;
  };
  // `copies` is keyed by the GUID alone; every key in it carries this AS.
  static constexpr AsId kAnyAs = 0;
  struct Shard {
    // Mutable authoritative LRU, written only from serial sections / the
    // single-owner executor loop: a node pool, reused through `free_nodes`,
    // linked from `newest` to `oldest`.
    std::vector<Node> nodes WRITE_SERIAL_READ_SHARED();
    std::vector<std::uint32_t> free_nodes WRITE_SERIAL_READ_SHARED();
    std::uint32_t newest = kNoNode;
    std::uint32_t oldest = kNoNode;
    std::size_t live = 0;
    // (as, guid) -> node.
    ReplicaTable<std::uint32_t> index WRITE_SERIAL_READ_SHARED();
    // guid -> first node of its chain of copies, so Invalidate is
    // O(copies) instead of an O(shard) LRU walk.
    ReplicaTable<std::uint32_t> copies WRITE_SERIAL_READ_SHARED();
    std::uint64_t epoch = 0;
    std::uint64_t snapshot_epoch = 0;  // starts fresh: both empty
    // Immutable published snapshot, written only by RefreshSnapshots;
    // every key added, refreshed or dropped is logged.
    DeltaSnapshot<Value> snapshot WRITE_SERIAL_READ_SHARED();
  };
  // Padded so adjacent workers never share a cache line.
  struct alignas(64) WorkerLane {
    std::vector<Cached> fills;  // SHARD_CONFINED(worker)
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stale_served = 0;
  };
  struct SerialCounters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t stale_served = 0;
  };

  unsigned ShardOfFingerprint(std::uint64_t fingerprint) const {
    return unsigned(fingerprint % shards_.size());
  }

  SimTime ExpiryFor(SimTime now) const;
  // Every change to a shard's entries goes through PutInShard or Drop,
  // which bump the shard's epoch and log the key for the next publish.
  void PutInShard(Shard& shard, const ReplicaKey& key, const Value& value);
  void EvictTail(Shard& shard);
  // Removes node `id` from the LRU, the index and its GUID's chain, and
  // frees it.
  static void Drop(Shard& shard, std::uint32_t id);
  static void LinkNewest(Shard& shard, std::uint32_t id);
  static void Unlink(Shard& shard, std::uint32_t id);

  CacheConfig config_;
  std::size_t per_shard_capacity_;
  std::vector<Shard> shards_;
  std::vector<WorkerLane> lanes_;
  SerialCounters serial_;
  std::uint64_t snapshot_rebuilds_ = 0;
  std::uint64_t full_rebuilds_ = 0;
};

}  // namespace dmap
