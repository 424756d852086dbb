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
//  * Each shard owns a mutable LRU (list + index map), written only from
//    serial sections (Get/Put for single-owner executors, ApplyFills for
//    the parallel closed-form sweeps), plus an immutable epoch-versioned
//    open-addressing snapshot published by RefreshSnapshots().
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
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/guid.h"
#include "common/thread_annotations.h"
#include "core/mapping.h"
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
  // else nullptr. One hash: a single index find, then an O(1) splice to
  // the LRU front. Expired entries are evicted on access.
  const MappingEntry* Get(AsId as, const Guid& guid, SimTime now);

  // Inserts or refreshes (as, guid). One hash via try_emplace on both the
  // fresh-insert and refresh paths. Evicts the LRU tail on overflow.
  void Put(AsId as, const Guid& guid, const MappingEntry& entry, SimTime now);

  // ---- Serial write points (global: unreachable from parallel code). ---

  // Drops every AS's cached copy of `guid` — the invalidate-on-update
  // coherence rule. O(copies): the shard keyed by the GUID fingerprint
  // holds all copies, found via the stored per-entry list iterators.
  // Returns the number of copies dropped.
  std::size_t Invalidate(const Guid& guid) REQUIRES_SERIAL();

  // Drains every worker's fill buffer and applies the fills in canonical
  // (fingerprint, guid, as) order, newest logical stamp winning per key —
  // an order-independent merge, so cache contents are identical no matter
  // which worker recorded which fill. Does NOT refresh snapshots.
  void ApplyFills() REQUIRES_SERIAL();

  // Republishes the per-shard read snapshots (only shards whose mutable
  // state changed are rebuilt).
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
  std::uint64_t snapshot_rebuilds() const { return snapshot_rebuilds_; }

  // Lifetime totals: serial-path counters plus every worker slab.
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const { return serial_.evictions; }
  std::uint64_t invalidations() const { return serial_.invalidations; }
  std::uint64_t stale_served() const;

 private:
  struct Key {
    Guid guid;
    AsId as = kInvalidAs;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      return std::size_t(MixTag(key.guid.Fingerprint64(), key.as));
    }
  };
  struct Cached {
    Key key;
    MappingEntry entry;
    SimTime expires;
  };
  // One open-addressing snapshot slot; `as == kInvalidAs` marks empty.
  struct Slot {
    std::uint64_t tag = 0;
    AsId as = kInvalidAs;
    Guid guid;
    MappingEntry entry;
    SimTime expires;
  };
  struct Shard {
    // Mutable authoritative LRU — front = most recent; written only from
    // serial sections / the single-owner executor loop.
    std::list<Cached> lru WRITE_SERIAL_READ_SHARED();
    std::unordered_map<Key, std::list<Cached>::iterator, KeyHash> index
        WRITE_SERIAL_READ_SHARED();
    // Inverted index: which ASes hold a cached copy of each GUID, so
    // Invalidate is O(copies) — each copy erased through its stored list
    // iterator — instead of an O(shard) LRU walk.
    std::unordered_map<Guid, std::vector<AsId>, GuidHash> holders
        WRITE_SERIAL_READ_SHARED();
    std::uint64_t epoch = 0;
    std::uint64_t snapshot_epoch = 0;  // starts fresh: both empty
    std::vector<Slot> slots WRITE_SERIAL_READ_SHARED();
    std::size_t slot_mask = 0;
  };
  struct Fill {
    Key key;
    MappingEntry entry;
    SimTime expires;
  };
  // Padded so adjacent workers never share a cache line.
  struct alignas(64) WorkerLane {
    std::vector<Fill> fills;  // SHARD_CONFINED(worker)
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

  // SplitMix64-style finalizer mixing (fingerprint, as) into the snapshot
  // probe tag and the index bucket hash — same kernel as the sharded
  // store's.
  static std::uint64_t MixTag(std::uint64_t fingerprint, AsId as) {
    std::uint64_t x =
        fingerprint ^ (std::uint64_t(as) * 0x9e3779b97f4a7c15ULL);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  unsigned ShardOfFingerprint(std::uint64_t fingerprint) const {
    return unsigned(fingerprint % shards_.size());
  }

  SimTime ExpiryFor(SimTime now) const;
  void PutInShard(Shard& shard, const Key& key, const MappingEntry& entry,
                  SimTime expires);
  void EvictTail(Shard& shard);
  static void RemoveHolder(Shard& shard, const Key& key);
  void RebuildSnapshot(Shard& shard);

  CacheConfig config_;
  std::size_t per_shard_capacity_;
  std::vector<Shard> shards_;
  std::vector<WorkerLane> lanes_;
  SerialCounters serial_;
  std::uint64_t snapshot_rebuilds_ = 0;
};

}  // namespace dmap
