#include "core/resolver_cache.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/config.h"

namespace dmap {

void CacheConfig::Validate() const {
  if (capacity == 0) return;  // disabled: nothing else matters
  if (shards < 1 || shards > ResolverCache::kMaxShards) {
    throw std::invalid_argument("CacheConfig: shards out of [1, 256]");
  }
  if (ttl_ms < 0.0) {
    throw std::invalid_argument("CacheConfig: negative ttl_ms");
  }
}

CacheConfig CacheConfig::FromConfig(const Config& config) {
  CacheConfig out;
  out.capacity = std::size_t(config.GetInt("capacity", 0));
  out.ttl_ms = config.GetDouble("ttl_ms", 0.0);
  out.shards = unsigned(config.GetInt("shards", 8));
  out.invalidate_on_update =
      config.Has("invalidate_on_update")
          ? config.GetBool("invalidate_on_update", false)
          : config.GetBool("invalidate", false);
  out.Validate();
  return out;
}

CacheConfig CacheConfig::ParseArg(const std::string& arg) {
  // A bare number is shorthand for `capacity=<n>`.
  if (!arg.empty() && arg.find('=') == std::string::npos) {
    std::string text = "capacity = " + arg;
    return FromConfig(Config::ParseString(text));
  }
  std::string text = arg;
  std::replace(text.begin(), text.end(), ',', '\n');
  return FromConfig(Config::ParseString(text));
}

ResolverCache::ResolverCache(const CacheConfig& config) : config_(config) {
  config_.Validate();
  if (!config_.enabled()) {
    throw std::invalid_argument("ResolverCache: zero capacity");
  }
  const unsigned shards =
      std::clamp(config_.shards, 1u, kMaxShards);
  per_shard_capacity_ =
      (config_.capacity + shards - 1) / shards;  // ceil; never zero
  shards_.resize(shards);
  lanes_.resize(1);
}

SimTime ResolverCache::ExpiryFor(SimTime now) const {
  if (config_.ttl_ms <= 0.0) {
    return SimTime::Millis(std::numeric_limits<double>::infinity());
  }
  return now + SimTime::Millis(config_.ttl_ms);
}

const MappingEntry* ResolverCache::Get(AsId as, const Guid& guid,
                                       SimTime now) {
  const std::uint64_t fingerprint = guid.Fingerprint64();
  Shard& shard = shards_[ShardOfFingerprint(fingerprint)];
  const std::uint32_t* found = shard.index.Find(as, guid, fingerprint);
  if (found == nullptr) {
    ++serial_.misses;
    return nullptr;
  }
  const std::uint32_t id = *found;
  if (shard.nodes[id].value.expires < now) {
    Drop(shard, id);
    ++serial_.evictions;
    ++serial_.misses;
    return nullptr;
  }
  Unlink(shard, id);  // refresh
  LinkNewest(shard, id);
  ++serial_.hits;
  return &shard.nodes[id].value.entry;
}

void ResolverCache::LinkNewest(Shard& shard, std::uint32_t id) {
  Node& node = shard.nodes[id];
  node.newer = kNoNode;
  node.older = shard.newest;
  if (shard.newest != kNoNode) shard.nodes[shard.newest].newer = id;
  shard.newest = id;
  if (shard.oldest == kNoNode) shard.oldest = id;
}

void ResolverCache::Unlink(Shard& shard, std::uint32_t id) {
  const Node& node = shard.nodes[id];
  if (node.newer == kNoNode) {
    shard.newest = node.older;
  } else {
    shard.nodes[node.newer].older = node.older;
  }
  if (node.older == kNoNode) {
    shard.oldest = node.newer;
  } else {
    shard.nodes[node.older].newer = node.newer;
  }
}

void ResolverCache::Drop(Shard& shard, std::uint32_t id) {
  Node& node = shard.nodes[id];
  const ReplicaKey key = node.key;
  Unlink(shard, id);
  shard.index.Erase(key.as, key.guid);
  // Unchain the copy: the chain's first node is named by `copies`, the
  // others by their predecessor. Chains hold one node per querier AS
  // caching the GUID, so the walk is short.
  const std::uint32_t first =
      *shard.copies.Find(kAnyAs, key.guid, key.guid.Fingerprint64());
  if (first != id) {
    std::uint32_t prev = first;
    while (shard.nodes[prev].next_copy != id) {
      prev = shard.nodes[prev].next_copy;
    }
    shard.nodes[prev].next_copy = node.next_copy;
  } else if (node.next_copy == kNoNode) {
    shard.copies.Erase(kAnyAs, key.guid);
  } else {
    shard.copies.Upsert(kAnyAs, key.guid, node.next_copy);
  }
  node = Node{};
  shard.free_nodes.push_back(id);
  --shard.live;
  ++shard.epoch;
  shard.snapshot.Log(key);
}

void ResolverCache::EvictTail(Shard& shard) {
  Drop(shard, shard.oldest);
  ++serial_.evictions;
}

void ResolverCache::PutInShard(Shard& shard, const ReplicaKey& key,
                               const Value& value) {
  const std::uint64_t fingerprint = key.guid.Fingerprint64();
  if (const std::uint32_t* found =
          shard.index.Find(key.as, key.guid, fingerprint)) {
    const std::uint32_t id = *found;
    shard.nodes[id].value = value;
    Unlink(shard, id);
    LinkNewest(shard, id);
  } else {
    const std::uint32_t id = shard.free_nodes.empty()
                                 ? std::uint32_t(shard.nodes.size())
                                 : shard.free_nodes.back();
    if (id == shard.nodes.size()) {
      shard.nodes.emplace_back();
    } else {
      shard.free_nodes.pop_back();
    }
    Node& node = shard.nodes[id];
    node.key = key;
    node.value = value;
    LinkNewest(shard, id);
    ++shard.live;
    shard.index.Reserve(shard.live);
    shard.index.Upsert(key.as, key.guid, id);
    // Push the copy onto the front of its GUID's chain.
    const std::uint32_t* first =
        shard.copies.Find(kAnyAs, key.guid, fingerprint);
    node.next_copy = first == nullptr ? kNoNode : *first;
    shard.copies.Reserve(shard.copies.size() + 1);
    shard.copies.Upsert(kAnyAs, key.guid, id);
  }
  ++shard.epoch;
  shard.snapshot.Log(key);
  if (shard.live > per_shard_capacity_) EvictTail(shard);
}

void ResolverCache::Put(AsId as, const Guid& guid, const MappingEntry& entry,
                        SimTime now) {
  Shard& shard = shards_[ShardOfFingerprint(guid.Fingerprint64())];
  PutInShard(shard, ReplicaKey{guid, as}, Value{entry, ExpiryFor(now)});
}

std::size_t ResolverCache::Invalidate(const Guid& guid) {
  // All cached copies of `guid` — one per querier AS — live in the shard
  // selected by the GUID fingerprint, on one chain; dropping the chain's
  // first node until none is left makes the whole invalidation O(copies),
  // independent of the shard population.
  const std::uint64_t fingerprint = guid.Fingerprint64();
  Shard& shard = shards_[ShardOfFingerprint(fingerprint)];
  std::size_t dropped = 0;
  while (const std::uint32_t* first =
             shard.copies.Find(kAnyAs, guid, fingerprint)) {
    Drop(shard, *first);
    ++dropped;
  }
  serial_.invalidations += dropped;
  return dropped;
}

void ResolverCache::EnsureWorkers(unsigned workers) {
  if (workers < 1) workers = 1;
  if (lanes_.size() < workers) lanes_.resize(workers);
}

const MappingEntry* ResolverCache::Probe(AsId as, const Guid& guid,
                                         std::uint64_t fingerprint,
                                         SimTime now) const {
  const Shard& shard = shards_[ShardOfFingerprint(fingerprint)];
  if (shard.snapshot_epoch != shard.epoch) {
    // Stale snapshot: report a miss. Unlike the sharded store there is no
    // mutable-map fallback — a cache miss is always correct, and the
    // mutable LRU may be mid-mutation on another discipline's path.
    return nullptr;
  }
  const Value* value = shard.snapshot.Find(as, guid, fingerprint);
  if (value == nullptr || value->expires < now) {
    return nullptr;  // absent, or expired: miss, no evict
  }
  return &value->entry;
}

void ResolverCache::TallyProbe(unsigned worker, bool hit) {
  WorkerLane& lane = lanes_[worker];
  hit ? ++lane.hits : ++lane.misses;
}

void ResolverCache::TallyStaleServed(unsigned worker) {
  ++lanes_[worker].stale_served;
}

void ResolverCache::RecordFill(unsigned worker, AsId as, const Guid& guid,
                               const MappingEntry& entry, SimTime now) {
  lanes_[worker].fills.push_back(
      Cached{ReplicaKey{guid, as}, Value{entry, ExpiryFor(now)}});
}

void ResolverCache::ApplyFills() {
  std::vector<Cached> all;
  for (WorkerLane& lane : lanes_) {
    all.insert(all.end(), lane.fills.begin(), lane.fills.end());
    lane.fills.clear();
  }
  if (all.empty()) return;
  // Canonical order: (guid words, as) groups duplicates; within a group
  // the winner is the newest logical stamp, longest expiry as tie-break.
  // The sort key is a pure function of the fill itself, so the merged
  // cache state is independent of which worker buffered which fill.
  std::sort(all.begin(), all.end(), [](const Cached& a, const Cached& b) {
    for (int w = 0; w < Guid::kWords; ++w) {
      if (a.key.guid.word(w) != b.key.guid.word(w)) {
        return a.key.guid.word(w) < b.key.guid.word(w);
      }
    }
    if (a.key.as != b.key.as) return a.key.as < b.key.as;
    if (a.value.entry.stamp() != b.value.entry.stamp()) {
      return a.value.entry.stamp() < b.value.entry.stamp();
    }
    return a.value.expires < b.value.expires;
  });
  // Groups are contiguous; the last element of each group is its winner.
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i + 1 < all.size() && all[i + 1].key == all[i].key) continue;
    Shard& shard =
        shards_[ShardOfFingerprint(all[i].key.guid.Fingerprint64())];
    PutInShard(shard, all[i].key, all[i].value);
  }
}

void ResolverCache::RefreshSnapshots() {
  for (Shard& shard : shards_) {
    if (shard.snapshot_epoch == shard.epoch) continue;
    // A logged key's current entry and deadline come from its node; a key
    // evicted or invalidated since has none.
    const bool refilled = shard.snapshot.Publish(
        shard.live,
        [&shard](const ReplicaKey& key) -> const Value* {
          const std::uint32_t* id =
              shard.index.Find(key.as, key.guid, key.guid.Fingerprint64());
          return id == nullptr ? nullptr : &shard.nodes[*id].value;
        },
        [&shard](ReplicaTable<Value>& table) {
          for (const Node& node : shard.nodes) {
            if (node.key.as == kInvalidAs) continue;
            table.Upsert(node.key.as, node.key.guid, node.value);
          }
        });
    if (refilled) ++full_rebuilds_;
    shard.snapshot_epoch = shard.epoch;
    ++snapshot_rebuilds_;
  }
}

std::size_t ResolverCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.live;
  return total;
}

bool ResolverCache::snapshots_fresh() const {
  for (const Shard& shard : shards_) {
    if (shard.snapshot_epoch != shard.epoch) return false;
  }
  return true;
}

std::uint64_t ResolverCache::hits() const {
  std::uint64_t total = serial_.hits;
  for (const WorkerLane& lane : lanes_) total += lane.hits;
  return total;
}

std::uint64_t ResolverCache::misses() const {
  std::uint64_t total = serial_.misses;
  for (const WorkerLane& lane : lanes_) total += lane.misses;
  return total;
}

std::uint64_t ResolverCache::stale_served() const {
  std::uint64_t total = serial_.stale_served;
  for (const WorkerLane& lane : lanes_) total += lane.stale_served;
  return total;
}

}  // namespace dmap
