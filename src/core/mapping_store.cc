#include "core/mapping_store.h"

#include <algorithm>
#include <thread>

namespace dmap {

bool MappingStore::Upsert(const Guid& guid, const MappingEntry& entry,
                          Ipv4Address stored_address) {
  const auto [it, inserted] =
      entries_.try_emplace(guid, Stored{entry, stored_address});
  if (inserted) return true;
  if (entry.stamp() < it->second.entry.stamp()) return false;
  it->second = Stored{entry, stored_address};
  return true;
}

const MappingEntry* MappingStore::Lookup(const Guid& guid) const {
  const auto it = entries_.find(guid);
  return it == entries_.end() ? nullptr : &it->second.entry;
}

bool MappingStore::Erase(const Guid& guid) { return entries_.erase(guid) > 0; }

void MappingStore::ForEach(
    const std::function<void(const Guid&, const MappingEntry&)>& fn) const {
  for (const auto& [guid, stored] : entries_) fn(guid, stored.entry);
}

void MappingStore::ForEachStoredIn(
    const Cidr& prefix,
    const std::function<void(const Guid&, const MappingEntry&)>& fn) const {
  for (const auto& [guid, stored] : entries_) {
    if (prefix.Contains(stored.stored_address)) fn(guid, stored.entry);
  }
}

// ---------------------------------------------------------------------------
// ShardedMappingStore
// ---------------------------------------------------------------------------

unsigned ShardedMappingStore::ResolveShardCount(unsigned requested) {
  if (requested == 0) {
    // Auto: a power of two covering the hardware threads, so a saturating
    // ThreadPool spreads snapshot probes across independent shards. Any
    // value is equally correct — the equivalence suite proves results
    // never depend on it.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    unsigned shards = 1;
    while (shards < hw && shards < kMaxShards) shards <<= 1;
    return shards;
  }
  return std::clamp(requested, 1u, kMaxShards);
}

ShardedMappingStore::ShardedMappingStore(std::uint32_t num_ases,
                                         unsigned num_shards)
    : num_ases_(num_ases), shards_(ResolveShardCount(num_shards)) {}

bool ShardedMappingStore::Upsert(AsId as, const Guid& guid,
                                 const MappingEntry& entry,
                                 Ipv4Address stored_address) {
  Shard& shard = shards_[ShardOf(guid)];
  const ReplicaKey key{guid, as};
  const auto [it, inserted] =
      shard.map.try_emplace(key, Stored{entry, stored_address});
  if (!inserted) {
    if (entry.stamp() < it->second.entry.stamp()) return false;
    it->second = Stored{entry, stored_address};
  }
  ++shard.epoch;
  shard.snapshot.Log(key);
  return true;
}

bool ShardedMappingStore::Erase(AsId as, const Guid& guid) {
  Shard& shard = shards_[ShardOf(guid)];
  const ReplicaKey key{guid, as};
  if (shard.map.erase(key) == 0) return false;
  ++shard.epoch;
  shard.snapshot.Log(key);
  return true;
}

void ShardedMappingStore::RefreshSnapshots() {
  for (Shard& shard : shards_) {
    if (shard.snapshot_epoch == shard.epoch) continue;
    const bool refilled = shard.snapshot.Publish(
        shard.map.size(),
        [&shard](const ReplicaKey& key) -> const MappingEntry* {
          const auto it = shard.map.find(key);
          return it == shard.map.end() ? nullptr : &it->second.entry;
        },
        [&shard](ReplicaTable<MappingEntry>& table) {
          for (const auto& [key, stored] : shard.map) {
            table.Upsert(key.as, key.guid, stored.entry);
          }
        });
    if (refilled) ++full_rebuilds_;
    shard.snapshot_epoch = shard.epoch;
    ++snapshot_rebuilds_;
  }
}

const MappingEntry* ShardedMappingStore::Lookup(AsId as,
                                                const Guid& guid) const {
  const Shard& shard = shards_[ShardOf(guid)];
  const auto it = shard.map.find(ReplicaKey{guid, as});
  return it == shard.map.end() ? nullptr : &it->second.entry;
}

const MappingEntry* ShardedMappingStore::Read(
    AsId as, const Guid& guid, std::uint64_t fingerprint) const {
  const Shard& shard = shards_[ShardOfFingerprint(fingerprint)];
  if (shard.snapshot_epoch != shard.epoch) {
    // Stale snapshot (mutations since the last serial refresh): the
    // mutable map is the authority. Reaching this from a parallel phase is
    // legal — the map is not being written by contract.
    const auto it = shard.map.find(ReplicaKey{guid, as});
    return it == shard.map.end() ? nullptr : &it->second.entry;
  }
  return shard.snapshot.Find(as, guid, fingerprint);
}

bool ShardedMappingStore::snapshots_fresh() const {
  for (const Shard& shard : shards_) {
    if (shard.snapshot_epoch != shard.epoch) return false;
  }
  return true;
}

std::size_t ShardedMappingStore::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.map.size();
  return total;
}

std::size_t ShardedMappingStore::SizeAt(AsId as) const {
  std::size_t count = 0;
  for (const Shard& shard : shards_) {
    // lint:allow(determinism:unordered-iteration) integer count is iteration-order independent
    for (const auto& [key, stored] : shard.map) {
      (void)stored;
      if (key.as == as) ++count;
    }
  }
  return count;
}

std::vector<std::size_t> ShardedMappingStore::SizesByAs() const {
  std::vector<std::size_t> sizes(num_ases_, 0);
  // Shards are visited in shard order and the per-AS tallies are integer
  // sums, so the merged vector is identical for every shard count.
  for (const Shard& shard : shards_) {
    // lint:allow(determinism:unordered-iteration) integer tallies are iteration-order independent
    for (const auto& [key, stored] : shard.map) {
      (void)stored;
      if (key.as < sizes.size()) ++sizes[key.as];
    }
  }
  return sizes;
}

std::vector<Guid> ShardedMappingStore::GuidsStoredIn(
    AsId as, const Cidr& prefix) const {
  std::vector<Guid> guids;
  for (const Shard& shard : shards_) {
    // lint:allow(determinism:unordered-iteration) collected GUIDs are sorted before return
    for (const auto& [key, stored] : shard.map) {
      if (key.as == as && prefix.Contains(stored.stored_address)) {
        guids.push_back(key.guid);
      }
    }
  }
  std::sort(guids.begin(), guids.end());
  return guids;
}

}  // namespace dmap
