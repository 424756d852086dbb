// Differential tests of delta-published read snapshots. The sharded store
// and the resolver cache republish a changed shard by patching only the
// keys written since its last publish; these tests drive thousands of
// random writes through tiny shards (16–64 slots, so probe chains collide
// and wrap) and, after every refresh, compare each key of the universe
// against a structure that replays the same history and publishes once —
// a first publish, hence a full rebuild of the same state. A one-shard
// model of the publish rule predicts, per refresh, whether it patched or
// refilled, and the runs must cover all three refill cases. One-shard cache
// runs are also checked against a reference LRU written from the cache's
// specification.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/mapping_store.h"
#include "core/replica_table.h"
#include "core/resolver_cache.h"

namespace dmap {
namespace {

constexpr std::uint64_t kGuids = 40;
constexpr AsId kAses = 6;
constexpr int kRefreshes = 400;

MappingEntry Entry(AsId as, std::uint64_t version) {
  return MappingEntry{NaSet(NetworkAddress{as, std::uint32_t(version)}),
                      version};
}

// Two entry pointers agree when both are null or both point at equal
// entries.
::testing::AssertionResult SameAnswer(const MappingEntry* a,
                                      const MappingEntry* b) {
  if (a == nullptr && b == nullptr) return ::testing::AssertionSuccess();
  if (a != nullptr && b != nullptr && *a == *b) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << (a == nullptr ? "miss" : "hit") << " vs "
         << (b == nullptr ? "miss" : "hit");
}

// The publish rule of one shard, replayed from the outside: the slot count
// its table was last sized to and the keys logged since its last publish.
struct PublishModel {
  std::size_t slots = 0;  // 0 until the first publish
  std::size_t logged = 0;
  int first = 0, growth = 0, overflow = 0, patches = 0;

  // Predicts whether a refresh with `entries` live entries refills the
  // table. Only called when something was logged since the last publish.
  bool FullRebuild(std::size_t entries) {
    bool full = true;
    if (slots == 0) {
      ++first;
    } else if (logged > slots / 4) {
      ++overflow;
    } else if (entries * 2 > slots) {
      ++growth;
    } else {
      ++patches;
      full = false;
    }
    if (full) slots = ReplicaTable<MappingEntry>::CapacityFor(entries);
    logged = 0;
    return full;
  }
};

// Batch sizes between refreshes: mostly a few writes, sometimes enough to
// overflow the log. Phases alternate between growing and shrinking the
// population so the table both grows and patches erases.
std::size_t BatchSize(Rng& rng, int step) {
  return step % 9 == 8 ? 30 + rng.NextBounded(90) : 1 + rng.NextBounded(6);
}
bool GrowingPhase(int step) { return (step / 30) % 2 == 0; }

// ---- Store -----------------------------------------------------------------

struct StoreOp {
  bool upsert = true;
  AsId as = 0;
  Guid guid;
  MappingEntry entry;
};

// Applies `op`; true if it changed the store (and so logged its key).
bool Apply(ShardedMappingStore& store, const StoreOp& op) {
  return op.upsert ? store.Upsert(op.as, op.guid, op.entry)
                   : store.Erase(op.as, op.guid);
}

PublishModel RunStore(unsigned shards, std::uint64_t seed) {
  PublishModel model;
  Rng rng(seed);
  ShardedMappingStore store(kAses, shards);
  std::vector<StoreOp> history;
  for (int step = 0; step < kRefreshes; ++step) {
    const std::size_t batch = BatchSize(rng, step);
    const double insert_share = GrowingPhase(step) ? 0.8 : 0.25;
    for (std::size_t i = 0; i < batch; ++i) {
      StoreOp op;
      op.upsert = rng.NextDouble() < insert_share;
      op.as = AsId(rng.NextBounded(kAses));
      op.guid = Guid::FromSequence(rng.NextBounded(kGuids));
      // Versions 1..3: some upserts are stale and rejected (no change).
      op.entry = Entry(op.as, 1 + rng.NextBounded(3));
      if (Apply(store, op)) ++model.logged;
      history.push_back(op);
    }
    const std::uint64_t full_before = store.full_rebuilds();
    const bool changed = !store.snapshots_fresh();
    store.RefreshSnapshots();
    EXPECT_TRUE(store.snapshots_fresh());
    if (shards == 1 && changed) {
      EXPECT_EQ(store.full_rebuilds() - full_before,
                model.FullRebuild(store.size()) ? 1u : 0u)
          << "step " << step;
    }

    ShardedMappingStore rebuilt(kAses, shards);
    for (const StoreOp& op : history) (void)Apply(rebuilt, op);
    rebuilt.RefreshSnapshots();
    EXPECT_EQ(rebuilt.full_rebuilds(), rebuilt.snapshot_rebuilds());
    for (std::uint64_t g = 0; g < kGuids; ++g) {
      const Guid guid = Guid::FromSequence(g);
      for (AsId as = 0; as < kAses; ++as) {
        const MappingEntry* patched = store.Read(as, guid);
        EXPECT_TRUE(SameAnswer(patched, rebuilt.Read(as, guid)))
            << "step " << step << " guid " << g << " as " << as;
        EXPECT_TRUE(SameAnswer(patched, store.Lookup(as, guid)))
            << "step " << step << " guid " << g << " as " << as;
      }
    }
    if (::testing::Test::HasFailure()) break;
  }
  return model;
}

TEST(SnapshotDeltaTest, StorePatchedSnapshotsMatchFullRebuilds) {
  PublishModel total;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const PublishModel model = RunStore(1, seed);
    total.first += model.first;
    total.growth += model.growth;
    total.overflow += model.overflow;
    total.patches += model.patches;
  }
  // Every publish path ran, patches most often.
  EXPECT_EQ(total.first, 3);
  EXPECT_GT(total.growth, 0);
  EXPECT_GT(total.overflow, 0);
  EXPECT_GT(total.patches, total.growth + total.overflow);
}

TEST(SnapshotDeltaTest, StorePatchedSnapshotsMatchAcrossShards) {
  (void)RunStore(3, 4);
}

// ---- Cache -----------------------------------------------------------------

constexpr std::size_t kCacheCapacity = 20;
constexpr double kTtlMs = 40.0;

struct CacheOp {
  enum Kind { kPut, kGet, kInvalidate, kFill, kApplyFills } kind = kPut;
  AsId as = 0;
  Guid guid;
  MappingEntry entry;
  SimTime now;
  unsigned worker = 0;
};

ResolverCache NewCache(unsigned shards) {
  CacheConfig config;
  config.capacity = kCacheCapacity;
  config.ttl_ms = kTtlMs;
  config.shards = shards;
  ResolverCache cache(config);
  cache.EnsureWorkers(2);
  return cache;
}

// Applies `op` and returns how many keys it logged: one per entry put,
// evicted, expired or invalidated.
std::size_t Apply(ResolverCache& cache, const CacheOp& op,
                  std::set<std::pair<Guid, AsId>>& pending_fills) {
  const std::uint64_t evictions = cache.evictions();
  std::size_t logged = 0;
  switch (op.kind) {
    case CacheOp::kPut:
      cache.Put(op.as, op.guid, op.entry, op.now);
      logged = 1;
      break;
    case CacheOp::kGet:
      (void)cache.Get(op.as, op.guid, op.now);
      break;
    case CacheOp::kInvalidate:
      logged = cache.Invalidate(op.guid);
      break;
    case CacheOp::kFill:
      cache.RecordFill(op.worker, op.as, op.guid, op.entry, op.now);
      pending_fills.emplace(op.guid, op.as);
      break;
    case CacheOp::kApplyFills:
      cache.ApplyFills();
      logged = pending_fills.size();
      pending_fills.clear();
      break;
  }
  return logged + std::size_t(cache.evictions() - evictions);
}

CacheOp RandomCacheOp(Rng& rng, SimTime now, bool growing) {
  CacheOp op;
  op.now = now;
  op.as = AsId(rng.NextBounded(kAses));
  op.guid = Guid::FromSequence(rng.NextBounded(kGuids / 2));
  op.entry = Entry(op.as, 1 + rng.NextBounded(3));
  op.worker = unsigned(rng.NextBounded(2));
  const double r = rng.NextDouble();
  if (r < (growing ? 0.45 : 0.15)) {
    op.kind = CacheOp::kPut;
  } else if (r < 0.6) {
    op.kind = CacheOp::kGet;
  } else if (r < (growing ? 0.65 : 0.8)) {
    op.kind = CacheOp::kInvalidate;
  } else if (r < 0.95) {
    op.kind = CacheOp::kFill;
  } else {
    op.kind = CacheOp::kApplyFills;
  }
  return op;
}

// A one-shard cache as the specification states it: a recency-ordered
// list, newest first, of at most kCacheCapacity entries; a put moves its
// key to the front and evicts from the back, an expired Get drops its key,
// and ApplyFills puts the newest fill of each key in (guid, as) order.
struct ReferenceLru {
  struct Item {
    AsId as = 0;
    Guid guid;
    MappingEntry entry;
    SimTime expires;
  };
  std::vector<Item> items;
  std::vector<Item> fills;

  std::vector<Item>::iterator Find(AsId as, const Guid& guid) {
    return std::find_if(items.begin(), items.end(), [&](const Item& item) {
      return item.as == as && item.guid == guid;
    });
  }
  void Put(const Item& put) {
    if (const auto it = Find(put.as, put.guid); it != items.end()) {
      items.erase(it);
    }
    items.insert(items.begin(), put);
    if (items.size() > kCacheCapacity) items.pop_back();
  }
  void Apply(const CacheOp& op) {
    const Item item{op.as, op.guid, op.entry,
                    op.now + SimTime::Millis(kTtlMs)};
    switch (op.kind) {
      case CacheOp::kPut:
        Put(item);
        break;
      case CacheOp::kGet:
        if (const auto it = Find(op.as, op.guid); it != items.end()) {
          const Item hit = *it;
          items.erase(it);
          if (!(hit.expires < op.now)) items.insert(items.begin(), hit);
        }
        break;
      case CacheOp::kInvalidate:
        std::erase_if(items,
                      [&](const Item& cached) { return cached.guid == op.guid; });
        break;
      case CacheOp::kFill:
        fills.push_back(item);
        break;
      case CacheOp::kApplyFills: {
        const auto order = [](const Item& a, const Item& b) {
          return std::tuple(a.guid, a.as, a.entry.stamp(), a.expires) <
                 std::tuple(b.guid, b.as, b.entry.stamp(), b.expires);
        };
        std::sort(fills.begin(), fills.end(), order);
        for (std::size_t i = 0; i < fills.size(); ++i) {
          const bool last_of_key = i + 1 == fills.size() ||
                                   fills[i + 1].guid != fills[i].guid ||
                                   fills[i + 1].as != fills[i].as;
          if (last_of_key) Put(fills[i]);
        }
        fills.clear();
        break;
      }
    }
  }
  // What a fresh snapshot must answer at `at`.
  const MappingEntry* Probe(AsId as, const Guid& guid, SimTime at) {
    const auto it = Find(as, guid);
    return it == items.end() || it->expires < at ? nullptr : &it->entry;
  }
};

PublishModel RunCache(unsigned shards, std::uint64_t seed) {
  PublishModel model;
  Rng rng(seed);
  ResolverCache cache = NewCache(shards);
  ReferenceLru reference;  // compared only when there is one shard
  std::set<std::pair<Guid, AsId>> pending;
  std::vector<CacheOp> history;
  SimTime now = SimTime::Zero();
  for (int step = 0; step < kRefreshes; ++step) {
    const std::size_t batch = BatchSize(rng, step);
    for (std::size_t i = 0; i < batch; ++i) {
      now = now + SimTime::Millis(double(rng.NextBounded(6)));
      const CacheOp op = RandomCacheOp(rng, now, GrowingPhase(step));
      model.logged += Apply(cache, op, pending);
      reference.Apply(op);
      history.push_back(op);
    }
    // The serial point: merge fills, then publish.
    CacheOp merge;
    merge.kind = CacheOp::kApplyFills;
    model.logged += Apply(cache, merge, pending);
    reference.Apply(merge);
    history.push_back(merge);
    const std::uint64_t full_before = cache.full_rebuilds();
    const bool changed = !cache.snapshots_fresh();
    cache.RefreshSnapshots();
    EXPECT_TRUE(cache.snapshots_fresh());
    if (shards == 1 && changed) {
      EXPECT_EQ(cache.full_rebuilds() - full_before,
                model.FullRebuild(cache.size()) ? 1u : 0u)
          << "step " << step;
    }

    ResolverCache rebuilt = NewCache(shards);
    std::set<std::pair<Guid, AsId>> ignored;
    for (const CacheOp& op : history) (void)Apply(rebuilt, op, ignored);
    rebuilt.RefreshSnapshots();
    EXPECT_EQ(rebuilt.full_rebuilds(), rebuilt.snapshot_rebuilds());
    EXPECT_EQ(rebuilt.size(), cache.size());
    // Probing at several times also compares the copied deadlines.
    for (const double ahead_ms : {0.0, kTtlMs / 2, kTtlMs}) {
      const SimTime at = now + SimTime::Millis(ahead_ms);
      for (std::uint64_t g = 0; g < kGuids / 2; ++g) {
        const Guid guid = Guid::FromSequence(g);
        for (AsId as = 0; as < kAses; ++as) {
          const MappingEntry* patched = cache.Probe(as, guid, at);
          EXPECT_TRUE(SameAnswer(patched, rebuilt.Probe(as, guid, at)))
              << "step " << step << " guid " << g << " as " << as
              << " ahead " << ahead_ms;
          if (shards == 1) {
            EXPECT_TRUE(SameAnswer(patched, reference.Probe(as, guid, at)))
                << "reference, step " << step << " guid " << g << " as "
                << as << " ahead " << ahead_ms;
          }
        }
      }
    }
    if (::testing::Test::HasFailure()) break;
  }
  return model;
}

TEST(SnapshotDeltaTest, CachePatchedSnapshotsMatchFullRebuilds) {
  PublishModel total;
  for (const std::uint64_t seed : {5ull, 6ull, 7ull}) {
    const PublishModel model = RunCache(1, seed);
    total.first += model.first;
    total.growth += model.growth;
    total.overflow += model.overflow;
    total.patches += model.patches;
  }
  EXPECT_EQ(total.first, 3);
  EXPECT_GT(total.growth, 0);
  EXPECT_GT(total.overflow, 0);
  EXPECT_GT(total.patches, total.growth + total.overflow);
}

TEST(SnapshotDeltaTest, CachePatchedSnapshotsMatchAcrossShards) {
  (void)RunCache(3, 8);
}

// Backward-shift deletion in a table with one free slot left, so every
// chain is long and wraps past the end of the slot array: each survivor
// stays reachable after every erase.
TEST(SnapshotDeltaTest, TableEraseKeepsEveryChainReachable) {
  ReplicaTable<int> table;
  table.Reset(8);
  ASSERT_EQ(table.capacity(), 16u);
  std::vector<std::pair<AsId, Guid>> keys;
  for (std::uint64_t g = 0; g < 15; ++g) {
    keys.emplace_back(AsId(g % 3), Guid::FromSequence(g));
    table.Upsert(keys.back().first, keys.back().second, int(g));
  }
  EXPECT_EQ(table.size(), 15u);
  for (std::size_t erased = 0; erased < keys.size(); ++erased) {
    const auto& [as, guid] = keys[erased];
    EXPECT_TRUE(table.Erase(as, guid));
    EXPECT_FALSE(table.Erase(as, guid));
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const int* found = table.Find(keys[i].first, keys[i].second,
                                    keys[i].second.Fingerprint64());
      if (i <= erased) {
        EXPECT_EQ(found, nullptr) << "key " << i;
      } else {
        ASSERT_NE(found, nullptr) << "key " << i << " after erase " << erased;
        EXPECT_EQ(*found, int(i));
      }
    }
  }
  EXPECT_EQ(table.size(), 0u);
}

// Reserve grows the table in place and keeps every entry findable.
TEST(SnapshotDeltaTest, TableReserveKeepsEntries) {
  ReplicaTable<int> table;
  for (std::uint64_t g = 0; g < 100; ++g) {
    table.Reserve(table.size() + 1);
    table.Upsert(AsId(g % 7), Guid::FromSequence(g), int(g));
    EXPECT_TRUE(table.Fits(table.size()));
  }
  EXPECT_EQ(table.capacity(), 256u);
  table.Reserve(10);  // never shrinks
  EXPECT_EQ(table.capacity(), 256u);
  for (std::uint64_t g = 0; g < 100; ++g) {
    const Guid guid = Guid::FromSequence(g);
    const int* found = table.Find(AsId(g % 7), guid, guid.Fingerprint64());
    ASSERT_NE(found, nullptr) << "key " << g;
    EXPECT_EQ(*found, int(g));
  }
}

}  // namespace
}  // namespace dmap
