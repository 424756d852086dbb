#include "core/resolver_cache.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace dmap {
namespace {

MappingEntry Entry(AsId as, std::uint64_t version = 1,
                   std::uint32_t writer = 0) {
  return MappingEntry{NaSet(NetworkAddress{as, 1}), version, writer};
}

CacheConfig SmallConfig(std::size_t capacity = 64, double ttl_ms = 0.0,
                        unsigned shards = 4) {
  CacheConfig config;
  config.capacity = capacity;
  config.ttl_ms = ttl_ms;
  config.shards = shards;
  return config;
}

TEST(CacheConfigTest, ParseArgBareNumberIsCapacity) {
  const CacheConfig config = CacheConfig::ParseArg("4096");
  EXPECT_EQ(config.capacity, 4096u);
  EXPECT_DOUBLE_EQ(config.ttl_ms, 0.0);
  EXPECT_TRUE(config.enabled());
}

TEST(CacheConfigTest, ParseArgKeyValuePairs) {
  const CacheConfig config =
      CacheConfig::ParseArg("capacity=1024,ttl_ms=250,shards=16");
  EXPECT_EQ(config.capacity, 1024u);
  EXPECT_DOUBLE_EQ(config.ttl_ms, 250.0);
  EXPECT_EQ(config.shards, 16u);
  EXPECT_FALSE(config.invalidate_on_update);
}

TEST(CacheConfigTest, ParseArgAcceptsBothInvalidateSpellings) {
  EXPECT_TRUE(CacheConfig::ParseArg("capacity=8,invalidate_on_update=1")
                  .invalidate_on_update);
  EXPECT_TRUE(
      CacheConfig::ParseArg("capacity=8,invalidate=true").invalidate_on_update);
  // The long spelling wins when both are present.
  EXPECT_FALSE(
      CacheConfig::ParseArg("capacity=8,invalidate=1,invalidate_on_update=0")
          .invalidate_on_update);
}

TEST(CacheConfigTest, ValidateRejectsBadFields) {
  EXPECT_THROW(CacheConfig::ParseArg("capacity=8,shards=0"),
               std::invalid_argument);
  EXPECT_THROW(CacheConfig::ParseArg("capacity=8,shards=1000"),
               std::invalid_argument);
  EXPECT_THROW(CacheConfig::ParseArg("capacity=8,ttl_ms=-1"),
               std::invalid_argument);
  // Disabled cache short-circuits field validation.
  EXPECT_NO_THROW(CacheConfig::ParseArg("capacity=0,shards=0").Validate());
}

TEST(ResolverCacheTest, ZeroCapacityConstructionThrows) {
  EXPECT_THROW(ResolverCache(SmallConfig(0)), std::invalid_argument);
}

TEST(ResolverCacheTest, SerialGetPutRoundTrip) {
  ResolverCache cache(SmallConfig());
  const Guid g = Guid::FromSequence(1);
  EXPECT_EQ(cache.Get(7, g, SimTime::Zero()), nullptr);
  cache.Put(7, g, Entry(42), SimTime::Zero());
  const MappingEntry* hit = cache.Get(7, g, SimTime::Seconds(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->nas.AttachedTo(42));
  // Same GUID, different querier AS: a distinct cache line.
  EXPECT_EQ(cache.Get(8, g, SimTime::Seconds(1)), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(ResolverCacheTest, TtlExpiryEvictsOnSerialAccess) {
  ResolverCache cache(SmallConfig(64, /*ttl_ms=*/100.0));
  const Guid g = Guid::FromSequence(2);
  cache.Put(7, g, Entry(42), SimTime::Zero());
  // A re-Put refreshes both the value and the deadline.
  cache.Put(7, g, Entry(9), SimTime::Millis(80));
  const MappingEntry* hit = cache.Get(7, g, SimTime::Millis(180));
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->nas.AttachedTo(9));
  EXPECT_EQ(cache.Get(7, g, SimTime::Millis(180.001)), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(ResolverCacheTest, ZeroTtlNeverExpires) {
  ResolverCache cache(SmallConfig(64, /*ttl_ms=*/0.0));
  const Guid g = Guid::FromSequence(3);
  cache.Put(7, g, Entry(42), SimTime::Zero());
  EXPECT_NE(cache.Get(7, g, SimTime::Seconds(1e9)), nullptr);
}

TEST(ResolverCacheTest, InvalidateDropsEveryHolder) {
  ResolverCache cache(SmallConfig());
  const Guid g = Guid::FromSequence(4);
  const Guid other = Guid::FromSequence(5);
  for (AsId as = 1; as <= 5; ++as) {
    cache.Put(as, g, Entry(42), SimTime::Zero());
  }
  cache.Put(1, other, Entry(9), SimTime::Zero());
  EXPECT_EQ(cache.Invalidate(g), 5u);
  EXPECT_EQ(cache.invalidations(), 5u);
  EXPECT_EQ(cache.Invalidate(g), 0u);  // already gone
  for (AsId as = 1; as <= 5; ++as) {
    EXPECT_EQ(cache.Get(as, g, SimTime::Seconds(1)), nullptr);
  }
  // Unrelated GUIDs survive.
  EXPECT_NE(cache.Get(1, other, SimTime::Seconds(1)), nullptr);
}

TEST(ResolverCacheTest, ProbeSeesOnlyPublishedSnapshots) {
  ResolverCache cache(SmallConfig());
  const Guid g = Guid::FromSequence(6);
  cache.Put(7, g, Entry(42), SimTime::Zero());
  // Mutations since the last RefreshSnapshots: Probe must miss, not fall
  // back to the mutable LRU.
  EXPECT_FALSE(cache.snapshots_fresh());
  EXPECT_EQ(cache.Probe(7, g, SimTime::Seconds(1)), nullptr);
  cache.RefreshSnapshots();
  EXPECT_TRUE(cache.snapshots_fresh());
  const MappingEntry* hit = cache.Probe(7, g, SimTime::Seconds(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->nas.AttachedTo(42));
  // A later mutation stales only the touched shard's snapshot.
  cache.Put(8, g, Entry(42), SimTime::Seconds(2));
  EXPECT_EQ(cache.Probe(7, g, SimTime::Seconds(2)), nullptr);
}

TEST(ResolverCacheTest, ProbeRespectsTtlWithoutEvicting) {
  ResolverCache cache(SmallConfig(64, /*ttl_ms=*/100.0));
  const Guid g = Guid::FromSequence(7);
  cache.Put(7, g, Entry(42), SimTime::Zero());
  cache.RefreshSnapshots();
  EXPECT_NE(cache.Probe(7, g, SimTime::Millis(100)), nullptr);
  EXPECT_EQ(cache.Probe(7, g, SimTime::Millis(101)), nullptr);
  // The snapshot path never mutates: the entry is still resident.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(ResolverCacheTest, ApplyFillsIsLaneOrderIndependent) {
  // The same set of fills, buffered under opposite worker assignments,
  // must produce identical cache contents: the merge sorts by a pure
  // function of the fill itself, never by lane index.
  struct Fill {
    AsId as;
    std::uint64_t seq;
    std::uint64_t version;
  };
  const std::vector<Fill> fills = {
      {10, 1, 1}, {11, 1, 3}, {10, 2, 2}, {11, 2, 1}, {10, 1, 2},
  };
  ResolverCache forward(SmallConfig());
  ResolverCache reversed(SmallConfig());
  forward.EnsureWorkers(2);
  reversed.EnsureWorkers(2);
  for (std::size_t i = 0; i < fills.size(); ++i) {
    const Fill& f = fills[i];
    const Guid g = Guid::FromSequence(f.seq);
    forward.RecordFill(unsigned(i % 2), f.as, g, Entry(AsId(20), f.version),
                       SimTime::Zero());
    reversed.RecordFill(unsigned((i + 1) % 2), f.as, g,
                        Entry(AsId(20), f.version), SimTime::Zero());
  }
  forward.ApplyFills();
  reversed.ApplyFills();
  EXPECT_EQ(forward.size(), 4u);  // (10,1) deduped: one entry per key
  EXPECT_EQ(forward.size(), reversed.size());
  for (const Fill& f : fills) {
    const Guid g = Guid::FromSequence(f.seq);
    const MappingEntry* a = forward.Get(f.as, g, SimTime::Seconds(1));
    const MappingEntry* b = reversed.Get(f.as, g, SimTime::Seconds(1));
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->version, b->version);
  }
  // Duplicate key (as=10, seq=1): the newest logical stamp wins.
  EXPECT_EQ(
      forward.Get(10, Guid::FromSequence(1), SimTime::Seconds(1))->version,
      2u);
}

TEST(ResolverCacheTest, WorkerTalliesFoldIntoTotals) {
  ResolverCache cache(SmallConfig());
  cache.EnsureWorkers(3);
  cache.TallyProbe(0, true);
  cache.TallyProbe(1, true);
  cache.TallyProbe(2, false);
  cache.TallyStaleServed(1);
  cache.CountStaleServed();
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.stale_served(), 2u);
}

TEST(ResolverCacheTest, CapacityOverflowEvictsLru) {
  // One shard so the LRU order is global; capacity 3.
  ResolverCache cache(SmallConfig(3, 0.0, /*shards=*/1));
  for (std::uint64_t i = 0; i < 3; ++i) {
    cache.Put(7, Guid::FromSequence(i), Entry(42), SimTime::Zero());
  }
  // Touch 0 so the tail is 1; the next insert evicts it.
  EXPECT_NE(cache.Get(7, Guid::FromSequence(0), SimTime::Seconds(1)), nullptr);
  cache.Put(7, Guid::FromSequence(3), Entry(42), SimTime::Seconds(2));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Get(7, Guid::FromSequence(1), SimTime::Seconds(3)), nullptr);
  EXPECT_NE(cache.Get(7, Guid::FromSequence(0), SimTime::Seconds(3)), nullptr);
}

TEST(ResolverCacheTest, EvictionOrderIsDeterministic) {
  // Eviction follows pure LRU recency — a function of the access sequence
  // alone, never of hash-table iteration order. Re-running the identical
  // sequence must evict the identical keys, and the survivors are exactly
  // the `capacity` most recently touched.
  for (int run = 0; run < 2; ++run) {
    ResolverCache cache(SmallConfig(3, 0.0, /*shards=*/1));
    for (std::uint64_t i = 0; i < 8; ++i) {
      cache.Put(7, Guid::FromSequence(i), Entry(AsId(i)), SimTime::Zero());
    }
    // Touch 5 so the recency order is {5, 7, 6}, then insert 8: evicts 6.
    ASSERT_NE(cache.Get(7, Guid::FromSequence(5), SimTime::Seconds(1)),
              nullptr);
    cache.Put(7, Guid::FromSequence(8), Entry(8), SimTime::Seconds(2));
    EXPECT_EQ(cache.size(), 3u);
    for (const std::uint64_t survivor : {5ull, 7ull, 8ull}) {
      EXPECT_NE(cache.Get(7, Guid::FromSequence(survivor), SimTime::Seconds(3)),
                nullptr)
          << "run " << run << " survivor " << survivor;
    }
    for (const std::uint64_t evicted : {0ull, 1ull, 2ull, 3ull, 4ull, 6ull}) {
      EXPECT_EQ(cache.Get(7, Guid::FromSequence(evicted), SimTime::Seconds(3)),
                nullptr)
          << "run " << run << " evicted " << evicted;
    }
  }
}

TEST(ResolverCacheTest, SnapshotRebuildsOnlyDirtyShards) {
  ResolverCache cache(SmallConfig(64, 0.0, /*shards=*/4));
  for (std::uint64_t i = 0; i < 16; ++i) {
    cache.Put(7, Guid::FromSequence(i), Entry(42), SimTime::Zero());
  }
  cache.RefreshSnapshots();
  const std::uint64_t after_first = cache.snapshot_rebuilds();
  EXPECT_GE(after_first, 1u);
  cache.RefreshSnapshots();  // nothing dirty: no work
  EXPECT_EQ(cache.snapshot_rebuilds(), after_first);
  cache.Put(7, Guid::FromSequence(0), Entry(43, 2), SimTime::Seconds(1));
  cache.RefreshSnapshots();  // exactly one shard went stale
  EXPECT_EQ(cache.snapshot_rebuilds(), after_first + 1);
}

}  // namespace
}  // namespace dmap
