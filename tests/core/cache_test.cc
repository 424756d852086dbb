// The mapping-cache contract: the single-owner Get/Put path of the
// resolver cache (MappingCacheTest) and the cache DMapService consults
// before any inter-AS probe (CachingDMapTest). The sharded, snapshot and
// fill-lane machinery is covered by resolver_cache_test.cc.
#include "core/resolver_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/dmap_service.h"
#include "sim/environment.h"

namespace dmap {
namespace {

MappingEntry Entry(AsId as, std::uint64_t version = 1) {
  return MappingEntry{NaSet(NetworkAddress{as, 1}), version};
}

// One shard so `capacity` is the exact LRU bound.
CacheConfig Config(std::size_t capacity, double ttl_ms) {
  CacheConfig config;
  config.capacity = capacity;
  config.ttl_ms = ttl_ms;
  config.shards = 1;
  return config;
}

TEST(MappingCacheTest, HitAfterPut) {
  ResolverCache cache(Config(4, 10'000.0));
  const Guid g = Guid::FromSequence(1);
  EXPECT_EQ(cache.Get(7, g, SimTime::Zero()), nullptr);
  cache.Put(7, g, Entry(7), SimTime::Zero());
  const MappingEntry* hit = cache.Get(7, g, SimTime::Seconds(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->nas.AttachedTo(7));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(MappingCacheTest, TtlExpiry) {
  ResolverCache cache(Config(4, 10'000.0));
  const Guid g = Guid::FromSequence(2);
  cache.Put(7, g, Entry(7), SimTime::Zero());
  EXPECT_NE(cache.Get(7, g, SimTime::Seconds(10)), nullptr);  // exactly at TTL
  EXPECT_EQ(cache.Get(7, g, SimTime::Seconds(10.001)), nullptr);
  EXPECT_EQ(cache.size(), 0u);  // expired entry evicted
}

TEST(MappingCacheTest, PutRefreshesTtlAndValue) {
  ResolverCache cache(Config(4, 10'000.0));
  const Guid g = Guid::FromSequence(3);
  cache.Put(7, g, Entry(7), SimTime::Zero());
  cache.Put(7, g, Entry(9), SimTime::Seconds(8));
  const MappingEntry* hit = cache.Get(7, g, SimTime::Seconds(15));
  ASSERT_NE(hit, nullptr);  // fresh until t=18
  EXPECT_TRUE(hit->nas.AttachedTo(9));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(MappingCacheTest, LruEviction) {
  ResolverCache cache(Config(2, 100'000.0));
  const Guid a = Guid::FromSequence(10), b = Guid::FromSequence(11),
             c = Guid::FromSequence(12);
  cache.Put(7, a, Entry(1), SimTime::Zero());
  cache.Put(7, b, Entry(2), SimTime::Zero());
  cache.Get(7, a, SimTime::Seconds(1));  // a now most recent
  cache.Put(7, c, Entry(3), SimTime::Seconds(2));  // evicts b
  EXPECT_NE(cache.Get(7, a, SimTime::Seconds(3)), nullptr);
  EXPECT_EQ(cache.Get(7, b, SimTime::Seconds(3)), nullptr);
  EXPECT_NE(cache.Get(7, c, SimTime::Seconds(3)), nullptr);
}

TEST(MappingCacheTest, Invalidate) {
  ResolverCache cache(Config(4, 100'000.0));
  const Guid g = Guid::FromSequence(4);
  cache.Put(7, g, Entry(7), SimTime::Zero());
  EXPECT_EQ(cache.Invalidate(g), 1u);
  EXPECT_EQ(cache.Invalidate(g), 0u);
  EXPECT_EQ(cache.Get(7, g, SimTime::Seconds(1)), nullptr);
}

TEST(MappingCacheTest, ZeroCapacityThrows) {
  EXPECT_THROW(ResolverCache(Config(0, 1'000.0)), std::invalid_argument);
}

// DMapService with its resolver cache on. Lookups fill the querier's cache
// only when a global replica answered (a local win already costs what a
// hit would), and fills become visible at the next serial point
// (RefreshReadSnapshots), so each test crosses one between lookups.
class CachingDMapTest : public testing::Test {
 protected:
  CachingDMapTest()
      : env_(BuildEnvironment(EnvironmentParams::Scaled(300, 51))) {}

  std::unique_ptr<DMapService> Service(std::size_t capacity, double ttl_ms) {
    DMapOptions o;
    o.k = 3;
    o.measure_update_latency = false;
    o.cache = Config(capacity, ttl_ms);
    return std::make_unique<DMapService>(env_.graph, env_.table, o);
  }

  // Precondition of every test: `querier` holds no replica of `guid`, so
  // its first lookup is answered globally and fills the cache.
  static bool HoldsReplica(const UpdateResult& insert, AsId querier) {
    return std::find(insert.replicas.begin(), insert.replicas.end(),
                     querier) != insert.replicas.end();
  }

  SimEnvironment env_;
};

TEST_F(CachingDMapTest, SecondLookupServedFromCache) {
  auto service = Service(128, 30'000.0);
  const Guid g = Guid::FromSequence(1);
  ASSERT_FALSE(HoldsReplica(service->Insert(g, NetworkAddress{10, 1}), 200));

  const LookupResult first = service->Lookup(g, 200);
  ASSERT_TRUE(first.found);
  EXPECT_FALSE(first.served_from_cache);

  service->RefreshReadSnapshots();
  service->AdvanceCacheTime(SimTime::Seconds(1));
  const LookupResult second = service->Lookup(g, 200);
  ASSERT_TRUE(second.found);
  EXPECT_TRUE(second.served_from_cache);
  EXPECT_EQ(service->cache()->stale_served(), 0u);
  EXPECT_DOUBLE_EQ(second.latency_ms, 2.0 * env_.graph.IntraLatencyMs(200));
  EXPECT_LE(second.latency_ms, first.latency_ms);
}

TEST_F(CachingDMapTest, CacheIsPerAs) {
  auto service = Service(128, 30'000.0);
  const Guid g = Guid::FromSequence(2);
  ASSERT_FALSE(HoldsReplica(service->Insert(g, NetworkAddress{10, 1}), 200));
  (void)service->Lookup(g, 200);
  service->RefreshReadSnapshots();
  service->AdvanceCacheTime(SimTime::Seconds(1));
  // A different AS has its own cold cache.
  EXPECT_FALSE(service->Lookup(g, 100).served_from_cache);
}

TEST_F(CachingDMapTest, StalenessDetectedAfterMobility) {
  auto service = Service(128, 30'000.0);
  const Guid g = Guid::FromSequence(3);
  ASSERT_FALSE(HoldsReplica(service->Insert(g, NetworkAddress{10, 1}), 200));
  (void)service->Lookup(g, 200);  // warm the cache
  service->RefreshReadSnapshots();

  (void)service->Update(g, NetworkAddress{20, 2});  // host moves
  service->RefreshReadSnapshots();

  service->AdvanceCacheTime(SimTime::Seconds(1));
  const LookupResult hit = service->Lookup(g, 200);
  ASSERT_TRUE(hit.found);
  EXPECT_TRUE(hit.served_from_cache);
  EXPECT_EQ(service->cache()->stale_served(), 1u);  // still points at AS 10
  EXPECT_TRUE(hit.nas.AttachedTo(10));

  // After the TTL the cache re-fetches the fresh mapping.
  service->AdvanceCacheTime(SimTime::Seconds(40));
  const LookupResult fresh = service->Lookup(g, 200);
  EXPECT_FALSE(fresh.served_from_cache);
  EXPECT_TRUE(fresh.nas.AttachedTo(20));
}

TEST_F(CachingDMapTest, HitRateGrowsWithRepeats) {
  auto service = Service(1024, 1'000'000.0);
  for (int i = 0; i < 20; ++i) {
    ASSERT_FALSE(HoldsReplica(
        service->Insert(Guid::FromSequence(std::uint64_t(100 + i)),
                        NetworkAddress{AsId(i), 1}),
        250));
  }
  for (int round = 0; round < 5; ++round) {
    service->AdvanceCacheTime(SimTime::Seconds(double(round)));
    for (int i = 0; i < 20; ++i) {
      (void)service->Lookup(Guid::FromSequence(std::uint64_t(100 + i)), 250);
    }
    service->RefreshReadSnapshots();
  }
  EXPECT_EQ(service->cache()->misses(), 20u);
  EXPECT_EQ(service->cache()->hits(), 80u);
}

}  // namespace
}  // namespace dmap
