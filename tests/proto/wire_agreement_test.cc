// Closed form vs the event-driven wire executor. DMapService sums RTTs
// arithmetically; ProtocolNetwork plays the same exchange out as encoded
// messages on the discrete-event kernel — probe sent, reply (found or
// missing) delivered, timeout fired for a failed AS, local and global
// resolutions racing. These cases assert the two paths agree, which
// validates the closed-form shortcut the big sweeps use, and pin the wire
// path's serving-tier and resolver-cache behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/dmap_service.h"
#include "fault/failure_view.h"
#include "proto/network.h"
#include "sim/environment.h"
#include "workload/workload.h"

namespace dmap {
namespace {

class EventDrivenTest : public testing::Test {
 protected:
  EventDrivenTest()
      : env_(BuildEnvironment(EnvironmentParams::Scaled(300, 17))) {}

  DMapOptions Options(int k = 3) {
    DMapOptions o;
    o.k = k;
    o.measure_update_latency = false;
    return o;
  }

  // The wire network configured like the closed-form `options`.
  static ProtocolNetworkOptions Wire(const DMapOptions& options) {
    ProtocolNetworkOptions o;
    o.k = options.k;
    o.local_replica = options.local_replica;
    o.failure_timeout_ms = options.failure_timeout_ms;
    o.probe_retries = options.probe_retries;
    o.retry_backoff = options.retry_backoff;
    o.write_quorum = options.write_quorum;
    return o;
  }

  // Registers `guid` at `na` on both paths; the wire load is drained.
  static void Insert(DMapService& service, ProtocolNetwork& net,
                     const Guid& guid, NetworkAddress na) {
    (void)service.Insert(guid, na);
    net.InsertAsync(guid, na, [](const UpdateResult&) {});
    net.simulator().Run();
  }

  // Registers `num_guids` workload GUIDs on both paths (and on `also`).
  WorkloadGenerator Load(DMapService& service, ProtocolNetwork& net,
                         std::uint64_t num_guids, std::uint64_t seed,
                         DMapService* also = nullptr) {
    WorkloadParams params;
    params.num_guids = num_guids;
    params.seed = seed;
    WorkloadGenerator workload(env_.graph, params);
    for (const InsertOp& op : workload.Inserts()) {
      Insert(service, net, op.guid, op.na);
      if (also != nullptr) (void)also->Insert(op.guid, op.na);
    }
    return workload;
  }

  // Starts a wire lookup `delay` from now and runs it to completion.
  static LookupResult Lookup(ProtocolNetwork& net, const Guid& guid,
                             AsId querier,
                             SimTime delay = SimTime::Zero()) {
    std::optional<LookupResult> got;
    net.simulator().Schedule(delay, [&] {
      net.LookupAsync(guid, querier, [&](const LookupResult& r) { got = r; });
    });
    net.simulator().Run();
    EXPECT_TRUE(got.has_value());
    return got.value_or(LookupResult{});
  }

  // One wire update from the current sim time, run to completion. Its
  // latency is measured when the callback fires.
  static UpdateResult Update(ProtocolNetwork& net, const Guid& guid,
                             NetworkAddress na) {
    std::optional<UpdateResult> got;
    net.InsertAsync(guid, na, [&](const UpdateResult& r) { got = r; });
    net.simulator().Run();
    EXPECT_TRUE(got.has_value());
    return got.value_or(UpdateResult{});
  }

  SimEnvironment env_;
};

TEST_F(EventDrivenTest, CompletesWithCorrectResult) {
  DMapService service(env_.graph, env_.table, Options());
  ProtocolNetwork net(env_.graph, env_.table, Wire(Options()));
  const Guid g = Guid::FromSequence(1);
  Insert(service, net, g, NetworkAddress{10, 1});

  const LookupResult got = Lookup(net, g, 200, SimTime::Millis(5));
  EXPECT_TRUE(got.found);
  EXPECT_TRUE(got.nas.AttachedTo(10));
}

TEST_F(EventDrivenTest, AgreesWithClosedFormOnSuccessfulLookups) {
  // The core cross-validation: the wire exchange must reproduce the
  // closed-form latency across many GUIDs and queriers.
  DMapService service(env_.graph, env_.table, Options());
  ProtocolNetwork net(env_.graph, env_.table, Wire(Options()));
  WorkloadGenerator workload = Load(service, net, 200, 3);

  int checked = 0;
  for (const LookupOp& op : workload.Lookups(300)) {
    const LookupResult expected = service.Lookup(op.guid, op.source);
    const LookupResult got = Lookup(net, op.guid, op.source);
    EXPECT_EQ(got.found, expected.found);
    EXPECT_NEAR(got.latency_ms, expected.latency_ms, 1e-9)
        << "guid lookup from AS " << op.source;
    EXPECT_EQ(got.served_locally, expected.served_locally);
    if (got.found) {
      EXPECT_EQ(got.nas, expected.nas);
    }
    ++checked;
  }
  EXPECT_EQ(checked, 300);
}

TEST_F(EventDrivenTest, AgreesWithClosedFormUnderFailures) {
  DMapOptions options = Options();
  options.local_replica = false;
  options.failure_timeout_ms = 321.0;
  DMapService service(env_.graph, env_.table, options);
  ProtocolNetwork net(env_.graph, env_.table, Wire(options));
  const Guid g = Guid::FromSequence(2);
  Insert(service, net, g, NetworkAddress{10, 1});

  const auto plan = service.ProbePlan(g, 99);
  service.SetFailedAses({plan[0].first});
  net.FailAs(plan[0].first);

  const LookupResult expected = service.Lookup(g, 99);
  const LookupResult got = Lookup(net, g, 99);
  EXPECT_EQ(got.found, expected.found);
  EXPECT_NEAR(got.latency_ms, expected.latency_ms, 1e-9);
  EXPECT_EQ(got.attempts, expected.attempts);
}

TEST_F(EventDrivenTest, SharedFailureViewKeepsPathsAgreeingOnTimings) {
  // One FailureView configured once must drive the closed-form and wire
  // paths to identical failure timings — and round-trip through the
  // legacy SetFailedAses API without divergence.
  DMapOptions options = Options();
  options.local_replica = false;
  options.failure_timeout_ms = 250.0;
  options.probe_retries = 2;
  options.retry_backoff = 2.5;
  DMapService service(env_.graph, env_.table, options);
  DMapService legacy(env_.graph, env_.table, options);
  ProtocolNetwork net(env_.graph, env_.table, Wire(options));

  WorkloadGenerator workload = Load(service, net, 100, 6, &legacy);

  FailureView view;
  std::vector<AsId> failed;
  for (AsId as = 2; as < env_.graph.num_nodes(); as += 7) {
    failed.push_back(as);
  }
  view.SetFailed(failed);
  service.SetFailureView(view);
  net.SetFailureView(view);
  // The legacy path is fed the view's own snapshot: all must agree.
  legacy.SetFailedAses(view.FailedAt(SimTime::Zero()));

  int with_failures = 0;
  for (const LookupOp& op : workload.Lookups(200)) {
    const LookupResult expected = service.Lookup(op.guid, op.source);
    const LookupResult via_legacy = legacy.Lookup(op.guid, op.source);
    EXPECT_EQ(via_legacy.found, expected.found);
    EXPECT_NEAR(via_legacy.latency_ms, expected.latency_ms, 1e-9);
    EXPECT_EQ(via_legacy.attempts, expected.attempts);

    // On the wire a failed querier hears no reply at all; the closed form
    // does not model querier failure, so only live queriers compare.
    if (view.IsFailed(op.source)) continue;
    const LookupResult got = Lookup(net, op.guid, op.source);
    EXPECT_EQ(got.found, expected.found);
    EXPECT_NEAR(got.latency_ms, expected.latency_ms, 1e-9)
        << "guid lookup from AS " << op.source;
    EXPECT_EQ(got.attempts, expected.attempts);
    if (expected.attempts > 1) ++with_failures;
  }
  // The schedule must actually have been exercised, not dodged.
  EXPECT_GT(with_failures, 0);
}

TEST_F(EventDrivenTest, TimeVaryingWindowsTakeEffectAtProbeTime) {
  // The wire path consults the scheduled view: a replica inside an outage
  // window is probed around, one past its recovery answers again.
  DMapOptions options = Options();
  options.local_replica = false;
  DMapService service(env_.graph, env_.table, options);
  ProtocolNetwork net(env_.graph, env_.table, Wire(options));
  const Guid g = Guid::FromSequence(42);
  Insert(service, net, g, NetworkAddress{10, 1});
  const auto plan = service.ProbePlan(g, 99);

  FailureView view;
  view.AddWindow(plan[0].first, SimTime::Zero(), SimTime::Millis(1000.0));
  net.SetFailureView(view);
  ASSERT_TRUE(view.TimeVarying());
  ASSERT_LT(net.simulator().Now().millis(), 500.0);

  // Inside the window: the first replica times out.
  const LookupResult during = Lookup(net, g, 99);
  EXPECT_TRUE(during.found);
  EXPECT_EQ(during.attempts, 2);

  // Past the window: the replica answers first-try again.
  const LookupResult after = Lookup(
      net, g, 99, SimTime::Millis(2000.0) - net.simulator().Now());
  EXPECT_TRUE(after.found);
  EXPECT_EQ(after.attempts, 1);
}

// A miss walks all K replicas and reports what they cost. On the wire each
// replica that owns a chain first hunts its deputies for the mapping
// (Section III-D-1) before answering "missing" — a cost the closed form
// does not model — so the wire charges at least the closed form's K
// round trips.
TEST_F(EventDrivenTest, MissReportsAccumulatedCost) {
  DMapOptions options = Options();
  options.local_replica = false;
  DMapService service(env_.graph, env_.table, options);
  ProtocolNetwork net(env_.graph, env_.table, Wire(options));
  const Guid unknown = Guid::FromSequence(999);

  const LookupResult expected = service.Lookup(unknown, 50);
  ASSERT_FALSE(expected.found);
  const LookupResult got = Lookup(net, unknown, 50);
  EXPECT_FALSE(got.found);
  EXPECT_GE(got.latency_ms, expected.latency_ms - 1e-9);
  EXPECT_EQ(got.attempts, options.k);
}

TEST_F(EventDrivenTest, ConcurrentLookupsDoNotInterfere) {
  DMapService service(env_.graph, env_.table, Options());
  ProtocolNetwork net(env_.graph, env_.table, Wire(Options()));
  WorkloadGenerator workload = Load(service, net, 50, 4);

  // Launch 100 lookups at staggered starts in a single simulation run.
  std::vector<std::pair<LookupOp, std::optional<LookupResult>>> flights;
  for (const LookupOp& op : workload.Lookups(100)) {
    flights.emplace_back(op, std::nullopt);
  }
  for (std::size_t i = 0; i < flights.size(); ++i) {
    net.simulator().Schedule(SimTime::Millis(double(i) * 0.37), [&, i] {
      net.LookupAsync(
          flights[i].first.guid, flights[i].first.source,
          [&flights, i](const LookupResult& r) { flights[i].second = r; });
    });
  }
  net.simulator().Run();
  for (auto& [op, result] : flights) {
    ASSERT_TRUE(result.has_value());
    const LookupResult expected = service.Lookup(op.guid, op.source);
    EXPECT_NEAR(result->latency_ms, expected.latency_ms, 1e-9);
  }
}

TEST_F(EventDrivenTest, UpdateCompletesAtMaxReplicaRtt) {
  DMapOptions options = Options();
  options.measure_update_latency = true;
  options.write_quorum = 1;  // legacy mode: done when every replica acks
  DMapService service(env_.graph, env_.table, options);
  ProtocolNetwork net(env_.graph, env_.table, Wire(options));
  const Guid g = Guid::FromSequence(10);
  Insert(service, net, g, NetworkAddress{10, 1});

  const UpdateResult expected = service.Update(g, NetworkAddress{20, 2});
  const UpdateResult got = Update(net, g, NetworkAddress{20, 2});
  // Completion time = max replica RTT from the new AS.
  double max_rtt = 0;
  for (const AsId host : got.replicas) {
    max_rtt = std::max(max_rtt, service.oracle().RttMs(20, host));
  }
  EXPECT_EQ(got.replicas, expected.replicas);
  EXPECT_NEAR(expected.latency_ms, max_rtt, 1e-9);
  EXPECT_NEAR(got.latency_ms, max_rtt, 1e-9);
  // The mapping did move.
  EXPECT_TRUE(Lookup(net, g, 50).nas.AttachedTo(20));
}

TEST_F(EventDrivenTest, UpdateCompletesAtMajorityAckByDefault) {
  DMapOptions options = Options();
  options.measure_update_latency = true;
  options.local_replica = false;  // acks come from the K globals alone
  DMapService service(env_.graph, env_.table, options);
  ProtocolNetwork net(env_.graph, env_.table, Wire(options));
  const Guid g = Guid::FromSequence(10);
  Insert(service, net, g, NetworkAddress{10, 1});

  const UpdateResult expected = service.Update(g, NetworkAddress{20, 2});
  const UpdateResult got = Update(net, g, NetworkAddress{20, 2});
  std::vector<double> acks;
  for (const AsId host : got.replicas) {
    acks.push_back(service.oracle().RttMs(20, host));
  }
  std::sort(acks.begin(), acks.end());
  const int w = ResolveQuorum(0, int(acks.size()));
  ASSERT_GE(w, 2);
  // The update is done at the W-th fastest ack, strictly before the
  // slowest replica replies.
  EXPECT_NEAR(expected.latency_ms, acks[std::size_t(w - 1)], 1e-9);
  EXPECT_NEAR(got.latency_ms, acks[std::size_t(w - 1)], 1e-9);
  EXPECT_LE(got.latency_ms, acks.back());
}

TEST_F(EventDrivenTest, UpdateComputesLatencyWhenServiceSkipsIt) {
  // With measurement off the closed form reports no update latency; the
  // wire path always measures it, as the time its callback fires.
  DMapService service(env_.graph, env_.table, Options());
  ProtocolNetwork net(env_.graph, env_.table, Wire(Options()));
  const Guid g = Guid::FromSequence(11);
  Insert(service, net, g, NetworkAddress{10, 1});

  EXPECT_LT(service.Update(g, NetworkAddress{30, 2}).latency_ms, 0.0);
  const UpdateResult got = Update(net, g, NetworkAddress{30, 2});
  EXPECT_GT(got.latency_ms, 0.0);
}

ServingConfig TierConfig() {
  ServingConfig config;
  config.enabled = true;
  config.model = ServiceModel::kDeterministic;
  config.service_rate_per_s = 2000.0;  // 0.5 ms per request
  config.bucket_rate_per_s = 0.0;      // bucket off
  return config;
}

// With an idle tier installed, a one-probe lookup costs exactly the
// closed-form network latency plus one deterministic service time.
TEST_F(EventDrivenTest, ServingTierAddsServiceTimeWhenIdle) {
  DMapOptions options = Options();
  options.local_replica = false;
  DMapService service(env_.graph, env_.table, options);
  ProtocolNetwork net(env_.graph, env_.table, Wire(options));
  const Guid g = Guid::FromSequence(21);
  Insert(service, net, g, NetworkAddress{10, 1});
  const LookupResult expected = service.Lookup(g, 77);
  ASSERT_TRUE(expected.found);
  ASSERT_EQ(expected.attempts, 1);

  ServingTier tier(TierConfig());
  net.SetServingTier(&tier);
  const LookupResult got = Lookup(net, g, 77);
  EXPECT_TRUE(got.found);
  EXPECT_EQ(got.admission, AdmissionOutcome::kServed);
  EXPECT_DOUBLE_EQ(got.queue_delay_ms, 0.0);
  EXPECT_NEAR(got.latency_ms, expected.latency_ms + 0.5, 1e-9);
}

// Two simultaneous lookups hitting the same c=1 replica: one is served at
// once, the other reports a queue wait of exactly one service time.
TEST_F(EventDrivenTest, ServingTierQueuesConcurrentArrivals) {
  DMapOptions options = Options();
  options.local_replica = false;
  DMapService service(env_.graph, env_.table, options);
  ProtocolNetwork net(env_.graph, env_.table, Wire(options));
  const Guid g = Guid::FromSequence(22);
  Insert(service, net, g, NetworkAddress{10, 1});

  ServingTier tier(TierConfig());
  net.SetServingTier(&tier);
  std::vector<LookupResult> got;
  for (int i = 0; i < 2; ++i) {
    net.LookupAsync(g, 77, [&](const LookupResult& r) { got.push_back(r); });
  }
  net.simulator().Run();
  ASSERT_EQ(got.size(), 2u);
  // Completion order = service order: first served, then queued.
  EXPECT_EQ(got[0].admission, AdmissionOutcome::kServed);
  EXPECT_EQ(got[1].admission, AdmissionOutcome::kQueued);
  EXPECT_DOUBLE_EQ(got[0].queue_delay_ms, 0.0);
  EXPECT_DOUBLE_EQ(got[1].queue_delay_ms, 0.5);
  EXPECT_NEAR(got[1].latency_ms, got[0].latency_ms + 0.5, 1e-9);
  EXPECT_EQ(tier.served(), 1u);
  EXPECT_EQ(tier.queued(), 1u);
}

// A shed is silent: the client's timeout fires and the lookup falls
// through to the next replica, which answers — overload costs a timeout
// but not the result.
TEST_F(EventDrivenTest, ShedProbeFallsThroughToNextReplica) {
  DMapOptions options = Options();
  options.local_replica = false;
  options.probe_retries = 0;
  DMapService service(env_.graph, env_.table, options);
  ProtocolNetwork net(env_.graph, env_.table, Wire(options));
  const Guid g = Guid::FromSequence(23);
  Insert(service, net, g, NetworkAddress{10, 1});

  ServingConfig config = TierConfig();
  config.bucket_rate_per_s = 1e-6;  // effectively no refill (0 = unlimited)
  config.bucket_burst = 1.0;
  ServingTier tier(config);
  net.SetServingTier(&tier);

  // The first lookup drains replica 1's only token; the second, same plan,
  // is shed there and must fall through.
  const LookupResult first = Lookup(net, g, 77);
  const LookupResult second = Lookup(net, g, 77, SimTime::Millis(500.0));
  EXPECT_TRUE(first.found);
  EXPECT_EQ(first.attempts, 1);
  EXPECT_TRUE(second.found);
  // Replicas can collide on an AS (K hashes, one owner), so the lookup may
  // shed more than once before meeting a fresh bucket — but every shed
  // costs exactly one fall-through probe.
  EXPECT_GE(second.attempts, 2);
  EXPECT_EQ(second.attempts, 1 + int(tier.shed_tokens()));
  // Resolved by a later replica's admission, so the terminal outcome is
  // served — but the detour cost at least one probe timeout on top.
  EXPECT_EQ(second.admission, AdmissionOutcome::kServed);
  EXPECT_GT(second.latency_ms, first.latency_ms);
}

// When every replica sheds, the lookup exhausts its plan and reports the
// overload: found = false with a terminal kShed admission.
TEST_F(EventDrivenTest, TotalShedReportsShedOutcome) {
  DMapOptions options = Options(/*k=*/1);
  options.local_replica = false;
  options.probe_retries = 0;
  DMapService service(env_.graph, env_.table, options);
  ProtocolNetwork net(env_.graph, env_.table, Wire(options));
  const Guid g = Guid::FromSequence(24);
  Insert(service, net, g, NetworkAddress{10, 1});

  ServingConfig config = TierConfig();
  config.bucket_rate_per_s = 1e-6;
  config.bucket_burst = 1.0;
  ServingTier tier(config);
  net.SetServingTier(&tier);

  const LookupResult first = Lookup(net, g, 77);
  const LookupResult second = Lookup(net, g, 77, SimTime::Millis(500.0));
  EXPECT_TRUE(first.found);
  EXPECT_FALSE(second.found);
  EXPECT_EQ(second.admission, AdmissionOutcome::kShed);
  EXPECT_EQ(second.attempts, 1);
  EXPECT_GT(second.latency_ms, 0.0);
}

TEST_F(EventDrivenTest, LocalWinsRaceWhenCloserEventCancelled) {
  DMapService service(env_.graph, env_.table, Options());
  ProtocolNetwork net(env_.graph, env_.table, Wire(Options()));
  const Guid g = Guid::FromSequence(5);
  Insert(service, net, g, NetworkAddress{42, 1});

  std::optional<LookupResult> got;
  int callbacks = 0;
  net.LookupAsync(g, 42, [&](const LookupResult& r) {
    got = r;
    ++callbacks;
  });
  net.simulator().Run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(callbacks, 1);  // exactly one completion despite the race
  EXPECT_TRUE(got->served_locally);
  EXPECT_NEAR(got->latency_ms, 2.0 * env_.graph.IntraLatencyMs(42), 1e-9);
}

// The resolver-side cache on the wire lookup path, TTL-only coherence: a
// repeat lookup from the same AS is served in one intra-AS round trip and
// other ASes keep their own cold caches; after a move the cached copy is
// still served — and scored stale — until its TTL runs out.
TEST_F(EventDrivenTest, ResolverCacheServesRepeatsUntilTtl) {
  ProtocolNetworkOptions options = Wire(Options());
  options.cache.capacity = 128;
  options.cache.ttl_ms = 30'000.0;
  ProtocolNetwork net(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(1);
  net.InsertAsync(g, NetworkAddress{10, 1}, [](const UpdateResult&) {});
  net.simulator().Run();

  const LookupResult first = Lookup(net, g, 200);
  const LookupResult second = Lookup(net, g, 200, SimTime::Seconds(1));
  EXPECT_FALSE(first.served_from_cache);
  EXPECT_TRUE(second.served_from_cache);
  EXPECT_NEAR(second.latency_ms, 2.0 * env_.graph.IntraLatencyMs(200), 1e-9);
  EXPECT_FALSE(Lookup(net, g, 100).served_from_cache);  // per-AS caches

  net.InsertAsync(g, NetworkAddress{20, 2}, [](const UpdateResult&) {});
  net.simulator().Run();  // the host moved
  const LookupResult stale = Lookup(net, g, 200, SimTime::Seconds(1));
  EXPECT_TRUE(stale.served_from_cache);
  EXPECT_TRUE(stale.nas.AttachedTo(10));
  EXPECT_EQ(net.cache()->stale_served(), 1u);
  const LookupResult fresh = Lookup(net, g, 200, SimTime::Seconds(40));
  EXPECT_TRUE(fresh.nas.AttachedTo(20));  // past the TTL: re-fetched
  EXPECT_EQ(net.cache()->hits(), 2u);
  EXPECT_EQ(net.cache()->misses(), 3u);
}

// A probe still in flight when the local replica answers is delivered and
// admitted by the serving tier like any other request: the server cannot
// know the client has moved on, so the probe occupies a service slot and
// its reply is discarded at the client. Fig 8's tier accounting counts it.
TEST_F(EventDrivenTest, InFlightProbeIsAdmittedAfterLocalWin) {
  DMapService service(env_.graph, env_.table, Options());
  ProtocolNetwork net(env_.graph, env_.table, Wire(Options()));
  const Guid g = Guid::FromSequence(5);
  Insert(service, net, g, NetworkAddress{42, 1});
  const auto plan = service.ProbePlan(g, 42);
  // The global probe must still be on the wire when the local copy wins.
  ASSERT_GT(plan[0].second, 2.0 * env_.graph.IntraLatencyMs(42));

  ServingTier tier(TierConfig());
  net.SetServingTier(&tier);
  std::vector<LookupResult> got;
  net.LookupAsync(g, 42, [&](const LookupResult& r) { got.push_back(r); });
  net.simulator().Run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(got[0].served_locally);
  // The local win completed the lookup, yet the first replica still
  // admitted (and served) the probe that was already on its way.
  EXPECT_EQ(tier.arrivals(), 1u);
  EXPECT_EQ(tier.served(), 1u);
  EXPECT_EQ(tier.HottestServer().first, plan[0].first);
}

}  // namespace
}  // namespace dmap
