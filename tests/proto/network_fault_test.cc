// Fault-model behaviour of the wire protocol: delivery-time failure
// semantics, bounded retransmission with backoff, late-reply resolution,
// the availability invariant, and lookup-triggered re-replication.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "bgp/churn.h"
#include "core/dmap_service.h"
#include "fault/fault_plan.h"
#include "fault/retry_policy.h"
#include "proto/network.h"
#include "sim/environment.h"
#include "workload/workload.h"

namespace dmap {
namespace {

class NetworkFaultTest : public testing::Test {
 protected:
  NetworkFaultTest()
      : env_(BuildEnvironment(EnvironmentParams::Scaled(300, 61))) {}

  ProtocolNetworkOptions Options(int k = 3) {
    ProtocolNetworkOptions o;
    o.k = k;
    o.local_replica = false;
    return o;
  }

  // The probe order a client at `querier` uses, from a closed-form
  // reference configured like `options`.
  std::vector<std::pair<AsId, double>> ReferencePlan(
      const ProtocolNetworkOptions& options, const Guid& guid,
      NetworkAddress na, AsId querier) {
    DMapOptions ref;
    ref.k = options.k;
    ref.local_replica = options.local_replica;
    DMapService reference(env_.graph, env_.table, ref);
    (void)reference.Insert(guid, na);
    return reference.ProbePlan(guid, querier);
  }

  // Finds a GUID for which wiping the first-probe replica leads to a real
  // "missing" reply and a client-side repair. (A wiped chain owner first
  // hunts its deputies — Section III-D-1 — and when a deputy happens to
  // hold the entry the migration itself refills the store; those GUIDs
  // exercise a different path than the one these tests are about.)
  std::uint64_t FindRepairableSeq(const ProtocolNetworkOptions& options,
                                  AsId querier, NetworkAddress na) {
    for (std::uint64_t seq = 100; seq < 200; ++seq) {
      const Guid g = Guid::FromSequence(seq);
      ProtocolNetwork net(env_.graph, env_.table, options);
      bool inserted = false;
      net.InsertAsync(g, na, [&](const UpdateResult&) { inserted = true; });
      net.simulator().Run();
      if (!inserted) continue;
      const auto plan = ReferencePlan(options, g, na, querier);
      if (plan[0].first == plan[1].first) continue;
      net.node(plan[0].first).store().Clear();
      std::optional<LookupResult> result;
      net.LookupAsync(g, querier,
                      [&](const LookupResult& r) { result = r; });
      net.simulator().Run();
      if (result.has_value() && result->found && result->attempts == 2 &&
          net.repairs_sent() == 1 &&
          net.node(plan[0].first).store().Lookup(g) != nullptr) {
        return seq;
      }
    }
    return 0;  // caller ASSERTs
  }

  std::uint64_t TotalMigrationHunts(ProtocolNetwork& net) {
    std::uint64_t hunts = 0;
    for (AsId as = 0; as < env_.graph.num_nodes(); ++as) {
      hunts += net.node(as).stats().migrations_requested;
    }
    return hunts;
  }

  SimEnvironment env_;
};

// Satellite regression: failure semantics are decided at *delivery* time.
// A failure landing while the probe is in flight swallows it even though
// the destination was alive at send time.
TEST_F(NetworkFaultTest, FailureLandingMidFlightDropsTheRequest) {
  const ProtocolNetworkOptions options = Options();
  ProtocolNetwork net(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(1);
  const NetworkAddress na{10, 1};
  bool inserted = false;
  net.InsertAsync(g, na, [&](const UpdateResult&) { inserted = true; });
  net.simulator().Run();
  ASSERT_TRUE(inserted);

  const AsId querier = 123;
  const auto plan = ReferencePlan(options, g, na, querier);
  ASSERT_NE(plan[0].first, plan[1].first);
  const double one_way = net.oracle().OneWayMs(querier, plan[0].first);

  const std::uint64_t dropped_before = net.messages_dropped();
  std::optional<LookupResult> result;
  net.LookupAsync(g, querier, [&](const LookupResult& r) { result = r; });
  // The destination dies after the probe went out but before it arrives.
  net.simulator().Schedule(SimTime::Millis(0.5 * one_way),
                           [&net, as = plan[0].first] { net.FailAs(as); });
  net.simulator().Run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->found);
  EXPECT_EQ(result->attempts, 2);
  const double expected_timeout =
      std::max(options.failure_timeout_ms, 1.5 * plan[0].second);
  EXPECT_NEAR(result->latency_ms, expected_timeout + plan[1].second, 1e-4);
  EXPECT_GT(net.messages_dropped(), dropped_before);
}

// The mirror image: a probe sent while the destination is down is
// *delivered* if the destination recovers before the message lands.
TEST_F(NetworkFaultTest, RecoveryLandingMidFlightDeliversTheRequest) {
  const ProtocolNetworkOptions options = Options();
  ProtocolNetwork net(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(2);
  const NetworkAddress na{10, 1};
  bool inserted = false;
  net.InsertAsync(g, na, [&](const UpdateResult&) { inserted = true; });
  net.simulator().Run();
  ASSERT_TRUE(inserted);

  const AsId querier = 123;
  const auto plan = ReferencePlan(options, g, na, querier);
  const double one_way = net.oracle().OneWayMs(querier, plan[0].first);

  net.FailAs(plan[0].first);  // down when the probe is sent...
  std::optional<LookupResult> result;
  net.LookupAsync(g, querier, [&](const LookupResult& r) { result = r; });
  // ...but back up before it can arrive.
  net.simulator().Schedule(
      SimTime::Millis(0.5 * one_way),
      [&net, as = plan[0].first] { net.RecoverAs(as); });
  net.simulator().Run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->found);
  EXPECT_EQ(result->attempts, 1);
  EXPECT_NEAR(result->latency_ms, plan[0].second, 1e-4);
  EXPECT_EQ(net.messages_dropped(), 0u);
}

// The availability invariant, first half: with fewer than K replica hosts
// failed, every lookup resolves — with and without a retry budget.
TEST_F(NetworkFaultTest, FewerThanKFailuresNeverLoseLookups) {
  for (const int retries : {0, 2}) {
    ProtocolNetworkOptions options = Options();
    options.probe_retries = retries;
    ProtocolNetwork net(env_.graph, env_.table, options);
    const Guid g = Guid::FromSequence(3);
    std::optional<UpdateResult> inserted;
    net.InsertAsync(g, NetworkAddress{10, 1},
                    [&](const UpdateResult& r) { inserted = r; });
    net.simulator().Run();
    ASSERT_TRUE(inserted.has_value());

    // K - 1 of the replica hosts go down.
    ASSERT_EQ(inserted->replicas.size(), 3u);
    net.FailAs(inserted->replicas[0]);
    net.FailAs(inserted->replicas[1]);

    for (AsId querier = 3; querier < env_.graph.num_nodes(); querier += 31) {
      std::optional<LookupResult> result;
      net.LookupAsync(g, querier,
                      [&](const LookupResult& r) { result = r; });
      net.simulator().Run();
      ASSERT_TRUE(result.has_value());
      EXPECT_TRUE(result->found)
          << "querier " << querier << " retries " << retries;
    }
  }
}

// The availability invariant, second half: replies that arrive after their
// probe timed out still resolve the lookup. The seed protocol erased the
// pending op at timeout, so a late reply was dropped on the floor and the
// lookup could end "not found" with the answer in flight.
TEST_F(NetworkFaultTest, LateRepliesStillResolveLookups) {
  ProtocolNetworkOptions options = Options();
  ProtocolNetwork net(env_.graph, env_.table, options);

  WorkloadParams params;
  params.num_guids = 40;
  params.seed = 11;
  WorkloadGenerator workload(env_.graph, params);
  for (const InsertOp& op : workload.Inserts()) {
    net.InsertAsync(op.guid, op.na, [](const UpdateResult&) {});
  }
  net.simulator().Run();

  // Heavy jitter, no loss. With jitter < 150ms a probe-0 reply is always
  // in flight (rtt0 + 2 * jitter) strictly before the whole chain can
  // exhaust (>= max(600, 4.5 * rtt0) for K = 3), so every lookup MUST
  // resolve found — many of them via a reply that arrives after its probe
  // already timed out.
  FaultPlan plan;
  plan.jitter_ms = 150.0;
  net.ApplyFaultPlan(plan, /*seed=*/77);

  std::uint64_t found = 0, total = 0;
  std::size_t i = 0;
  for (const LookupOp& op : workload.Lookups(150)) {
    net.simulator().Schedule(
        SimTime::Millis(double(i) * 1.0),
        [&net, &found, &total, guid = op.guid, source = op.source] {
          net.LookupAsync(guid, source, [&](const LookupResult& r) {
            ++total;
            if (r.found) ++found;
          });
        });
    ++i;
  }
  net.simulator().Run();

  EXPECT_EQ(total, 150u);
  EXPECT_EQ(found, total);  // late replies never lose the lookup
  EXPECT_GT(net.late_replies(), 0u);  // and the scenario really occurred
}

// Bounded retransmission recovers dropped probes that single-shot probing
// loses for good.
TEST_F(NetworkFaultTest, RetransmissionRecoversDroppedProbes) {
  const auto run = [&](int retries) {
    ProtocolNetworkOptions options = Options();
    options.probe_retries = retries;
    ProtocolNetwork net(env_.graph, env_.table, options);

    WorkloadParams params;
    params.num_guids = 40;
    params.seed = 12;
    WorkloadGenerator workload(env_.graph, params);
    for (const InsertOp& op : workload.Inserts()) {
      net.InsertAsync(op.guid, op.na, [](const UpdateResult&) {});
    }
    net.simulator().Run();

    FaultPlan plan;
    plan.drop_probability = 0.3;
    net.ApplyFaultPlan(plan, /*seed=*/5);

    std::uint64_t found = 0, total = 0;
    std::size_t i = 0;
    for (const LookupOp& op : workload.Lookups(150)) {
      net.simulator().Schedule(
          SimTime::Millis(double(i) * 2.0),
          [&net, &found, &total, guid = op.guid, source = op.source] {
            net.LookupAsync(guid, source, [&](const LookupResult& r) {
              ++total;
              if (r.found) ++found;
            });
          });
      ++i;
    }
    net.simulator().Run();
    EXPECT_EQ(total, 150u);
    return std::pair<std::uint64_t, std::uint64_t>{found,
                                                   net.retransmissions()};
  };

  const auto [found_single, retrans_single] = run(0);
  const auto [found_retry, retrans_retry] = run(4);
  EXPECT_EQ(retrans_single, 0u);
  EXPECT_GT(retrans_retry, 0u);
  // At 30% loss the single-shot client loses a visible fraction of its
  // lookups; 4 retransmissions per probe recover effectively all of them.
  EXPECT_LT(found_single, 150u);
  EXPECT_EQ(found_retry, 150u);
  EXPECT_GT(found_retry, found_single);
}

// Satellite: the closed-form and wire paths agree on what a failed
// replica costs once a retry budget is configured — both charge the
// fault/retry_policy.h geometry.
TEST_F(NetworkFaultTest, RetryCostAgreesAcrossBothPaths) {
  const Guid g = Guid::FromSequence(4);
  const NetworkAddress na{10, 1};
  const AsId querier = 99;
  const auto probe_order = ReferencePlan(Options(), g, na, querier);
  ASSERT_NE(probe_order[0].first, probe_order[1].first);

  // Pick the base timeout above the adaptive floor (1.5 * rtt) of the dead
  // replica, so both paths charge the pure policy geometry.
  const double base = std::max(400.0, 1.5 * probe_order[0].second + 10.0);

  DMapOptions service_options;
  service_options.k = 3;
  service_options.local_replica = false;
  service_options.failure_timeout_ms = base;
  service_options.probe_retries = 2;
  service_options.retry_backoff = 3.0;
  DMapService service(env_.graph, env_.table, service_options);
  (void)service.Insert(g, na);

  // One FailureView, shared by both paths.
  FailureView view;
  view.Fail(probe_order[0].first);
  service.SetFailureView(view);

  const LookupResult expected = service.Lookup(g, querier);
  ASSERT_TRUE(expected.found);
  EXPECT_EQ(expected.attempts, 2);
  EXPECT_NEAR(expected.latency_ms,
              TotalTimeoutCostMs(base, 2, 3.0) + probe_order[1].second,
              1e-9);

  // Wire path, same view.
  ProtocolNetworkOptions net_options = Options();
  net_options.failure_timeout_ms = base;
  net_options.probe_retries = 2;
  net_options.retry_backoff = 3.0;
  ProtocolNetwork net(env_.graph, env_.table, net_options);
  bool inserted = false;
  net.InsertAsync(g, na, [&](const UpdateResult&) { inserted = true; });
  net.simulator().Run();
  ASSERT_TRUE(inserted);
  net.SetFailureView(view);

  std::optional<LookupResult> wire_result;
  net.LookupAsync(g, querier,
                  [&](const LookupResult& r) { wire_result = r; });
  net.simulator().Run();
  ASSERT_TRUE(wire_result.has_value());
  EXPECT_TRUE(wire_result->found);
  EXPECT_NEAR(wire_result->latency_ms, expected.latency_ms, 1e-4);
  EXPECT_EQ(wire_result->attempts, expected.attempts);
  EXPECT_EQ(net.retransmissions(), 2u);  // 2 retries on the dead replica
}

// A replica that crashed, lost its store, and recovered answers "missing";
// the lookup that finds the mapping elsewhere re-replicates it there, and
// the next lookup is back to first-probe cost.
TEST_F(NetworkFaultTest, RecoveredEmptyReplicaIsRepairedByLookup) {
  const ProtocolNetworkOptions options = Options();
  const NetworkAddress na{10, 1};
  const AsId querier = 123;
  const std::uint64_t seq = FindRepairableSeq(options, querier, na);
  ASSERT_NE(seq, 0u) << "no repairable GUID found";

  ProtocolNetwork net(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(seq);
  std::optional<UpdateResult> inserted;
  net.InsertAsync(g, na, [&](const UpdateResult& r) { inserted = r; });
  net.simulator().Run();
  ASSERT_TRUE(inserted.has_value());

  const auto plan = ReferencePlan(options, g, na, querier);
  const AsId crashed = plan[0].first;

  // Crash-with-wipe, then immediate recovery: the host is live but empty.
  net.node(crashed).store().Clear();
  ASSERT_EQ(net.node(crashed).store().Lookup(g), nullptr);

  std::optional<LookupResult> first;
  net.LookupAsync(g, querier, [&](const LookupResult& r) { first = r; });
  net.simulator().Run();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->found);
  EXPECT_EQ(first->attempts, 2);  // miss at the empty host, hit at the next
  EXPECT_EQ(net.repairs_sent(), 1u);

  // The repair re-inserted the entry (same version) at the empty host.
  const MappingEntry* repaired = net.node(crashed).store().Lookup(g);
  ASSERT_NE(repaired, nullptr);
  EXPECT_EQ(repaired->version, inserted->version);

  std::optional<LookupResult> second;
  net.LookupAsync(g, querier, [&](const LookupResult& r) { second = r; });
  net.simulator().Run();
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->found);
  EXPECT_EQ(second->attempts, 1);  // back to normal cost
  EXPECT_NEAR(second->latency_ms, plan[0].second, 1e-4);
}

TEST_F(NetworkFaultTest, RepairCanBeDisabled) {
  ProtocolNetworkOptions options = Options();
  const NetworkAddress na{10, 1};
  const AsId querier = 123;
  const std::uint64_t seq = FindRepairableSeq(options, querier, na);
  ASSERT_NE(seq, 0u) << "no repairable GUID found";

  options.repair_on_lookup = false;
  ProtocolNetwork net(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(seq);
  bool inserted = false;
  net.InsertAsync(g, na, [&](const UpdateResult&) { inserted = true; });
  net.simulator().Run();
  ASSERT_TRUE(inserted);

  const auto plan = ReferencePlan(options, g, na, querier);
  net.node(plan[0].first).store().Clear();

  std::optional<LookupResult> result;
  net.LookupAsync(g, querier, [&](const LookupResult& r) { result = r; });
  net.simulator().Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->found);  // the fall-through still resolves it
  EXPECT_EQ(net.repairs_sent(), 0u);
  // With repair off, the empty replica stays empty and keeps costing a
  // wasted probe.
  EXPECT_EQ(net.node(plan[0].first).store().Lookup(g), nullptr);
  std::optional<LookupResult> second;
  net.LookupAsync(g, querier, [&](const LookupResult& r) { second = r; });
  net.simulator().Run();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->attempts, 2);
}

// The whole tentpole arc through the declarative plan: a scheduled crash
// wipes the store, the AS recovers empty, and the first lookup that finds
// the mapping elsewhere repairs it.
TEST_F(NetworkFaultTest, FaultPlanCrashWipeRecoverRepairEndToEnd) {
  const ProtocolNetworkOptions options = Options();
  const NetworkAddress na{10, 1};
  const AsId querier = 123;
  const std::uint64_t seq = FindRepairableSeq(options, querier, na);
  ASSERT_NE(seq, 0u) << "no repairable GUID found";

  ProtocolNetwork net(env_.graph, env_.table, options);
  const Guid g = Guid::FromSequence(seq);
  bool inserted = false;
  net.InsertAsync(g, na, [&](const UpdateResult&) { inserted = true; });
  net.simulator().Run();
  ASSERT_TRUE(inserted);

  const auto plan = ReferencePlan(options, g, na, querier);
  const AsId crashed = plan[0].first;
  ASSERT_NE(crashed, plan[1].first);
  const double now = net.simulator().Now().millis();

  FaultPlan fault_plan;
  CrashWindow window;
  window.as = crashed;
  window.down_at = SimTime::Millis(now + 10.0);
  window.up_at = SimTime::Millis(now + 50.0);
  fault_plan.crashes.push_back(window);
  net.ApplyFaultPlan(fault_plan, /*seed=*/3);

  // Look up after the recovery: the host is live again but empty.
  std::optional<LookupResult> result;
  net.simulator().Schedule(SimTime::Millis(60.0), [&] {
    net.LookupAsync(g, querier, [&](const LookupResult& r) { result = r; });
  });
  net.simulator().Run();

  EXPECT_EQ(net.store_wipes(), 1u);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->found);
  EXPECT_EQ(result->attempts, 2);
  EXPECT_EQ(net.repairs_sent(), 1u);
  EXPECT_NE(net.node(crashed).store().Lookup(g), nullptr);
}

// Satellite: the unified insert completion also covers the all-acks-lost
// case — every slot resolves via its stand-in timeout and the operation
// completes at the slowest one.
TEST_F(NetworkFaultTest, InsertCompletesWhenEveryMessageIsLost) {
  const ProtocolNetworkOptions options = Options();
  ProtocolNetwork net(env_.graph, env_.table, options);
  FaultPlan plan;
  plan.drop_probability = 1.0;  // nothing is ever delivered
  net.ApplyFaultPlan(plan, /*seed=*/1);

  const NetworkAddress na{10, 1};
  std::optional<UpdateResult> result;
  net.InsertAsync(Guid::FromSequence(8), na,
                  [&](const UpdateResult& r) { result = r; });
  net.simulator().Run();
  ASSERT_TRUE(result.has_value());

  double expected = 0.0;
  for (const AsId host : result->replicas) {
    const double rtt = 2.0 * net.oracle().OneWayMs(na.as, host);
    expected = std::max(expected,
                        std::max(options.failure_timeout_ms, 1.5 * rtt));
  }
  EXPECT_NEAR(result->latency_ms, expected, 1e-9);
  EXPECT_EQ(net.messages_dropped(), 3u);  // the three replica writes
}

// Duplicated traffic must be invisible to results: duplicate acks and
// responses are absorbed, timings match an unfaulted run.
TEST_F(NetworkFaultTest, DuplicatedTrafficIsIdempotent) {
  const ProtocolNetworkOptions options = Options();
  const Guid g = Guid::FromSequence(9);
  const NetworkAddress na{10, 1};
  const AsId querier = 200;

  const auto run = [&](bool duplicate) {
    ProtocolNetwork net(env_.graph, env_.table, options);
    if (duplicate) {
      FaultPlan plan;
      plan.duplicate_probability = 1.0;  // every message arrives twice
      net.ApplyFaultPlan(plan, /*seed=*/2);
    }
    std::optional<UpdateResult> insert_result;
    net.InsertAsync(g, na,
                    [&](const UpdateResult& r) { insert_result = r; });
    net.simulator().Run();
    std::optional<LookupResult> lookup_result;
    net.LookupAsync(g, querier,
                    [&](const LookupResult& r) { lookup_result = r; });
    net.simulator().Run();
    EXPECT_TRUE(insert_result.has_value());
    EXPECT_TRUE(lookup_result.has_value());
    if (duplicate) {
      EXPECT_GT(net.duplicates_delivered(), 0u);
      EXPECT_EQ(net.messages_dropped(), 0u);
    }
    return std::pair<UpdateResult, LookupResult>{*insert_result,
                                                 *lookup_result};
  };

  const auto [plain_insert, plain_lookup] = run(false);
  const auto [dup_insert, dup_lookup] = run(true);
  EXPECT_NEAR(dup_insert.latency_ms, plain_insert.latency_ms, 1e-9);
  EXPECT_EQ(dup_insert.replicas, plain_insert.replicas);
  EXPECT_TRUE(dup_lookup.found);
  EXPECT_NEAR(dup_lookup.latency_ms, plain_lookup.latency_ms, 1e-9);
  EXPECT_EQ(dup_lookup.attempts, plain_lookup.attempts);
  EXPECT_EQ(dup_lookup.nas, plain_lookup.nas);
}

// Satellite: deputy migration racing a concurrent failure. A churn orphan
// whose deputies (the ASs still holding the mapping) are down cannot be
// fetched — the node's migration stalls, and the *client's* timeout is
// what keeps the lookup live: it falls through and still completes. After
// the deputies recover, the same lookup resolves.
TEST_F(NetworkFaultTest, DeputyMigrationUnderConcurrentFailure) {
  ProtocolNetworkOptions options = Options(5);
  ProtocolNetwork net(env_.graph, env_.table, options);

  WorkloadParams params;
  params.num_guids = 120;
  params.seed = 9;
  WorkloadGenerator workload(env_.graph, params);
  for (const InsertOp& op : workload.Inserts()) {
    bool done = false;
    net.InsertAsync(op.guid, op.na, [&](const UpdateResult&) { done = true; });
    net.simulator().Run();
    ASSERT_TRUE(done);
  }

  Rng rng(13);
  ChurnParams churn;
  churn.announce_fraction = 0.05;  // new prefixes: orphan scenario
  churn.num_ases = env_.graph.num_nodes();
  ApplyChurn(env_.table, SampleChurn(env_.table, churn, rng));

  // Find a GUID whose post-churn probe plan mixes holders with an orphaned
  // AS that will hunt its deputies when probed (non-empty candidate list).
  // With every holder failed, the client's fall-through reaches the orphan
  // and its migration hunt races the dead deputies.
  DMapOptions ref_options;
  ref_options.k = 5;
  ref_options.local_replica = false;
  DMapService reference(env_.graph, env_.table, ref_options);
  const AsId querier = 77;
  Guid victim;
  bool found_scenario = false;
  for (std::uint64_t i = 0; i < params.num_guids && !found_scenario; ++i) {
    const Guid guid = workload.GuidAt(i);
    bool has_holder = false, has_hunter = false;
    for (const auto& [as, rtt] : reference.ProbePlan(guid, querier)) {
      if (net.node(as).store().Lookup(guid) != nullptr) {
        has_holder = true;
      } else if (!net.node(as).DeputyCandidates(guid).empty()) {
        has_hunter = true;
      }
    }
    if (has_holder && has_hunter) {
      victim = guid;
      found_scenario = true;
    }
  }
  ASSERT_TRUE(found_scenario) << "churn produced no orphaned probe target";

  std::vector<AsId> holders;
  for (AsId as = 0; as < env_.graph.num_nodes(); ++as) {
    if (net.node(as).store().Lookup(victim) != nullptr) holders.push_back(as);
  }
  ASSERT_FALSE(holders.empty());

  // Take down every AS still holding the mapping: any migration hunt dies
  // with its deputy mid-exchange.
  const std::uint64_t hunts_before = TotalMigrationHunts(net);
  for (const AsId holder : holders) net.FailAs(holder);

  std::optional<LookupResult> during;
  net.LookupAsync(victim, querier,
                  [&](const LookupResult& r) { during = r; });
  net.simulator().Run();
  // The client completes regardless: a stalled migration never hangs the
  // lookup, the client-side timeouts drive it to a terminal result.
  ASSERT_TRUE(during.has_value());

  // Deputies recover: the mapping is reachable again.
  for (const AsId holder : holders) net.RecoverAs(holder);
  std::optional<LookupResult> after;
  net.LookupAsync(victim, querier,
                  [&](const LookupResult& r) { after = r; });
  net.simulator().Run();
  ASSERT_TRUE(after.has_value());
  EXPECT_TRUE(after->found);

  // And the wider stream still terminates under the same conditions: no
  // lookup may hang on a stalled migration.
  for (const AsId holder : holders) net.FailAs(holder);
  int completed = 0;
  for (const LookupOp& op : workload.Lookups(50)) {
    std::optional<LookupResult> r;
    net.LookupAsync(op.guid, op.source,
                    [&](const LookupResult& result) { r = result; });
    net.simulator().Run();
    ASSERT_TRUE(r.has_value());
    ++completed;
  }
  EXPECT_EQ(completed, 50);
  // Across the run, migrations really were racing the failed deputies.
  EXPECT_GT(TotalMigrationHunts(net), hunts_before);
}

}  // namespace
}  // namespace dmap
