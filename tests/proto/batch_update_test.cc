// Batched-vs-sequential equivalence: the mobility fast path must change
// the wire accounting and the completion model, never the stored mapping
// state. Each suite replays the same handoff schedule through sequential
// singleton updates and through batches of several sizes, then asserts the
// resulting stores are indistinguishable — on the closed-form service and
// the wire-protocol network, which must also agree with each other.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/dmap_service.h"
#include "proto/network.h"
#include "sim/environment.h"
#include "workload/mobility.h"

namespace dmap {
namespace {

class BatchUpdateTest : public testing::Test {
 protected:
  BatchUpdateTest()
      : env_(BuildEnvironment(EnvironmentParams::Scaled(300, 61))) {}

  DMapOptions Options() const {
    DMapOptions o;
    o.k = 3;
    o.measure_update_latency = true;
    return o;
  }

  MobilityParams Params(std::uint32_t hosts = 20) const {
    MobilityParams p;
    p.num_hosts = hosts;
    p.guids_per_host = 6;
    p.handoff_rate_hz = 1.0;
    p.horizon_s = 3.0;
    p.seed = 17;
    return p;
  }

  // Canonical store dump: for every workload GUID, the (as, version,
  // attachment) of every AS holding a replica — a full scan over the AS
  // space, so missing and surplus replicas both show up as differences.
  std::vector<std::uint64_t> Dump(const DMapService& service,
                                  const MobilityWorkload& workload) const {
    std::vector<std::uint64_t> out;
    for (std::uint32_t host = 0; host < workload.params().num_hosts; ++host) {
      for (std::uint32_t i = 0; i < workload.params().guids_per_host; ++i) {
        const Guid g = workload.GuidOf(host, i);
        for (AsId as = 0; as < env_.graph.num_nodes(); ++as) {
          const MappingEntry* e = service.StoreLookup(as, g);
          if (e == nullptr) continue;
          out.push_back(as);
          out.push_back(e->version);
          out.push_back(e->nas[0].as);
          out.push_back(e->nas[0].locator);
        }
      }
    }
    return out;
  }

  SimEnvironment env_;
};

TEST_F(BatchUpdateTest, ClosedFormMatchesSequentialForEveryBatchSize) {
  const MobilityWorkload workload(env_.graph, Params());

  // Reference leg: singleton Update calls, recording every result.
  DMapService sequential(env_.graph, env_.table, Options());
  for (const InsertOp& op : workload.InitialInserts()) {
    (void)sequential.Insert(op.guid, op.na);
  }
  std::vector<UpdateResult> expected;
  for (const Handoff& handoff : workload.Handoffs()) {
    for (const auto& [guid, na] : workload.MovesFor(handoff)) {
      expected.push_back(sequential.Update(guid, na));
    }
  }
  const std::vector<std::uint64_t> want = Dump(sequential, workload);

  for (const int batch_size : {1, 4, 16, 64}) {
    DMapService batched(env_.graph, env_.table, Options());
    for (const InsertOp& op : workload.InitialInserts()) {
      (void)batched.Insert(op.guid, op.na);
    }
    std::vector<UpdateResult> got;
    std::vector<std::pair<Guid, NetworkAddress>> chunk;
    for (const Handoff& handoff : workload.Handoffs()) {
      const auto moves = workload.MovesFor(handoff);
      for (std::size_t begin = 0; begin < moves.size();
           begin += std::size_t(batch_size)) {
        const std::size_t end =
            std::min(moves.size(), begin + std::size_t(batch_size));
        chunk.assign(moves.begin() + long(begin), moves.begin() + long(end));
        const BatchUpdateResult wave = batched.BatchUpdate(chunk);
        EXPECT_EQ(wave.status, ResolverStatus::kOk);
        EXPECT_EQ(wave.guids, int(chunk.size()));
        EXPECT_EQ(wave.entries_applied, wave.entries);
        EXPECT_LE(wave.messages, wave.unbatched_messages);
        got.insert(got.end(), wave.per_guid.begin(), wave.per_guid.end());
      }
    }
    // Per-GUID results identical to the sequential Update stream...
    ASSERT_EQ(got.size(), expected.size()) << "batch " << batch_size;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].replicas, expected[i].replicas);
      EXPECT_EQ(got[i].version, expected[i].version);
      EXPECT_DOUBLE_EQ(got[i].latency_ms, expected[i].latency_ms);
    }
    // ...and so is the full stored state, replica by replica.
    EXPECT_EQ(Dump(batched, workload), want) << "batch " << batch_size;
  }
}

TEST_F(BatchUpdateTest, BatchAccountingCountsDistinctDestinations) {
  DMapService service(env_.graph, env_.table, Options());
  const AsId dst = 42;
  std::vector<std::pair<Guid, NetworkAddress>> moves;
  for (std::uint64_t i = 0; i < 16; ++i) {
    const Guid g = Guid::FromSequence(i);
    (void)service.Insert(g, NetworkAddress{7, 1});
    moves.emplace_back(g, NetworkAddress{dst, std::uint32_t(i)});
  }
  const BatchUpdateResult wave = service.BatchUpdate(moves);
  // One singleton InsertRequest per (guid, replica) is replaced by one
  // BatchUpdateRequest per distinct destination AS.
  EXPECT_EQ(wave.unbatched_messages, 16u * 3u);
  EXPECT_GE(wave.messages, 1u);
  EXPECT_LE(wave.messages, wave.entries);
  EXPECT_LT(wave.messages, wave.unbatched_messages);
  EXPECT_EQ(wave.entries, 16u * 3u);
}

TEST_F(BatchUpdateTest, BatchValidationRejectsBadMoves) {
  DMapService service(env_.graph, env_.table, Options());
  const Guid g = Guid::FromSequence(1);
  (void)service.Insert(g, NetworkAddress{7, 1});
  // Mixed destination ASes: one host hands off to one gateway.
  EXPECT_THROW((void)service.BatchUpdate({{g, NetworkAddress{10, 1}},
                                          {g, NetworkAddress{11, 1}}}),
               std::invalid_argument);
  // Unknown GUID: batches refresh registered mappings only.
  EXPECT_THROW(
      (void)service.BatchUpdate({{Guid::FromSequence(999),
                                  NetworkAddress{10, 1}}}),
      std::invalid_argument);
  // The failed batch must not have half-applied the valid prefix.
  EXPECT_EQ(service.StoreLookup(7, g)->version, 1u);
}

// The event-driven wire batch agrees with the closed form on accounting,
// completion time and the replica stores it leaves behind.
TEST_F(BatchUpdateTest, EventDrivenAgreesWithClosedForm) {
  const MobilityWorkload workload(env_.graph, Params(4));

  // A wire batch completes at its slowest response, which is the closed
  // form's fire-and-wait-all discipline. Without local replicas the stores
  // compare the global replicas alone: the wire leaves a mover's old local
  // copy at its previous gateway, the closed form drops it.
  DMapOptions legacy = Options();
  legacy.write_quorum = 1;
  legacy.local_replica = false;
  DMapService reference(env_.graph, env_.table, legacy);
  ProtocolNetworkOptions options;
  options.k = 3;
  options.local_replica = false;
  ProtocolNetwork net(env_.graph, env_.table, options);
  for (const InsertOp& op : workload.InitialInserts()) {
    (void)reference.Insert(op.guid, op.na);
    net.InsertAsync(op.guid, op.na, [](const UpdateResult&) {});
  }
  net.simulator().Run();

  for (const Handoff& handoff : workload.Handoffs()) {
    const auto moves = workload.MovesFor(handoff);
    const BatchUpdateResult expected = reference.BatchUpdate(moves);
    std::optional<BatchUpdateResult> got;
    net.BatchUpdateAsync(moves,
                         [&](const BatchUpdateResult& r) { got = r; });
    net.simulator().Run();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->messages, expected.messages);
    EXPECT_EQ(got->entries_applied, expected.entries_applied);
    // Measured on the wire when the callback fires.
    EXPECT_NEAR(got->latency_ms, expected.latency_ms, 1e-9);
  }
  // Every wire replica store holds exactly what the closed form stored.
  for (AsId as = 0; as < env_.graph.num_nodes(); ++as) {
    const MappingStore& store = net.node(as).store();
    ASSERT_EQ(store.size(), reference.StoreSizeAt(as)) << "AS " << as;
    store.ForEach([&](const Guid& guid, const MappingEntry& entry) {
      const MappingEntry* want = reference.StoreLookup(as, guid);
      ASSERT_NE(want, nullptr) << "AS " << as;
      EXPECT_EQ(want->version, entry.version);
      EXPECT_TRUE(want->nas == entry.nas);
    });
  }
}

TEST_F(BatchUpdateTest, WireBatchMatchesSequentialInserts) {
  const MobilityWorkload workload(env_.graph, Params(4));

  ProtocolNetworkOptions options;
  options.k = 3;
  ProtocolNetwork sequential(env_.graph, env_.table, options);
  ProtocolNetwork batched(env_.graph, env_.table, options);
  for (const InsertOp& op : workload.InitialInserts()) {
    for (ProtocolNetwork* net : {&sequential, &batched}) {
      net->InsertAsync(op.guid, op.na, [](const UpdateResult&) {});
      net->simulator().Run();
    }
  }

  const std::uint64_t seq_before = sequential.messages_sent();
  const std::uint64_t batch_before = batched.messages_sent();
  for (const Handoff& handoff : workload.Handoffs()) {
    const auto moves = workload.MovesFor(handoff);
    for (const auto& [guid, na] : moves) {
      sequential.InsertAsync(guid, na, [](const UpdateResult&) {});
      sequential.simulator().Run();
    }
    std::optional<BatchUpdateResult> wave;
    batched.BatchUpdateAsync(moves,
                             [&](const BatchUpdateResult& r) { wave = r; });
    batched.simulator().Run();
    ASSERT_TRUE(wave.has_value());
    EXPECT_EQ(wave->entries_applied, wave->entries);
    EXPECT_GT(wave->latency_ms, 0.0);
  }
  // Fewer wire messages for the same handoffs...
  EXPECT_LT(batched.messages_sent() - batch_before,
            sequential.messages_sent() - seq_before);

  // ...and byte-identical replica stores at every AS.
  for (AsId as = 0; as < env_.graph.num_nodes(); ++as) {
    const MappingStore& a = sequential.node(as).store();
    const MappingStore& b = batched.node(as).store();
    ASSERT_EQ(a.size(), b.size()) << "AS " << as;
    a.ForEach([&](const Guid& guid, const MappingEntry& entry) {
      const MappingEntry* other = b.Lookup(guid);
      ASSERT_NE(other, nullptr) << "AS " << as;
      EXPECT_EQ(other->version, entry.version);
      EXPECT_TRUE(other->nas == entry.nas);
    });
  }
}

}  // namespace
}  // namespace dmap
