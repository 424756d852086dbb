// ProtocolNetwork: runs the full DMap wire protocol over the discrete-event
// kernel. One DMapNode per AS; every message is encoded to wire bytes
// (exercising the real serialisation path and feeding the traffic
// accounting), delivered after the underlay one-way latency, decoded, and
// handed to the destination node or client agent. Client operations
// (insert, lookup) implement the querier-side logic: replica selection,
// parallel replica writes, the local-replica race, miss fall-through,
// bounded retransmission with exponential backoff, and timeout handling
// for unreachable ASs.
//
// Failures are consulted at *delivery* time against a shared FailureView
// (fault/failure_view.h): a message in flight when its destination goes
// down is lost, one in flight when it recovers arrives. An optional
// FaultInjector (ApplyFaultPlan) additionally interposes on every send,
// deciding per message — deterministically from (seed, message sequence) —
// whether it is dropped, duplicated, or delayed.
//
// This is the "production" execution path; DMapService is the closed-form
// fast path. Tests assert the two report identical timings.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "core/dmap_service.h"
#include "core/hole_resolver.h"
#include "core/resolver_cache.h"
#include "event/simulator.h"
#include "fault/failure_view.h"
#include "fault/fault_injector.h"
#include "obs/metrics_registry.h"
#include "obs/probe_trace.h"
#include "proto/node.h"
#include "serve/serving_tier.h"
#include "topo/shortest_path.h"

namespace dmap {

struct ProtocolNetworkOptions {
  int k = 5;
  int max_hashes = 10;
  bool local_replica = true;
  std::uint64_t hash_seed = 0x5eedf00dULL;
  double failure_timeout_ms = 200.0;
  std::size_t oracle_cache = 64;
  // Retransmission budget per probe before the client falls through to the
  // next replica; attempt r waits TimeoutForAttemptMs(failure_timeout_ms,
  // r, retry_backoff) (fault/retry_policy.h). 0 keeps the single-shot
  // behaviour and timings of the pre-fault-model protocol.
  int probe_retries = 0;
  double retry_backoff = 2.0;
  // Lookup-triggered re-replication: when a lookup ultimately finds the
  // mapping after some replica answered "GUID missing" — e.g. the replica
  // crashed, lost its store, and recovered empty — the client re-inserts
  // the found entry there (version-gated, so concurrent repairs and stale
  // copies are harmless).
  bool repair_on_lookup = true;
  // Write quorum W over the K + local_replica replica writes of a client
  // insert/update. 0 (default) = majority of the replica set; 1 = the
  // legacy fire-and-wait-all mode, bit-identical to the pre-quorum
  // protocol (completes at the slowest ack/stand-in timeout, always kOk);
  // W >= 2 completes at the W-th *applied* ack (the local copy counts as
  // an instant ack) and reports ResolverStatus::kQuorumFailed when fewer
  // than W replicas applied the write by the time every slot resolved —
  // never a silent partial write: replicas that did apply keep the entry
  // and read-repair/anti-entropy converge the rest. All K messages are
  // always sent regardless of W, so the message stream (and thus every
  // injected fault fate) is identical across W settings.
  int write_quorum = 0;
  // Read quorum R: how many distinct replicas must answer (found or
  // "GUID missing") before a lookup reports. 1 (default) keeps the
  // paper's sequential lowest-RTT-first probing bit-identical; R > 1
  // fans out to R concurrent probe streams, returns the answer with the
  // maximum logical stamp, and read-repairs both empty and stale
  // repliers. Clamped to K.
  int read_quorum = 1;
  // GUIDs examined per RunAntiEntropyRound call; 0 disables the round
  // (calls become no-ops) and keeps the consistency.* instruments
  // unregistered when W and R are also at their legacy settings.
  int anti_entropy_budget = 0;
  // Resolver-side mapping cache (core/resolver_cache.h). Disabled by
  // default (capacity 0): the message stream, timings, and exports are
  // bit-identical to the cacheless protocol. When enabled, LookupAsync
  // consults the querier's cached copy before any probe leaves the AS; a
  // fresh hit answers in one intra-AS round trip.
  CacheConfig cache;
};

class ProtocolNetwork {
 public:
  ProtocolNetwork(const AsGraph& graph, const PrefixTable& table,
                  const ProtocolNetworkOptions& options);

  Simulator& simulator() { return sim_; }
  DMapNode& node(AsId as) { return *nodes_[as]; }
  const ProtocolNetworkOptions& options() const { return options_; }
  PathOracle& oracle() { return oracle_; }

  // Router failure (Section III-D-3): opens an outage window at the current
  // sim time. Messages *delivered* while the window is open vanish — a
  // failure landing between send and receive loses the in-flight message;
  // clients fall through to the next replica after the timeout.
  void FailAs(AsId as);
  // Closes the outage at the current sim time; the AS answers again.
  void RecoverAs(AsId as);

  // Shares a failure schedule with the closed-form path: configure a
  // scenario once, hand the same view to both.
  void SetFailureView(const FailureView& view) { failures_ = view; }

  // Expands `plan` into this network: its crash/outage windows are merged
  // into the failure view, store wipes are scheduled as simulator events,
  // and its per-message faults interpose on every subsequent send. Message
  // fates are pure functions of (seed, message sequence number), so a run
  // is replayable bit-for-bit from (plan, seed).
  void ApplyFaultPlan(const FaultPlan& plan, std::uint64_t seed);
  const FaultInjector* injector() const { return injector_.get(); }

  // Installs the per-AS serving tier (src/serve/): every LookupRequest
  // delivered to a mapping server passes its admission machinery at
  // delivery time — a shed request vanishes (the client's timeout fires
  // and the retry/fall-through machinery takes over), an admitted one is
  // handed to the node after its queue wait + service time, and the reply
  // carries that delay back into the lookup's queue_delay_ms/admission.
  // Writes (InsertRequest) are not rate-limited — the tier models the
  // query-serving capacity of Section IV-B. nullptr (default) restores
  // the infinite-capacity behaviour bit-for-bit. The tier must outlive
  // the network and must not be shared across concurrent simulators.
  void SetServingTier(ServingTier* tier) { serving_ = tier; }

  // Registers the fault.* instruments and mirrors the fault counters into
  // `registry` under shard `shard` (the network itself is serial; parallel
  // harnesses run one network per trial and pass the worker id).
  void SetMetrics(MetricsRegistry* registry, unsigned shard = 0);
  // Samples per-lookup probe traces (outcome 'T' marks a probe that
  // exhausted its retry budget without a reply).
  void SetTracer(ProbeTracer* tracer, unsigned shard = 0);

  // Registers/refreshes `guid` from the AS in `na`: K parallel replica
  // writes plus the local copy. Completion follows the write-quorum
  // discipline (see ProtocolNetworkOptions::write_quorum): the legacy
  // mode completes when the slowest ack (or, for an unreachable replica,
  // its stand-in timeout) returns; quorum mode completes at the W-th
  // applied ack and reports kQuorumFailed when W is unreachable.
  void InsertAsync(const Guid& guid, NetworkAddress na,
                   std::function<void(const UpdateResult&)> done);

  // Batched mobility handoff (the fast path): all of a migrating host's
  // GUID updates — every move must share one destination AS — grouped per
  // replica-host AS into one BatchUpdateRequest each, so the wave costs
  // |distinct replica ASes| messages instead of K*N singleton inserts.
  // Replicas apply the entries atomically under the same stamp gate as
  // singleton writes, so store contents are bit-identical to issuing the
  // updates one by one. Completion follows the legacy discipline: the
  // slowest response (or its stand-in timeout) finishes the batch. A batch
  // wave does not advance the committed_ quorum frontier — the quorum
  // discipline is per-GUID and a batch response acks an AS, not a quorum.
  void BatchUpdateAsync(
      const std::vector<std::pair<Guid, NetworkAddress>>& moves,
      std::function<void(const BatchUpdateResult&)> done);

  // The resolver-side cache, when options.cache enabled it (else nullptr).
  ResolverCache* cache() { return cache_.get(); }
  const ResolverCache* cache() const { return cache_.get(); }

  // One bounded anti-entropy sweep, run at the serial write point between
  // event batches: examines up to `budget` registered GUIDs (a
  // deterministic cursor walks the insertion-ordered registry, wrapping)
  // and, for each, pushes the freshest replica's entry to every replica
  // whose stored stamp is behind — as real InsertRequests, subject to the
  // fault plan like any other message. Returns the number of repair
  // writes sent. No-op (returns 0) when budget <= 0 or nothing was ever
  // inserted. Must not run concurrently with event execution: it reads
  // replica stores directly and schedules sends.
  int RunAntiEntropyRound(int budget) REQUIRES_SERIAL();

  // Resolves `guid` from `querier` with the full probe/fall-through logic.
  // A reply that arrives after its probe timed out still resolves the
  // lookup: request ids stay registered until the operation completes.
  void LookupAsync(const Guid& guid, AsId querier,
                   std::function<void(const LookupResult&)> done);

  // The Section III-D-1 withdrawal protocol, end to end: before `owner`
  // withdraws `prefix`, it hands every mapping stored under that prefix to
  // the mapping's deputy (its resolution once the prefix is gone), then the
  // withdrawal is applied to `table` — which must be the same object this
  // network resolves against. `done(migrated)` fires when the last deputy
  // ack returns (0 migrations completes immediately).
  void WithdrawPrefixAsync(const Cidr& prefix, AsId owner,
                           PrefixTable& table,
                           std::function<void(int migrated)> done);

  // Wire accounting (actual encoded bytes).
  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t messages_dropped() const { return messages_dropped_; }

  // Fault accounting (also mirrored to fault.* metrics when registered).
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t duplicates_delivered() const { return duplicates_delivered_; }
  std::uint64_t late_replies() const { return late_replies_; }
  std::uint64_t repairs_sent() const { return repairs_sent_; }
  std::uint64_t store_wipes() const { return store_wipes_; }

  // Consistency accounting (mirrored to consistency.* metrics when the
  // quorum machinery is active — see QuorumActive()).
  std::uint64_t stale_reads() const { return stale_reads_; }
  std::uint64_t read_repairs() const { return read_repairs_; }
  std::uint64_t quorum_failures() const { return quorum_failures_; }
  std::uint64_t anti_entropy_repairs() const {
    return anti_entropy_repairs_;
  }
  // True when any consistency knob departs from the legacy settings; the
  // consistency.* instruments exist (and the commit frontier is tracked)
  // only then, so a W=1/R=1 run's metrics export stays byte-identical to
  // the pre-quorum protocol.
  bool QuorumActive() const {
    return write_quorum_effective_ > 1 || read_quorum_effective_ > 1 ||
           options_.anti_entropy_budget > 0;
  }

 private:
  struct LookupOp;
  struct InsertOp;
  struct BatchOp;
  // Routes an in-flight reply back to its lookup: the op plus which probe
  // (plan index) the request id belongs to.
  struct PendingProbe {
    std::shared_ptr<LookupOp> op;
    std::size_t index = 0;
  };
  struct FaultInstruments {
    CounterId injected_drops = 0, injected_duplicates = 0,
              delivery_drops = 0, retransmissions = 0, late_replies = 0,
              repair_inserts = 0, store_wipes = 0;
  };
  struct ConsistencyInstruments {
    CounterId stale_reads = 0, read_repairs = 0, quorum_failures = 0,
              anti_entropy_repairs = 0;
    HistogramId write_quorum_latency_ms = 0, read_quorum_latency_ms = 0;
    bool registered = false;
  };

  // Encodes, counts, and schedules delivery of `message`. The injector (if
  // any) decides drop/duplicate/extra delay per message; the destination's
  // failure state is checked when each copy is *delivered*.
  void Send(const Message& message);
  void Deliver(const Message& message);
  // The node-layer tail of Deliver, after the serving tier admitted the
  // message (or no tier is installed).
  void DeliverToNode(const Message& message);

  // Lookup client machine (sequential R=1 path).
  void SendProbe(const std::shared_ptr<LookupOp>& op, std::size_t index);
  void TransmitProbe(const std::shared_ptr<LookupOp>& op, std::size_t index,
                     int retry);
  void ProbeTimedOut(const std::shared_ptr<LookupOp>& op, std::size_t index,
                     int retry, double timeout_ms);
  // True if the response was consumed by a client lookup op.
  bool HandleLookupResponse(const LookupResponse& response);

  // Read-quorum fan-out machine (R > 1): R concurrent probe streams over
  // the RTT-ordered plan; a miss or exhausted timeout advances its stream
  // to the next unclaimed replica; the op completes at R distinct
  // responses (or when every stream dies) with the max-stamp answer.
  void StartReadFanout(const std::shared_ptr<LookupOp>& op);
  void ClaimReadProbe(const std::shared_ptr<LookupOp>& op,
                      std::size_t stream);
  void TransmitReadProbe(const std::shared_ptr<LookupOp>& op,
                         std::size_t stream, int retry);
  void ReadProbeTimedOut(const std::shared_ptr<LookupOp>& op,
                         std::size_t stream, std::size_t index, int retry);
  void HandleReadResponse(const std::shared_ptr<LookupOp>& op,
                          std::size_t index, const LookupResponse& response,
                          const AdmitResult& admit);
  void MaybeCompleteRead(const std::shared_ptr<LookupOp>& op);
  void CompleteReadLookup(const std::shared_ptr<LookupOp>& op);
  // Seals the op: cancels timers, unregisters its request ids, records the
  // trace, fires the repair of miss-replying replicas (when `found_entry`
  // is set), and invokes the callback.
  void CompleteLookup(const std::shared_ptr<LookupOp>& op,
                      LookupResult result, const MappingEntry* found_entry);
  void RepairEmptyReplicas(const LookupOp& op, const MappingEntry& entry);

  // Insert client machine: one slot per replica write; an ack resolves its
  // slot, a timeout stands in when no ack will come. Both paths funnel into
  // CompleteInsertIfDone.
  void StartInsertSlots(const std::shared_ptr<InsertOp>& op,
                        std::vector<InsertRequest> requests);
  void ResolveInsertSlot(const std::shared_ptr<InsertOp>& op,
                         std::size_t slot);
  void CompleteInsertIfDone(const std::shared_ptr<InsertOp>& op);
  // Fires the done callback early when the W-th applied ack lands (quorum
  // mode only); the op stays registered until every slot resolves so late
  // acks keep their accounting.
  void MaybeReportInsertQuorum(const std::shared_ptr<InsertOp>& op);
  // True if the ack was consumed by a client insert op.
  bool HandleInsertAck(const InsertAck& ack);
  // Batch-update client machine: one slot per destination AS; a response
  // resolves its slot, a timeout stands in when no response will come.
  void ResolveBatchSlot(const std::shared_ptr<BatchOp>& op, std::size_t slot);
  void CompleteBatchIfDone(const std::shared_ptr<BatchOp>& op);
  // True if the response was consumed by a client batch op.
  bool HandleBatchUpdateResponse(const BatchUpdateResponse& response);
  // Advances the per-GUID committed-stamp frontier (quorum-active runs
  // only); lookups returning an older stamp count as stale reads.
  void CommitStamp(const Guid& guid, const LogicalStamp& stamp);
  // Fire-and-forget single-replica repair write carrying `entry`.
  void SendRepairInsert(const Guid& guid, AsId src, AsId dst,
                        const MappingEntry& entry,
                        Ipv4Address stored_address);

  void Bump(std::uint64_t& plain, CounterId id, std::uint64_t delta = 1);

  std::uint64_t NextClientRequestId() {
    return 0x8000000000000000ULL | next_client_request_++;
  }

  const AsGraph* graph_;
  ProtocolNetworkOptions options_;
  GuidHashFamily hashes_;
  HoleResolver resolver_;
  PathOracle oracle_;
  Simulator sim_;
  std::vector<std::unique_ptr<DMapNode>> nodes_;
  FailureView failures_;
  std::unique_ptr<FaultInjector> injector_;
  ServingTier* serving_ = nullptr;
  // Admission verdict of the serving tier per in-flight request id, so the
  // reply can charge its queue wait to the right probe. Entries are erased
  // when the reply is consumed or the lookup completes.
  std::unordered_map<std::uint64_t, AdmitResult> probe_admits_;
  std::uint64_t message_seq_ = 0;  // feeds FaultInjector::FateOf
  std::unordered_map<Guid, std::uint64_t, GuidHash> versions_;
  // Quorum parameters resolved once against the replica-set size.
  int write_quorum_effective_ = 1;
  int read_quorum_effective_ = 1;
  // Highest stamp whose write reached its quorum, per GUID — the frontier
  // a non-stale read must reach. Only advanced when QuorumActive(); a
  // failed write never advances it (its survivors still serve the newer
  // stamp, which is allowed: stale means *older* than committed).
  std::unordered_map<Guid, LogicalStamp, GuidHash> committed_;
  // Anti-entropy registry: every GUID ever client-inserted, in first
  // insertion order, plus the attachment AS of its latest write; the
  // round cursor walks this deterministically.
  std::vector<Guid> ae_guids_;
  std::unordered_map<Guid, AsId, GuidHash> ae_owner_;
  std::size_t ae_cursor_ = 0;

  // In-flight client operations keyed by request id. Lookup entries stay
  // registered until the op completes, so late replies resolve the lookup
  // instead of leaking to the node layer.
  std::unordered_map<std::uint64_t, PendingProbe> lookups_;
  std::unordered_map<std::uint64_t, std::shared_ptr<InsertOp>> inserts_;
  std::unordered_map<std::uint64_t, std::shared_ptr<BatchOp>> batches_;
  std::uint64_t next_client_request_ = 1;

  // Private resolver-side cache: the network is single-owner (one
  // simulator loop), so the serial Get/Put path is safe here.
  std::unique_ptr<ResolverCache> cache_;

  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t injected_drops_ = 0;
  std::uint64_t duplicates_delivered_ = 0;
  std::uint64_t delivery_drops_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t late_replies_ = 0;
  std::uint64_t repairs_sent_ = 0;
  std::uint64_t store_wipes_ = 0;
  std::uint64_t stale_reads_ = 0;
  std::uint64_t read_repairs_ = 0;
  std::uint64_t quorum_failures_ = 0;
  std::uint64_t anti_entropy_repairs_ = 0;

  MetricsRegistry* metrics_ = nullptr;
  unsigned metrics_shard_ = 0;
  FaultInstruments ins_{};
  ConsistencyInstruments cins_{};
  ProbeTracer* tracer_ = nullptr;
  unsigned trace_shard_ = 0;
};

}  // namespace dmap
