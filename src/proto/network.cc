#include "proto/network.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "fault/retry_policy.h"

namespace dmap {

struct ProtocolNetwork::LookupOp {
  Guid guid;
  AsId querier = kInvalidAs;
  struct Probe {
    AsId host = kInvalidAs;
    double rtt = 0.0;
    // Where Algorithm 1 hashed this replica; repair re-inserts under it.
    Ipv4Address stored_address;
  };
  std::vector<Probe> plan;  // ordered by (rtt, host)
  // request_ids[i] is probe i's id; entries stay in lookups_ until the op
  // completes so late replies still find their way back.
  std::vector<std::uint64_t> request_ids;
  std::size_t frontier = 0;  // index of the probe currently awaited
  int attempts = 0;          // replicas probed (not transmissions)
  double frontier_charged_ms = 0.0;  // timeout cost accrued on the frontier
  SimTime started;
  bool completed = false;
  EventHandle timeout;
  EventHandle local_reply;
  std::vector<std::size_t> miss_indices;  // live replicas that had no entry
  int sheds = 0;  // probes the serving tier rejected (server-side view)
  std::function<void(const LookupResult&)> done;
  std::optional<ProbeTrace> trace;

  // --- read-quorum fan-out state (read_target > 1 only) ---
  struct Stream {
    std::size_t index = 0;  // plan index currently awaited
    int retry = 0;
    bool alive = false;
    EventHandle timeout;
  };
  int read_target = 1;
  std::vector<Stream> streams;
  std::size_t next_index = 0;  // next unclaimed plan index
  int responses = 0;  // distinct replicas that answered (found or miss)
  // Found answers as (plan index, entry); the winner is the max stamp,
  // ties broken toward the lowest plan index.
  std::vector<std::pair<std::size_t, MappingEntry>> answers;
  std::vector<char> index_responded;  // one flag per plan index
};

struct ProtocolNetwork::InsertOp {
  std::uint64_t request_id = 0;
  std::vector<AsId> replicas;  // reported in the UpdateResult
  struct Slot {
    AsId host = kInvalidAs;
    bool resolved = false;
    // An applied ack is counted toward the quorum at most once per slot,
    // so a fault-injected duplicate ack cannot inflate W.
    bool ack_counted = false;
    EventHandle timeout;
  };
  std::vector<Slot> slots;      // one per replica write
  std::size_t outstanding = 0;  // slots not yet acked or timed out
  SimTime started;
  std::uint64_t version = 0;
  std::function<void(const UpdateResult&)> done;

  // --- write-quorum state (quorum_target > 1 only: client writes) ---
  // Repairs, anti-entropy pushes, and withdrawal handoffs keep the legacy
  // all-slots-resolved completion (quorum_target = 1).
  Guid guid;
  LogicalStamp stamp;
  int quorum_target = 1;
  int applied = 0;       // replicas known to have applied the write
  bool reported = false; // done already fired at the W-th applied ack
  bool track_commit = false;  // advance committed_ on quorum success
};

struct ProtocolNetwork::BatchOp {
  std::uint64_t request_id = 0;
  struct Slot {
    AsId host = kInvalidAs;
    bool resolved = false;
    EventHandle timeout;
  };
  std::vector<Slot> slots;      // one per destination AS
  std::size_t outstanding = 0;  // slots not yet answered or timed out
  SimTime started;
  int guids = 0;
  std::uint64_t messages = 0;
  std::uint64_t unbatched_messages = 0;
  std::uint64_t entries = 0;
  std::uint64_t entries_applied = 0;
  std::function<void(const BatchUpdateResult&)> done;
};

ProtocolNetwork::ProtocolNetwork(const AsGraph& graph,
                                 const PrefixTable& table,
                                 const ProtocolNetworkOptions& options)
    : graph_(&graph),
      options_(options),
      hashes_(options.k, options.hash_seed),
      resolver_(hashes_, table, options.max_hashes),
      oracle_(graph, options.oracle_cache) {
  if (options.k < 1) throw std::invalid_argument("ProtocolNetwork: k < 1");
  if (options.probe_retries < 0) {
    throw std::invalid_argument("ProtocolNetwork: probe_retries < 0");
  }
  if (!(options.retry_backoff >= 1.0)) {  // also rejects NaN
    throw std::invalid_argument("ProtocolNetwork: retry_backoff < 1");
  }
  if (options.write_quorum < 0) {
    throw std::invalid_argument("ProtocolNetwork: write_quorum < 0");
  }
  if (options.read_quorum < 1) {
    throw std::invalid_argument("ProtocolNetwork: read_quorum < 1");
  }
  if (options.anti_entropy_budget < 0) {
    throw std::invalid_argument("ProtocolNetwork: anti_entropy_budget < 0");
  }
  const int participants = options.k + (options.local_replica ? 1 : 0);
  write_quorum_effective_ = ResolveQuorum(options.write_quorum, participants);
  read_quorum_effective_ =
      options.read_quorum > options.k ? options.k : options.read_quorum;
  options_.cache.Validate();
  if (options_.cache.enabled()) {
    cache_ = std::make_unique<ResolverCache>(options_.cache);
  }
  nodes_.reserve(graph.num_nodes());
  for (AsId as = 0; as < graph.num_nodes(); ++as) {
    nodes_.push_back(
        std::make_unique<DMapNode>(as, table, hashes_, options.max_hashes));
  }
}

void ProtocolNetwork::FailAs(AsId as) { failures_.Fail(as, sim_.Now()); }

void ProtocolNetwork::RecoverAs(AsId as) {
  failures_.Recover(as, sim_.Now());
}

void ProtocolNetwork::ApplyFaultPlan(const FaultPlan& plan,
                                     std::uint64_t seed) {
  injector_ = std::make_unique<FaultInjector>(plan, seed);
  injector_->InstallSchedule(*graph_, failures_);
  for (const auto& [at, as] : injector_->WipeSchedule()) {
    const SimTime when = at < sim_.Now() ? sim_.Now() : at;
    sim_.ScheduleAt(when, [this, as] {
      nodes_[as]->store().Clear();
      Bump(store_wipes_, ins_.store_wipes);
    });
  }
}

void ProtocolNetwork::SetMetrics(MetricsRegistry* registry, unsigned shard) {
  metrics_ = registry;
  metrics_shard_ = shard;
  if (registry == nullptr) return;
  ins_.injected_drops = registry->Counter("fault.injected_drops");
  ins_.injected_duplicates = registry->Counter("fault.injected_duplicates");
  ins_.delivery_drops = registry->Counter("fault.delivery_drops");
  ins_.retransmissions = registry->Counter("fault.retransmissions");
  ins_.late_replies = registry->Counter("fault.late_replies");
  ins_.repair_inserts = registry->Counter("fault.repair_inserts");
  ins_.store_wipes = registry->Counter("fault.store_wipes");
  // The consistency.* surface exists only when the quorum machinery is
  // on, so a legacy-mode (W=1, R=1, no anti-entropy) export is
  // byte-identical to the pre-quorum protocol's.
  cins_ = ConsistencyInstruments{};
  if (QuorumActive()) {
    cins_.registered = true;
    cins_.stale_reads = registry->Counter("consistency.stale_reads");
    cins_.read_repairs = registry->Counter("consistency.read_repairs");
    cins_.quorum_failures =
        registry->Counter("consistency.quorum_failures");
    cins_.anti_entropy_repairs =
        registry->Counter("consistency.anti_entropy_repairs");
    cins_.write_quorum_latency_ms =
        registry->Histogram("consistency.write_quorum_latency_ms",
                            MetricsRegistry::LatencyBoundariesMs());
    cins_.read_quorum_latency_ms =
        registry->Histogram("consistency.read_quorum_latency_ms",
                            MetricsRegistry::LatencyBoundariesMs());
  }
}

void ProtocolNetwork::SetTracer(ProbeTracer* tracer, unsigned shard) {
  tracer_ = tracer;
  trace_shard_ = shard;
}

void ProtocolNetwork::Bump(std::uint64_t& plain, CounterId id,
                           std::uint64_t delta) {
  plain += delta;
  if (metrics_ != nullptr) metrics_->Add(id, delta, metrics_shard_);
}

void ProtocolNetwork::Send(const Message& message) {
  const MessageHeader header = HeaderOf(message);
  ++messages_sent_;
  // Encode to wire bytes: real serialisation cost + traffic accounting.
  const std::vector<std::uint8_t> wire = Encode(message);
  bytes_sent_ += wire.size();

  MessageFate fate;
  if (injector_ != nullptr) {
    fate = injector_->FateOf(message_seq_);
  } else {
    fate.delays_ms.push_back(0.0);
  }
  ++message_seq_;
  if (fate.dropped) {
    ++messages_dropped_;
    Bump(injected_drops_, ins_.injected_drops);
    return;
  }
  if (fate.delays_ms.size() > 1) {
    Bump(duplicates_delivered_, ins_.injected_duplicates,
         fate.delays_ms.size() - 1);
  }
  const double latency = oracle_.OneWayMs(header.src, header.dst);
  for (const double extra_ms : fate.delays_ms) {
    sim_.Schedule(
        SimTime::Millis(latency + extra_ms),
        [this, wire, src = header.src, dst = header.dst] {
          // The destination's state at *delivery* time decides: a failure
          // landing while the message is in flight swallows it, a recovery
          // lets it through. A pairwise partition between the endpoints
          // swallows it the same way — both ASs are up, they just cannot
          // hear each other.
          if (failures_.IsDownAt(dst, sim_.Now()) ||
              failures_.IsPartitionedAt(src, dst, sim_.Now())) {
            ++messages_dropped_;
            Bump(delivery_drops_, ins_.delivery_drops);
            return;
          }
          const std::optional<Message> decoded = Decode(wire);
          if (!decoded) {
            throw std::logic_error("ProtocolNetwork: wire corruption");
          }
          Deliver(*decoded);
        });
  }
}

void ProtocolNetwork::Deliver(const Message& message) {
  // Client-agent responses are routed by request id.
  if (const auto* response = std::get_if<LookupResponse>(&message)) {
    if (HandleLookupResponse(*response)) return;
  }
  if (const auto* ack = std::get_if<InsertAck>(&message)) {
    if (HandleInsertAck(*ack)) return;
  }
  if (const auto* batch = std::get_if<BatchUpdateResponse>(&message)) {
    if (HandleBatchUpdateResponse(*batch)) return;
  }

  // Serving tier: a LookupRequest reaching a mapping server meets its
  // admission machinery at delivery time. Shed = silence (the client's
  // timeout takes over); admitted = the node answers after queue wait +
  // service. Writes are not rate-limited (see SetServingTier).
  if (serving_ != nullptr) {
    if (const auto* request = std::get_if<LookupRequest>(&message)) {
      const AdmitResult admit =
          serving_->Admit(request->header.dst, sim_.Now());
      if (admit.outcome == AdmissionOutcome::kShed) {
        if (const auto it = lookups_.find(request->header.request_id);
            it != lookups_.end()) {
          ++it->second.op->sheds;
        }
        return;
      }
      probe_admits_[request->header.request_id] = admit;
      sim_.Schedule(SimTime::Millis(admit.DelayMs()),
                    [this, message] { DeliverToNode(message); });
      return;
    }
  }

  DeliverToNode(message);
}

void ProtocolNetwork::DeliverToNode(const Message& message) {
  const MessageHeader& header = HeaderOf(message);
  // Node-to-node protocol traffic. (Responses whose client op already
  // completed also land here; nodes ignore them.)
  std::vector<Message> responses;
  nodes_[header.dst]->HandleMessage(message, &responses);
  for (Message& response : responses) {
    // The node fills src/dst; just transmit.
    Send(response);
  }
}

bool ProtocolNetwork::HandleLookupResponse(const LookupResponse& response) {
  const MessageHeader& header = response.header;
  const auto it = lookups_.find(header.request_id);
  if (it == lookups_.end()) return false;
  const std::shared_ptr<LookupOp> op = it->second.op;
  const std::size_t index = it->second.index;
  if (op->completed) return true;
  const bool at_frontier = index == op->frontier;

  // The serving tier's verdict for this request, if one was recorded: the
  // reply charges its queue wait + service to the probe that paid it.
  AdmitResult admit;
  if (const auto admit_it = probe_admits_.find(header.request_id);
      admit_it != probe_admits_.end()) {
    admit = admit_it->second;
    probe_admits_.erase(admit_it);
  }

  if (op->read_target > 1) {
    HandleReadResponse(op, index, response, admit);
    return true;
  }

  if (response.found) {
    // A found reply resolves the lookup even when its probe already timed
    // out — the seed protocol dropped these on the floor and fell through
    // to a possibly wrong "not found".
    if (!at_frontier) Bump(late_replies_, ins_.late_replies);
    if (at_frontier && op->trace.has_value()) {
      op->trace->probes.push_back(
          ProbeEvent{header.src,
                     op->frontier_charged_ms + op->plan[index].rtt +
                         admit.DelayMs(),
                     ProbeOutcome::kHit});
    }
    LookupResult result;
    result.found = true;
    result.nas = response.entry.nas;
    result.serving_as = header.src;
    result.queue_delay_ms = admit.queue_delay_ms;
    result.admission = admit.outcome;
    CompleteLookup(op, result, &response.entry);
    return true;
  }

  // "GUID missing": the replica is alive but empty — remember it for the
  // lookup-triggered repair.
  if (std::find(op->miss_indices.begin(), op->miss_indices.end(), index) ==
      op->miss_indices.end()) {
    op->miss_indices.push_back(index);
  }
  if (!at_frontier) {
    // We had already timed this probe out and moved past it.
    Bump(late_replies_, ins_.late_replies);
    return true;
  }
  op->timeout.Cancel();
  if (op->trace.has_value()) {
    op->trace->probes.push_back(
        ProbeEvent{header.src,
                   op->frontier_charged_ms + op->plan[index].rtt +
                       admit.DelayMs(),
                   ProbeOutcome::kMiss});
  }
  SendProbe(op, index + 1);
  return true;
}

void ProtocolNetwork::CompleteLookup(const std::shared_ptr<LookupOp>& op,
                                     LookupResult result,
                                     const MappingEntry* found_entry) {
  op->completed = true;
  op->timeout.Cancel();
  op->local_reply.Cancel();
  for (LookupOp::Stream& stream : op->streams) stream.timeout.Cancel();
  for (const std::uint64_t id : op->request_ids) {
    lookups_.erase(id);
    probe_admits_.erase(id);
  }
  // Stale-read accounting against the committed frontier: a found answer
  // whose stamp is behind the last quorum-committed write of this GUID is
  // the consistency violation Fig. 9 measures. committed_ is only
  // populated when the quorum machinery is active, so legacy runs skip
  // this entirely.
  if (result.found && found_entry != nullptr && !committed_.empty()) {
    const auto committed = committed_.find(op->guid);
    if (committed != committed_.end() &&
        found_entry->stamp() < committed->second) {
      ++stale_reads_;
      if (cins_.registered) {
        metrics_->Add(cins_.stale_reads, 1, metrics_shard_);
      }
    }
  }
  result.latency_ms = (sim_.Now() - op->started).millis();
  result.attempts = op->attempts;
  if (op->trace.has_value()) {
    ProbeTrace& trace = *op->trace;
    trace.found = result.found;
    trace.local_won = result.served_locally;
    trace.latency_ms = result.latency_ms;
    trace.queue_delay_ms = result.queue_delay_ms;
    trace.admission = result.admission;
    trace.attempts = result.attempts;
    if (tracer_ != nullptr) tracer_->Record(trace_shard_, trace);
  }
  if (found_entry != nullptr && options_.repair_on_lookup &&
      !op->miss_indices.empty()) {
    RepairEmptyReplicas(*op, *found_entry);
  }
  // Cache fill on globally served answers only: a local win already costs
  // the one intra-AS round trip a cache hit would, and a cache-served
  // answer must not refresh its own TTL.
  if (cache_ != nullptr && result.found && !result.served_locally &&
      !result.served_from_cache && found_entry != nullptr) {
    cache_->Put(op->querier, op->guid, *found_entry, sim_.Now());
  }
  op->done(result);
}

void ProtocolNetwork::RepairEmptyReplicas(const LookupOp& op,
                                          const MappingEntry& entry) {
  // Re-replication (fire and forget): replicas that answered "missing" are
  // alive but lost the mapping — a crash wiped their store, or placement
  // churn moved it away. Re-insert the found entry there, version-gated so
  // duplicate and out-of-date repairs are rejected as stale.
  auto repair = std::make_shared<InsertOp>();
  repair->request_id = NextClientRequestId();
  repair->started = sim_.Now();
  repair->version = entry.version;
  repair->done = [](const UpdateResult&) {};
  std::vector<InsertRequest> requests;
  requests.reserve(op.miss_indices.size());
  for (const std::size_t index : op.miss_indices) {
    const LookupOp::Probe& probe = op.plan[index];
    InsertRequest request;
    request.header = MessageHeader{repair->request_id, op.querier,
                                   probe.host};
    request.guid = op.guid;
    request.entry = entry;
    request.stored_address = probe.stored_address;
    requests.push_back(request);
    repair->replicas.push_back(probe.host);
  }
  Bump(repairs_sent_, ins_.repair_inserts, requests.size());
  StartInsertSlots(repair, std::move(requests));
}

void ProtocolNetwork::InsertAsync(
    const Guid& guid, NetworkAddress na,
    std::function<void(const UpdateResult&)> done) {
  if (na.as >= graph_->num_nodes()) {
    throw std::invalid_argument("InsertAsync: NA references unknown AS");
  }
  auto op = std::make_shared<InsertOp>();
  op->request_id = NextClientRequestId();
  op->started = sim_.Now();
  op->version = ++versions_[guid];
  op->done = std::move(done);
  op->guid = guid;

  MappingEntry entry;
  entry.nas = NaSet(na);
  entry.version = op->version;
  entry.writer = na.as;
  op->stamp = entry.stamp();

  // Invalidate-on-update coherence: every AS's cached copy dies with the
  // write that supersedes it. TTL-only mode keeps the copies (bounded
  // staleness is the measured trade).
  if (cache_ != nullptr && options_.cache.invalidate_on_update) {
    cache_->Invalidate(guid);
  }

  // Client writes follow the quorum discipline; 1 keeps the legacy
  // all-slots-resolved completion bit-exactly. All K messages go out
  // regardless of W, so the message stream — and every fault fate drawn
  // from it — is identical across W settings.
  op->quorum_target = write_quorum_effective_;
  op->track_commit = QuorumActive();

  std::vector<InsertRequest> requests;
  requests.reserve(std::size_t(options_.k));
  for (int replica = 0; replica < options_.k; ++replica) {
    const HostResolution resolution = resolver_.Resolve(guid, replica);
    op->replicas.push_back(resolution.host);
    InsertRequest request;
    request.header = MessageHeader{op->request_id, na.as, resolution.host};
    request.guid = guid;
    request.entry = entry;
    request.stored_address = resolution.stored_address;
    requests.push_back(request);
  }
  // The local replica (Section III-C) is written at the attachment AS; in
  // legacy mode its intra-AS ack always beats the slowest global ack, so
  // it does not change the completion time; in quorum mode it counts as
  // an instant applied ack toward W.
  if (options_.local_replica) {
    if (nodes_[na.as]->store().Upsert(guid, entry)) ++op->applied;
  }
  // Anti-entropy registry: first insertion order, latest attachment AS.
  if (ae_owner_.emplace(guid, na.as).second) {
    ae_guids_.push_back(guid);
  } else {
    ae_owner_[guid] = na.as;
  }
  StartInsertSlots(op, std::move(requests));
  MaybeReportInsertQuorum(op);  // local ack alone may satisfy W
}

void ProtocolNetwork::StartInsertSlots(const std::shared_ptr<InsertOp>& op,
                                       std::vector<InsertRequest> requests) {
  op->outstanding = requests.size();
  op->slots.reserve(requests.size());
  inserts_[op->request_id] = op;
  for (const InsertRequest& request : requests) {
    const std::size_t slot = op->slots.size();
    InsertOp::Slot s;
    s.host = request.header.dst;
    op->slots.push_back(s);
    // The ack normally lands after one round trip; the timeout stands in
    // when it never comes (replica down, request or ack lost) so the
    // operation always completes. Adaptive like the lookup timeout: a
    // slow-but-alive replica is never declared dead before its ack can
    // arrive.
    const double rtt =
        2.0 * oracle_.OneWayMs(request.header.src, request.header.dst);
    const double timeout_ms =
        std::max(options_.failure_timeout_ms, 1.5 * rtt);
    op->slots[slot].timeout =
        sim_.Schedule(SimTime::Millis(timeout_ms), [this, op, slot] {
          if (op->slots[slot].resolved) return;
          ResolveInsertSlot(op, slot);
        });
    Send(request);
  }
  CompleteInsertIfDone(op);  // an empty batch completes immediately
}

void ProtocolNetwork::ResolveInsertSlot(const std::shared_ptr<InsertOp>& op,
                                        std::size_t slot) {
  op->slots[slot].resolved = true;
  op->slots[slot].timeout.Cancel();
  --op->outstanding;
  CompleteInsertIfDone(op);
}

void ProtocolNetwork::CompleteInsertIfDone(
    const std::shared_ptr<InsertOp>& op) {
  if (op->outstanding != 0) return;
  inserts_.erase(op->request_id);
  if (op->reported) return;  // quorum mode already fired done early
  UpdateResult result;
  result.latency_ms = (sim_.Now() - op->started).millis();
  result.replicas = op->replicas;
  result.version = op->version;
  if (op->quorum_target > 1) {
    // Every slot resolved without W applied acks: the write failed its
    // quorum. Replicas that did apply keep the newer entry (no rollback —
    // read-repair and anti-entropy converge the rest), but the stamp is
    // not committed and the caller is told, never a silent partial write.
    op->reported = true;
    if (op->applied >= op->quorum_target) {
      CommitStamp(op->guid, op->stamp);
      if (cins_.registered) {
        metrics_->Observe(cins_.write_quorum_latency_ms, result.latency_ms,
                          metrics_shard_);
      }
    } else {
      result.status = ResolverStatus::kQuorumFailed;
      ++quorum_failures_;
      if (cins_.registered) {
        metrics_->Add(cins_.quorum_failures, 1, metrics_shard_);
      }
    }
  }
  op->done(result);
}

void ProtocolNetwork::MaybeReportInsertQuorum(
    const std::shared_ptr<InsertOp>& op) {
  if (op->quorum_target <= 1 || op->reported) return;
  if (op->applied < op->quorum_target) return;
  // The W-th applied ack: the write is durable across any single
  // quorum-intersecting read. Fire the caller's callback now; the op
  // stays registered until every slot resolves so stragglers keep their
  // late-reply accounting.
  op->reported = true;
  UpdateResult result;
  result.latency_ms = (sim_.Now() - op->started).millis();
  result.replicas = op->replicas;
  result.version = op->version;
  CommitStamp(op->guid, op->stamp);
  if (cins_.registered) {
    metrics_->Observe(cins_.write_quorum_latency_ms, result.latency_ms,
                      metrics_shard_);
  }
  op->done(result);
}

void ProtocolNetwork::CommitStamp(const Guid& guid,
                                  const LogicalStamp& stamp) {
  if (!QuorumActive()) return;
  LogicalStamp& committed = committed_[guid];
  if (committed < stamp) committed = stamp;
}

bool ProtocolNetwork::HandleInsertAck(const InsertAck& ack) {
  const auto it = inserts_.find(ack.header.request_id);
  if (it == inserts_.end()) return false;
  const std::shared_ptr<InsertOp> op = it->second;
  for (std::size_t slot = 0; slot < op->slots.size(); ++slot) {
    if (op->slots[slot].host == ack.header.src &&
        !op->slots[slot].resolved) {
      if (ack.applied) {
        op->slots[slot].ack_counted = true;
        ++op->applied;
        MaybeReportInsertQuorum(op);
      }
      ResolveInsertSlot(op, slot);
      return true;
    }
  }
  // Duplicate ack, or the slot already timed out. A late applied ack
  // still proves the replica holds the write, so it counts toward the
  // quorum while the op is alive — but at most once per slot, so an
  // injected duplicate cannot inflate W.
  if (ack.applied && op->quorum_target > 1) {
    for (std::size_t slot = 0; slot < op->slots.size(); ++slot) {
      if (op->slots[slot].host == ack.header.src &&
          !op->slots[slot].ack_counted) {
        op->slots[slot].ack_counted = true;
        ++op->applied;
        MaybeReportInsertQuorum(op);
        break;
      }
    }
  }
  Bump(late_replies_, ins_.late_replies);
  return true;
}

void ProtocolNetwork::BatchUpdateAsync(
    const std::vector<std::pair<Guid, NetworkAddress>>& moves,
    std::function<void(const BatchUpdateResult&)> done) {
  if (moves.empty()) {
    done(BatchUpdateResult{});
    return;
  }
  // One batch models one migrating host: every GUID lands at the same new
  // attachment AS, so the updates share a source gateway and can share
  // messages.
  const AsId src_as = moves.front().second.as;
  for (const auto& [guid, na] : moves) {
    if (na.as >= graph_->num_nodes()) {
      throw std::invalid_argument(
          "BatchUpdateAsync: NA references unknown AS");
    }
    if (na.as != src_as) {
      throw std::invalid_argument(
          "BatchUpdateAsync: all moves must share one destination AS");
    }
  }

  auto op = std::make_shared<BatchOp>();
  op->request_id = NextClientRequestId();
  op->started = sim_.Now();
  op->guids = int(moves.size());
  op->done = std::move(done);

  // Group each GUID's K replica writes by destination AS: one
  // BatchUpdateRequest per distinct AS carries every entry hashed there,
  // stamped exactly as the K singleton InsertRequests would have been, so
  // replica stores end bit-identical to the sequential wave. Destinations
  // keep first-seen order — deterministic, no map iteration.
  std::vector<AsId> order;
  std::unordered_map<AsId, std::vector<BatchUpdateEntry>> grouped;
  for (const auto& [guid, na] : moves) {
    MappingEntry entry;
    entry.nas = NaSet(na);
    entry.version = ++versions_[guid];
    entry.writer = na.as;
    for (int replica = 0; replica < options_.k; ++replica) {
      const HostResolution r = resolver_.Resolve(guid, replica);
      const auto [it, fresh] = grouped.try_emplace(r.host);
      if (fresh) order.push_back(r.host);
      it->second.push_back(BatchUpdateEntry{guid, entry, r.stored_address});
      ++op->unbatched_messages;
      ++op->entries;
    }
    // The local replica is the gateway's own store: a direct write, no
    // message — identical to InsertAsync.
    if (options_.local_replica) {
      nodes_[na.as]->store().Upsert(guid, entry);
    }
    // Anti-entropy registry: first insertion order, latest attachment AS.
    if (ae_owner_.emplace(guid, na.as).second) {
      ae_guids_.push_back(guid);
    } else {
      ae_owner_[guid] = na.as;
    }
    if (cache_ != nullptr && options_.cache.invalidate_on_update) {
      cache_->Invalidate(guid);
    }
  }

  // One message per destination; a per-slot timeout stands in for a lost
  // response so the batch always completes — the same adaptive bound the
  // insert slots use.
  op->messages = order.size();
  op->outstanding = order.size();
  op->slots.reserve(order.size());
  batches_[op->request_id] = op;
  for (const AsId dst : order) {
    BatchUpdateRequest request;
    request.header = MessageHeader{op->request_id, src_as, dst};
    request.entries = std::move(grouped[dst]);
    const std::size_t slot = op->slots.size();
    BatchOp::Slot s;
    s.host = dst;
    op->slots.push_back(std::move(s));
    const double rtt = 2.0 * oracle_.OneWayMs(src_as, dst);
    const double timeout_ms =
        std::max(options_.failure_timeout_ms, 1.5 * rtt);
    op->slots[slot].timeout =
        sim_.Schedule(SimTime::Millis(timeout_ms), [this, op, slot] {
          if (op->slots[slot].resolved) return;
          ResolveBatchSlot(op, slot);
        });
    Send(request);
  }
  CompleteBatchIfDone(op);
}

void ProtocolNetwork::ResolveBatchSlot(const std::shared_ptr<BatchOp>& op,
                                       std::size_t slot) {
  op->slots[slot].resolved = true;
  op->slots[slot].timeout.Cancel();
  --op->outstanding;
  CompleteBatchIfDone(op);
}

void ProtocolNetwork::CompleteBatchIfDone(
    const std::shared_ptr<BatchOp>& op) {
  if (op->outstanding != 0) return;
  batches_.erase(op->request_id);
  BatchUpdateResult result;
  result.latency_ms = (sim_.Now() - op->started).millis();
  result.guids = op->guids;
  result.messages = op->messages;
  result.unbatched_messages = op->unbatched_messages;
  result.entries = op->entries;
  result.entries_applied = op->entries_applied;
  op->done(result);
}

bool ProtocolNetwork::HandleBatchUpdateResponse(
    const BatchUpdateResponse& response) {
  const auto it = batches_.find(response.header.request_id);
  if (it == batches_.end()) return false;
  const std::shared_ptr<BatchOp> op = it->second;
  for (std::size_t slot = 0; slot < op->slots.size(); ++slot) {
    if (op->slots[slot].host == response.header.src &&
        !op->slots[slot].resolved) {
      for (const std::uint8_t applied : response.applied) {
        if (applied != 0) ++op->entries_applied;
      }
      ResolveBatchSlot(op, slot);
      return true;
    }
  }
  // Duplicate response, or the slot already timed out.
  Bump(late_replies_, ins_.late_replies);
  return true;
}

void ProtocolNetwork::LookupAsync(
    const Guid& guid, AsId querier,
    std::function<void(const LookupResult&)> done) {
  if (querier >= graph_->num_nodes()) {
    throw std::invalid_argument("LookupAsync: unknown querier AS");
  }
  auto op = std::make_shared<LookupOp>();
  op->guid = guid;
  op->querier = querier;
  op->started = sim_.Now();
  op->done = std::move(done);
  if (tracer_ != nullptr && tracer_->ShouldTrace(guid)) {
    op->trace.emplace();
    op->trace->op = 'W';  // wire-path lookup
    op->trace->guid_fp = guid.Fingerprint64();
    op->trace->querier = querier;
  }

  // Resolver-side cache: a fresh cached copy answers after one intra-AS
  // round trip, and nothing leaves the querier AS. Consulted before the
  // local-replica race — the cache sits at the border gateway, in front
  // of the store. A stale answer (behind the committed quorum frontier)
  // is still served — that is the measured trade — but tallied.
  if (cache_ != nullptr) {
    if (const MappingEntry* cached = cache_->Get(querier, guid, sim_.Now())) {
      const MappingEntry hit = *cached;
      sim_.Schedule(SimTime::Millis(2.0 * graph_->IntraLatencyMs(querier)),
                    [this, op, hit] {
                      if (op->completed) return;
                      if (!committed_.empty()) {
                        const auto committed = committed_.find(op->guid);
                        if (committed != committed_.end() &&
                            hit.stamp() < committed->second) {
                          cache_->CountStaleServed();
                        }
                      }
                      LookupResult result;
                      result.found = true;
                      result.nas = hit.nas;
                      result.serving_as = op->querier;
                      result.served_from_cache = true;
                      CompleteLookup(op, result, &hit);
                    });
      return;
    }
  }

  // Probe order: lowest RTT first (the paper's main configuration).
  const auto latencies = oracle_.LatenciesFrom(querier);
  for (int replica = 0; replica < options_.k; ++replica) {
    const HostResolution resolution = resolver_.Resolve(guid, replica);
    const AsId host = resolution.host;
    const double rtt = host == querier
                           ? 2.0 * graph_->IntraLatencyMs(querier)
                           : 2.0 * (graph_->IntraLatencyMs(querier) +
                                    double(latencies[host]) +
                                    graph_->IntraLatencyMs(host));
    op->plan.push_back(
        LookupOp::Probe{host, rtt, resolution.stored_address});
  }
  std::sort(op->plan.begin(), op->plan.end(),
            [](const LookupOp::Probe& a, const LookupOp::Probe& b) {
              return a.rtt != b.rtt ? a.rtt < b.rtt : a.host < b.host;
            });

  // Read-quorum fan-out (R > 1): R concurrent streams instead of the
  // sequential frontier; the local-replica race is skipped so the R
  // responses come from R distinct replicas and the W+R intersection
  // argument holds.
  if (read_quorum_effective_ > 1) {
    StartReadFanout(op);
    return;
  }

  // Local-replica race (Section III-C).
  if (options_.local_replica &&
      !failures_.IsDownAt(querier, sim_.Now())) {
    if (const MappingEntry* entry =
            nodes_[querier]->store().Lookup(guid)) {
      const MappingEntry local = *entry;
      op->local_reply = sim_.Schedule(
          SimTime::Millis(2.0 * graph_->IntraLatencyMs(querier)),
          [this, op, local] {
            if (op->completed) return;
            LookupResult result;
            result.found = true;
            result.nas = local.nas;
            result.serving_as = op->querier;
            result.served_locally = true;
            CompleteLookup(op, result, &local);
          });
    }
  }

  SendProbe(op, 0);
}

void ProtocolNetwork::WithdrawPrefixAsync(
    const Cidr& prefix, AsId owner, PrefixTable& table,
    std::function<void(int migrated)> done) {
  // 1. Collect the mappings this withdrawal orphans (placed under the
  //    prefix at this AS).
  struct Affected {
    Guid guid;
    MappingEntry entry;
  };
  std::vector<Affected> affected;
  nodes_[owner]->store().ForEachStoredIn(
      prefix, [&affected](const Guid& guid, const MappingEntry& entry) {
        affected.push_back(Affected{guid, entry});
      });

  // 2. Snapshot the pre-withdrawal resolutions of the affected GUIDs: the
  //    owner can derive, from its own BGP view alone, which replica chains
  //    will move when its prefix disappears.
  std::vector<std::vector<AsId>> before(affected.size());
  for (std::size_t i = 0; i < affected.size(); ++i) {
    for (int replica = 0; replica < options_.k; ++replica) {
      before[i].push_back(resolver_.Resolve(affected[i].guid, replica).host);
    }
  }

  // 3. Withdraw: from here on, every gateway's rehash chain skips the
  //    prefix, so the post-withdrawal resolutions are exactly where queries
  //    will look next.
  if (!table.Withdraw(prefix)) {
    throw std::invalid_argument("WithdrawPrefixAsync: prefix not announced");
  }

  if (affected.empty()) {
    done(0);
    return;
  }

  // 4. Hand each mapping to the deputies its chains moved to, and drop the
  //    local copy. One InsertOp tracks all the handoffs; each deputy write
  //    gets a slot whose timeout stands in for a lost ack, so the handoff
  //    always completes.
  auto op = std::make_shared<InsertOp>();
  op->request_id = NextClientRequestId();
  op->started = sim_.Now();
  const int migrated = int(affected.size());
  op->done = [done = std::move(done), migrated](const UpdateResult&) {
    done(migrated);
  };

  std::vector<InsertRequest> to_send;
  for (std::size_t i = 0; i < affected.size(); ++i) {
    const Affected& a = affected[i];
    nodes_[owner]->store().Erase(a.guid);
    for (int replica = 0; replica < options_.k; ++replica) {
      const HostResolution r = resolver_.Resolve(a.guid, replica);
      if (r.host == before[i][std::size_t(replica)]) continue;  // unmoved
      if (r.host == owner) continue;  // self writes need no message
      InsertRequest request;
      request.header = MessageHeader{op->request_id, owner, r.host};
      request.guid = a.guid;
      request.entry = a.entry;
      request.stored_address = r.stored_address;
      to_send.push_back(request);
    }
  }

  if (to_send.empty()) {
    done(migrated);
    return;
  }
  StartInsertSlots(op, std::move(to_send));
}

void ProtocolNetwork::SendProbe(const std::shared_ptr<LookupOp>& op,
                                std::size_t index) {
  if (op->completed) return;
  if (index >= op->plan.size()) {
    // Every replica missed or timed out: report the failure at the time
    // the last timeout fired or miss came back. When the serving tier shed
    // at least one probe, overload — not absence — is the likely cause.
    LookupResult result;
    result.admission = op->sheds > 0 ? AdmissionOutcome::kShed
                                     : AdmissionOutcome::kServed;
    CompleteLookup(op, result, nullptr);
    return;
  }
  op->frontier = index;
  op->frontier_charged_ms = 0.0;
  // `attempts` counts replicas probed, not transmissions — the closed form
  // has no notion of retransmission, and the two must agree.
  ++op->attempts;

  const std::uint64_t id = NextClientRequestId();
  op->request_ids.push_back(id);
  lookups_[id] = PendingProbe{op, index};
  TransmitProbe(op, index, /*retry=*/0);
}

void ProtocolNetwork::TransmitProbe(const std::shared_ptr<LookupOp>& op,
                                    std::size_t index, int retry) {
  const LookupOp::Probe& probe = op->plan[index];
  LookupRequest request;
  request.header =
      MessageHeader{op->request_ids[index], op->querier, probe.host};
  request.guid = op->guid;

  // Arm the timeout; a response cancels it. It adapts to the client's own
  // RTT estimate for this replica (it just used that estimate to order the
  // probes) so a slow-but-alive replica is never declared dead before its
  // reply can arrive; on retransmission it backs off exponentially.
  const double timeout_ms =
      std::max(TimeoutForAttemptMs(options_.failure_timeout_ms, retry,
                                   options_.retry_backoff),
               1.5 * probe.rtt);
  op->timeout = sim_.Schedule(
      SimTime::Millis(timeout_ms), [this, op, index, retry, timeout_ms] {
        ProbeTimedOut(op, index, retry, timeout_ms);
      });
  Send(request);
}

void ProtocolNetwork::ProbeTimedOut(const std::shared_ptr<LookupOp>& op,
                                    std::size_t index, int retry,
                                    double timeout_ms) {
  if (op->completed || index != op->frontier) return;
  op->frontier_charged_ms += timeout_ms;
  if (retry < options_.probe_retries) {
    // Same request id: a straggling reply to the original transmission is
    // indistinguishable from (and as good as) a reply to the retry.
    Bump(retransmissions_, ins_.retransmissions);
    TransmitProbe(op, index, retry + 1);
    return;
  }
  if (op->trace.has_value()) {
    op->trace->probes.push_back(ProbeEvent{op->plan[index].host,
                                           op->frontier_charged_ms,
                                           ProbeOutcome::kTimeout});
  }
  SendProbe(op, index + 1);
}

// ---------------------------------------------------------------------------
// Read-quorum fan-out (R > 1).

void ProtocolNetwork::StartReadFanout(const std::shared_ptr<LookupOp>& op) {
  op->read_target =
      int(std::min(std::size_t(read_quorum_effective_), op->plan.size()));
  op->index_responded.assign(op->plan.size(), 0);
  op->streams.resize(std::size_t(op->read_target));
  op->next_index = 0;
  for (std::size_t stream = 0; stream < op->streams.size(); ++stream) {
    ClaimReadProbe(op, stream);
  }
  MaybeCompleteRead(op);  // degenerate empty plan
}

void ProtocolNetwork::ClaimReadProbe(const std::shared_ptr<LookupOp>& op,
                                     std::size_t stream) {
  if (op->completed) return;
  LookupOp::Stream& s = op->streams[stream];
  if (op->next_index >= op->plan.size()) {
    // No replicas left to probe: this stream dies. Completion is checked
    // by the caller (timeout/response handlers) via MaybeCompleteRead.
    s.alive = false;
    return;
  }
  // Streams claim plan indices in ascending order through the shared
  // cursor, so request_ids stays aligned: request_ids[i] is probe i's id.
  const std::size_t index = op->next_index++;
  s.index = index;
  s.retry = 0;
  s.alive = true;
  ++op->attempts;
  const std::uint64_t id = NextClientRequestId();
  op->request_ids.push_back(id);
  lookups_[id] = PendingProbe{op, index};
  TransmitReadProbe(op, stream, /*retry=*/0);
}

void ProtocolNetwork::TransmitReadProbe(const std::shared_ptr<LookupOp>& op,
                                        std::size_t stream, int retry) {
  LookupOp::Stream& s = op->streams[stream];
  const LookupOp::Probe& probe = op->plan[s.index];
  LookupRequest request;
  request.header =
      MessageHeader{op->request_ids[s.index], op->querier, probe.host};
  request.guid = op->guid;
  const double timeout_ms =
      std::max(TimeoutForAttemptMs(options_.failure_timeout_ms, retry,
                                   options_.retry_backoff),
               1.5 * probe.rtt);
  s.timeout = sim_.Schedule(
      SimTime::Millis(timeout_ms),
      [this, op, stream, index = s.index, retry] {
        ReadProbeTimedOut(op, stream, index, retry);
      });
  Send(request);
}

void ProtocolNetwork::ReadProbeTimedOut(const std::shared_ptr<LookupOp>& op,
                                        std::size_t stream,
                                        std::size_t index, int retry) {
  if (op->completed) return;
  LookupOp::Stream& s = op->streams[stream];
  if (!s.alive || s.index != index) return;  // stale timer
  if (retry < options_.probe_retries) {
    Bump(retransmissions_, ins_.retransmissions);
    s.retry = retry + 1;
    TransmitReadProbe(op, stream, retry + 1);
    return;
  }
  if (op->trace.has_value()) {
    op->trace->probes.push_back(ProbeEvent{
        op->plan[index].host, op->plan[index].rtt, ProbeOutcome::kTimeout});
  }
  ClaimReadProbe(op, stream);
  MaybeCompleteRead(op);
}

void ProtocolNetwork::HandleReadResponse(const std::shared_ptr<LookupOp>& op,
                                         std::size_t index,
                                         const LookupResponse& response,
                                         const AdmitResult& admit) {
  if (op->index_responded[index] != 0) {
    // An injected duplicate of a reply already consumed: pure noise.
    Bump(late_replies_, ins_.late_replies);
    return;
  }
  op->index_responded[index] = 1;
  ++op->responses;

  // Find the stream still awaiting this index; none means its stream
  // timed out past it — the response is late but still counts as this
  // replica's answer (the PR-4 late-reply semantics).
  std::size_t owner = op->streams.size();
  for (std::size_t stream = 0; stream < op->streams.size(); ++stream) {
    if (op->streams[stream].alive && op->streams[stream].index == index) {
      owner = stream;
      break;
    }
  }
  if (owner == op->streams.size()) {
    Bump(late_replies_, ins_.late_replies);
  }

  if (response.found) {
    op->answers.emplace_back(index, response.entry);
    if (op->trace.has_value()) {
      op->trace->probes.push_back(
          ProbeEvent{op->plan[index].host,
                     op->plan[index].rtt + admit.DelayMs(),
                     ProbeOutcome::kHit});
    }
    // A found stream's job is done; it does not claim further replicas —
    // the response count, not the stream, drives completion.
    if (owner < op->streams.size()) {
      op->streams[owner].timeout.Cancel();
      op->streams[owner].alive = false;
    }
  } else {
    if (std::find(op->miss_indices.begin(), op->miss_indices.end(), index) ==
        op->miss_indices.end()) {
      op->miss_indices.push_back(index);
    }
    if (op->trace.has_value()) {
      op->trace->probes.push_back(
          ProbeEvent{op->plan[index].host,
                     op->plan[index].rtt + admit.DelayMs(),
                     ProbeOutcome::kMiss});
    }
    if (owner < op->streams.size()) {
      op->streams[owner].timeout.Cancel();
      ClaimReadProbe(op, owner);
    }
  }
  MaybeCompleteRead(op);
}

void ProtocolNetwork::MaybeCompleteRead(const std::shared_ptr<LookupOp>& op) {
  if (op->completed) return;
  if (op->responses < op->read_target) {
    for (const LookupOp::Stream& s : op->streams) {
      if (s.alive) return;  // still probing
    }
  }
  CompleteReadLookup(op);
}

void ProtocolNetwork::CompleteReadLookup(
    const std::shared_ptr<LookupOp>& op) {
  // Winner: maximum logical stamp; a tie means the same write, broken
  // toward the lowest plan index for determinism.
  const MappingEntry* winner = nullptr;
  std::size_t winner_index = 0;
  for (const auto& [index, entry] : op->answers) {
    if (winner == nullptr || winner->stamp() < entry.stamp() ||
        (winner->stamp() == entry.stamp() && index < winner_index)) {
      winner = &entry;
      winner_index = index;
    }
  }

  LookupResult result;
  if (winner != nullptr) {
    result.found = true;
    result.nas = winner->nas;
    result.serving_as = op->plan[winner_index].host;
  } else {
    result.admission = op->sheds > 0 ? AdmissionOutcome::kShed
                                     : AdmissionOutcome::kServed;
  }

  // Read-repair of *stale* answerers: replicas that replied with an older
  // stamp get the winner pushed back at them. (Empty repliers are handled
  // by the existing miss repair inside CompleteLookup.) Idempotent and
  // commutative at the store: the push is stamp-gated like any write.
  if (winner != nullptr) {
    for (const auto& [index, entry] : op->answers) {
      if (entry.stamp() < winner->stamp()) {
        SendRepairInsert(op->guid, op->querier, op->plan[index].host,
                         *winner, op->plan[index].stored_address);
        ++read_repairs_;
        if (cins_.registered) {
          metrics_->Add(cins_.read_repairs, 1, metrics_shard_);
        }
      }
    }
    if (cins_.registered) {
      metrics_->Observe(cins_.read_quorum_latency_ms,
                        (sim_.Now() - op->started).millis(),
                        metrics_shard_);
    }
  }
  CompleteLookup(op, result, winner);
}

void ProtocolNetwork::SendRepairInsert(const Guid& guid, AsId src, AsId dst,
                                       const MappingEntry& entry,
                                       Ipv4Address stored_address) {
  auto repair = std::make_shared<InsertOp>();
  repair->request_id = NextClientRequestId();
  repair->started = sim_.Now();
  repair->version = entry.version;
  repair->done = [](const UpdateResult&) {};
  repair->replicas.push_back(dst);
  InsertRequest request;
  request.header = MessageHeader{repair->request_id, src, dst};
  request.guid = guid;
  request.entry = entry;
  request.stored_address = stored_address;
  StartInsertSlots(repair, {request});
}

// ---------------------------------------------------------------------------
// Anti-entropy.

int ProtocolNetwork::RunAntiEntropyRound(int budget) {
  if (budget <= 0 || ae_guids_.empty()) return 0;
  int repairs = 0;
  const std::size_t examine =
      std::min(std::size_t(budget), ae_guids_.size());
  for (std::size_t step = 0; step < examine; ++step) {
    const Guid& guid = ae_guids_[ae_cursor_ % ae_guids_.size()];
    ae_cursor_ = (ae_cursor_ + 1) % ae_guids_.size();

    // Direct store scan at the serial point: find the freshest replica's
    // entry, then push it to every replica that is behind or empty. The
    // pushes are real InsertRequests — encoded, counted, and subject to
    // the fault plan like any other message.
    struct ReplicaState {
      AsId host = kInvalidAs;
      Ipv4Address stored_address;
      const MappingEntry* entry = nullptr;
    };
    std::vector<ReplicaState> states;
    states.reserve(std::size_t(options_.k));
    const MappingEntry* freshest = nullptr;
    AsId freshest_host = kInvalidAs;
    for (int replica = 0; replica < options_.k; ++replica) {
      const HostResolution resolution = resolver_.Resolve(guid, replica);
      ReplicaState state;
      state.host = resolution.host;
      state.stored_address = resolution.stored_address;
      state.entry = nodes_[resolution.host]->store().Lookup(guid);
      if (state.entry != nullptr &&
          (freshest == nullptr || freshest->stamp() < state.entry->stamp())) {
        freshest = state.entry;
        freshest_host = state.host;
      }
      states.push_back(state);
    }
    // The owner's local copy can be the only survivor (every global
    // wiped): it seeds re-replication too.
    if (options_.local_replica) {
      const auto owner_it = ae_owner_.find(guid);
      if (owner_it != ae_owner_.end()) {
        const MappingEntry* local =
            nodes_[owner_it->second]->store().Lookup(guid);
        if (local != nullptr &&
            (freshest == nullptr || freshest->stamp() < local->stamp())) {
          freshest = local;
          freshest_host = owner_it->second;
        }
      }
    }
    if (freshest == nullptr) continue;  // nobody has it; nothing to sync
    const MappingEntry push = *freshest;  // stores may mutate during sends
    for (const ReplicaState& state : states) {
      if (state.host == freshest_host) continue;
      if (state.entry != nullptr && !(state.entry->stamp() < push.stamp())) {
        continue;  // already current
      }
      SendRepairInsert(guid, freshest_host, state.host, push,
                       state.stored_address);
      ++repairs;
      ++anti_entropy_repairs_;
      if (cins_.registered) {
        metrics_->Add(cins_.anti_entropy_repairs, 1, metrics_shard_);
      }
    }
  }
  return repairs;
}

}  // namespace dmap
