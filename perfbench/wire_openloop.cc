// wire_openloop: the wire protocol over the event kernel. Each worker runs
// one independent trial, as the repo's chaos sweep runs its trials. A trial
// owns a read network (a serial ProtocolNetwork with a ServingTier, a light
// message-drop FaultPlan and probe retransmission) and a fault-free write
// network holding the same GUIDs, and alternates one chunk of InsertAsync
// re-registrations on the write network with one window of an open-loop
// Poisson lookup stream (OpenLoopArrivals) on the read network. Running the
// serial trials side by side, and interleaving reads with writes, makes both
// rates averages over every core and the whole run rather than readings of
// one core at one moment, whose speed drifts on a shared machine.
#include <cmath>
#include <functional>
#include <memory>
#include <unordered_map>

#include "bench.h"
#include "common/hash.h"
#include "core/hole_resolver.h"
#include "event/simulator.h"
#include "fault/fault_plan.h"
#include "proto/messages.h"
#include "proto/network.h"
#include "serve/serving_tier.h"
#include "sim/environment.h"
#include "topo/shortest_path.h"
#include "workload/arrivals.h"
#include "workload/workload.h"

namespace perfbench {

using namespace dmap;

namespace {

constexpr int kReplicas = 5;
constexpr std::uint64_t kSampleEvery = 16;
constexpr std::uint64_t kInsertCodecSamples = 256;
// GUID re-registrations per timed chunk on the write network.
constexpr std::size_t kUpdateChunk = 500;

struct Sizes {
  std::uint32_t ases = 2'000;     // the scale of the repo's wire benches
  std::uint64_t guids = 20'000;   // per trial
  double rate_per_s = 2'000.0;    // offered lookups per simulated second
  double window_s = 0.25;         // simulated seconds per measured window
  double service_rate_per_s = 550.0;
  int queue_depth = 8;
  double drop_probability = 0.01;
  int probe_retries = 2;
};

Sizes SizesFor(const Args& args) {
  Sizes s;
  if (args.smoke) {
    s.ases = 300;
    s.guids = 1'000;
    s.rate_per_s = 400.0;
    s.service_rate_per_s = 40.0;
  }
  return s;
}

class WireReplay;

// One trial's state during a measured pass.
struct TrialPass {
  std::vector<std::uint8_t> completions;  // per arrival
  std::uint64_t lookups = 0, answered = 0, wrong = 0;
  double queue_delay_ms = 0;
  std::size_t peak_pending = 0;
  std::vector<double> latency_ms;
  std::size_t windows = 0;
  double window_wall_ns = 0;
  std::vector<double> window_rates, update_rates;
  std::uint64_t updates = 0, updates_completed = 0, updates_failed = 0;
  std::vector<double> update_latency_ms;
};

struct Trial {
  std::unique_ptr<WorkloadGenerator> generator;
  std::unique_ptr<ProtocolNetwork> net;        // reads
  std::unique_ptr<ProtocolNetwork> write_net;  // re-registrations
  std::unique_ptr<ServingTier> tier;
  // NA each GUID was registered with on the read network.
  std::unordered_map<Guid, NetworkAddress, GuidHash> registered;
  std::vector<InsertOp> inserts;
  std::uint64_t inserts_ok = 0;
  std::vector<InsertOp> writes;  // the write network's latest NAs
  std::size_t write_cursor = 0;
  std::size_t next_window = 0;
  TrialPass pass;
  unsigned lane = 0;  // span lane of the worker running the trial
  std::unique_ptr<WireReplay> replay;  // traced pass only
};

struct World {
  explicit World(SimEnvironment built) : env(std::move(built)) {}
  SimEnvironment env;
  MetricsRegistry registry;
  std::vector<std::unique_ptr<Trial>> trials;
};

std::unique_ptr<World> Build(const Args& args, const Sizes& sizes,
                             ThreadPool& pool, SetupTimes& t) {
  const auto start = Clock::now();
  auto step = Clock::now();
  auto w = std::make_unique<World>(
      BuildEnvironment(EnvironmentParams::Scaled(sizes.ases)));
  t.env_s = SecondsSince(step);

  // Point queries (every message's one-way delay) go to the hub labels;
  // LookupAsync's full-vector LatenciesFrom still runs Dijkstra behind the
  // oracle's LRU.
  step = Clock::now();
  const HubLabels* labels = EnsureHubLabels(w->env, args.threads);
  t.labels_s = SecondsSince(step);

  // Trials are created serially (metric registration is single-threaded)
  // and loaded in parallel, one per worker.
  step = Clock::now();
  w->registry.EnsureWorkers(pool.size());
  for (unsigned i = 0; i < pool.size(); ++i) {
    auto trial = std::make_unique<Trial>();
    WorkloadParams params;
    params.num_guids = sizes.guids;
    params.num_lookups = 0;
    params.seed = SubSeed(args.seed, 4 + 16 * i);
    trial->generator = std::make_unique<WorkloadGenerator>(w->env.graph, params);
    trial->inserts = trial->generator->Inserts();
    trial->registered.reserve(trial->inserts.size());
    for (const InsertOp& op : trial->inserts) {
      trial->registered.emplace(op.guid, op.na);
    }
    ProtocolNetworkOptions options;
    options.k = kReplicas;
    options.probe_retries = sizes.probe_retries;
    trial->net = std::make_unique<ProtocolNetwork>(w->env.graph, w->env.table,
                                                   options);
    trial->net->oracle().SetHubLabels(labels);
    trial->net->SetMetrics(&w->registry, i);
    trial->write_net = std::make_unique<ProtocolNetwork>(
        w->env.graph, w->env.table, options);
    trial->write_net->oracle().SetHubLabels(labels);
    trial->writes = trial->inserts;
    ServingConfig serving;
    serving.enabled = true;
    serving.model = ServiceModel::kDeterministic;
    serving.service_rate_per_s = sizes.service_rate_per_s;
    serving.queue_depth = sizes.queue_depth;
    serving.admission = AdmissionPolicy::kNone;
    trial->tier = std::make_unique<ServingTier>(serving);
    trial->tier->SetMetrics(&w->registry, i);
    w->trials.push_back(std::move(trial));
  }
  t.gen_s = SecondsSince(step);

  // Both networks load fault-free; the read network's faults and serving
  // tier start after the load.
  step = Clock::now();
  pool.RunChunks(w->trials.size(), [&](std::size_t i, unsigned) {
    Trial& trial = *w->trials[i];
    for (ProtocolNetwork* net : {trial.net.get(), trial.write_net.get()}) {
      for (const InsertOp& op : trial.inserts) {
        net->InsertAsync(op.guid, op.na, [&trial](const UpdateResult& r) {
          trial.inserts_ok += r.status == ResolverStatus::kOk;
        });
      }
      net->simulator().Run();
    }
  });
  for (std::size_t i = 0; i < w->trials.size(); ++i) {
    Trial& trial = *w->trials[i];
    FaultPlan plan;
    plan.drop_probability = sizes.drop_probability;
    trial.net->ApplyFaultPlan(plan, SubSeed(args.seed, 5 + 16 * i));
    trial.net->SetServingTier(trial.tier.get());
  }
  t.load_s = SecondsSince(step);
  t.total_s = SecondsSince(start);
  return w;
}

// One chunk of re-registrations on the trial's write network: kUpdateChunk
// GUIDs move to a new locator with InsertAsync, then the simulator drains.
// The write network is fault-free and has no serving tier.
void RunWriteChunk(Trial& trial) {
  TrialPass& pass = trial.pass;
  const std::uint64_t start = NowNs();
  for (std::size_t j = 0; j < kUpdateChunk; ++j) {
    InsertOp& op = trial.writes[trial.write_cursor++ % trial.writes.size()];
    ++op.na.locator;
    trial.write_net->InsertAsync(op.guid, op.na, [&pass](const UpdateResult& r) {
      ++pass.updates_completed;
      pass.updates_failed += r.status != ResolverStatus::kOk;
      pass.update_latency_ms.push_back(r.latency_ms);
    });
  }
  trial.write_net->simulator().Run();
  pass.update_rates.push_back(double(kUpdateChunk) /
                              (double(NowNs() - start) / 1e9));
  pass.updates += kUpdateChunk;
}

struct Counters {
  std::uint64_t sent = 0, bytes = 0, dropped = 0, retransmissions = 0;
  std::uint64_t events = 0, tier_arrivals = 0, tier_admitted = 0, shed = 0;
  std::uint64_t dijkstra = 0, oracle_hits = 0;

  // Totals over every trial.
  static Counters Read(World& w) {
    Counters c;
    for (const auto& trial : w.trials) {
      ProtocolNetwork& net = *trial->net;
      const ServingTier& tier = *trial->tier;
      c.sent += net.messages_sent();
      c.bytes += net.bytes_sent();
      c.dropped += net.messages_dropped();
      c.retransmissions += net.retransmissions();
      c.events += net.simulator().executed_events();
      c.tier_arrivals += tier.arrivals();
      c.tier_admitted += tier.served() + tier.queued();
      c.shed += tier.shed();
      c.dijkstra += net.oracle().dijkstra_runs();
      c.oracle_hits += net.oracle().latency_cache_hits();
    }
    return c;
  }
  Counters operator-(const Counters& o) const {
    return {sent - o.sent,
            bytes - o.bytes,
            dropped - o.dropped,
            retransmissions - o.retransmissions,
            events - o.events,
            tier_arrivals - o.tier_arrivals,
            tier_admitted - o.tier_admitted,
            shed - o.shed,
            dijkstra - o.dijkstra,
            oracle_hits - o.oracle_hits};
  }
};

// The layer calls a sampled lookup makes, replayed on the same inputs in
// spans. The calls inside LookupAsync are children of its span; the ones
// made later, when the probe and its reply are delivered, are their own
// root spans of the same operation. One per trial.
class WireReplay {
 public:
  WireReplay(const SimEnvironment& env, Trial& trial, SpanRecorder& spans,
             std::size_t pending)
      : env_(env),
        trial_(trial),
        spans_(spans),
        hashes_(kReplicas, ProtocolNetworkOptions{}.hash_seed),
        resolver_(hashes_, env.table, ProtocolNetworkOptions{}.max_hashes) {
    // A private kernel holding as many pending events as the real one at
    // its peak, so one schedule-and-run costs what it costs there.
    for (std::size_t i = 0; i < pending; ++i) {
      private_sim_.Schedule(SimTime::Seconds(1e9), [] {});
    }
  }

  void Lookup(unsigned lane, std::uint64_t op, const Guid& guid, AsId querier,
              const std::function<void()>& lookup_async) {
    ProtocolNetwork& net = *trial_.net;
    const std::uint64_t dijkstra0 = net.oracle().dijkstra_runs();
    const std::uint64_t id =
        spans_.Begin(lane, "wire.lookup_async", kNoParent, op);
    lookup_async();
    spans_.End(id);
    const std::uint64_t dijkstra = net.oracle().dijkstra_runs() - dijkstra0;

    PinnedVector<float> latencies;
    {
      ScopedSpan span(&spans_, lane, "oracle.latencies_from", id, op);
      latencies = net.oracle().LatenciesFrom(querier);
    }
    // The first replica probed: the lowest RTT, as LookupAsync orders them.
    AsId first = kInvalidAs;
    double best = 0;
    {
      ScopedSpan span(&spans_, lane, "resolve", id, op, kReplicas);
      const double intra = env_.graph.IntraLatencyMs(querier);
      for (int r = 0; r < kReplicas; ++r) {
        const HostResolution h = resolver_.Resolve(guid, r);
        evals_ += std::uint64_t(h.hash_count);
        const double rtt =
            h.host == querier
                ? 2.0 * intra
                : 2.0 * (intra + double(latencies[h.host]) +
                         env_.graph.IntraLatencyMs(h.host));
        if (first == kInvalidAs || rtt < best ||
            (rtt == best && h.host < first)) {
          first = h.host;
          best = rtt;
        }
      }
      replicas_ += kReplicas;
    }
    LookupRequest request;
    request.header = MessageHeader{op, querier, first};
    request.guid = guid;
    std::vector<std::uint8_t> wire;
    {
      ScopedSpan span(&spans_, lane, "codec.encode.lookup_request", id, op);
      wire = Encode(request);
    }
    {
      ScopedSpan span(&spans_, lane, "oracle.one_way", id, op);
      sink_ += std::uint64_t(net.oracle().OneWayMs(querier, first));
    }
    if (net.injector() != nullptr) {
      ScopedSpan span(&spans_, lane, "fault.fate", id, op);
      sink_ += net.injector()->FateOf(op).dropped;
    }

    // Delivery of the probe and its reply.
    {
      ScopedSpan span(&spans_, lane, "codec.decode.lookup_request", kNoParent,
                      op);
      sink_ += Decode(wire).has_value();
    }
    {
      ScopedSpan span(&spans_, lane, "serve.admit", kNoParent, op);
      sink_ += trial_.tier->WouldShed(first, net.simulator().Now());
    }
    LookupResponse response;
    response.header = MessageHeader{op, first, querier};
    response.guid = guid;
    {
      ScopedSpan span(&spans_, lane, "store.read", kNoParent, op);
      if (const MappingEntry* e = net.node(first).store().Lookup(guid)) {
        response.found = true;
        response.entry = *e;
      }
    }
    {
      ScopedSpan span(&spans_, lane, "codec.encode.lookup_response", kNoParent,
                      op);
      wire = Encode(response);
    }
    {
      ScopedSpan span(&spans_, lane, "codec.decode.lookup_response", kNoParent,
                      op);
      sink_ += Decode(wire).has_value();
    }
    {
      ScopedSpan span(&spans_, lane, "sim.event", kNoParent, op);
      private_sim_.Schedule(SimTime::Zero(), [this] { ++sink_; });
      private_sim_.Step();
    }
    // Last, so the vector it builds does not evict what the others touch.
    if (dijkstra > 0) {
      ScopedSpan span(&spans_, lane, "oracle.dijkstra", id, op,
                      std::uint32_t(dijkstra));
      for (std::uint64_t i = 0; i < dijkstra; ++i) {
        sink_ += DijkstraLatency(env_.graph, querier).size();
      }
    }
  }

  // Codec cost of the write-path message types.
  void InsertCodec(unsigned lane, std::uint64_t op, const InsertOp& insert) {
    const AsId host = resolver_.Resolve(insert.guid, 0).host;
    InsertRequest request;
    request.header = MessageHeader{op, insert.na.as, host};
    request.guid = insert.guid;
    request.entry = MappingEntry{NaSet(insert.na), 1, insert.na.as};
    InsertAck ack;
    ack.header = MessageHeader{op, host, insert.na.as};
    ack.guid = insert.guid;
    ack.applied = true;
    std::vector<std::uint8_t> wire;
    {
      ScopedSpan span(&spans_, lane, "codec.encode.insert_request", kNoParent,
                      op);
      wire = Encode(request);
    }
    {
      ScopedSpan span(&spans_, lane, "codec.decode.insert_request", kNoParent,
                      op);
      sink_ += Decode(wire).has_value();
    }
    {
      ScopedSpan span(&spans_, lane, "codec.encode.insert_ack", kNoParent, op);
      wire = Encode(ack);
    }
    {
      ScopedSpan span(&spans_, lane, "codec.decode.insert_ack", kNoParent, op);
      sink_ += Decode(wire).has_value();
    }
  }

  std::uint64_t evals() const { return evals_; }
  std::uint64_t replicas() const { return replicas_; }

 private:
  const SimEnvironment& env_;
  Trial& trial_;
  SpanRecorder& spans_;
  GuidHashFamily hashes_;
  HoleResolver resolver_;
  Simulator private_sim_;
  std::uint64_t evals_ = 0, replicas_ = 0, sink_ = 0;
};

// Schedules one window of open-loop arrivals on `trial`'s read network,
// starting at `begin_ms`, and runs its simulator to the window's end.
void RunWindow(const SimEnvironment& env, const Sizes& sizes,
                      std::uint64_t seed, std::size_t trial_index,
                      Trial& trial, double begin_ms) {
  ProtocolNetwork& net = *trial.net;
  Simulator& sim = net.simulator();
  TrialPass& pass = trial.pass;
  ArrivalParams params;
  params.base_rate_per_s = sizes.rate_per_s;
  params.horizon_s = sizes.window_s;
  params.seed = SubSeed(seed, 100 + (trial_index << 32) + trial.next_window);
  const std::vector<ArrivalOp> arrivals =
      OpenLoopArrivals(env.graph, *trial.generator, params).Generate();
  for (const ArrivalOp& arrival : arrivals) {
    const std::size_t index = pass.completions.size();
    pass.completions.push_back(0);
    const std::uint64_t op = (std::uint64_t(trial_index) << 56) |
                             (std::uint64_t(trial.next_window) << 32) | index;
    const NetworkAddress expected = trial.registered.at(arrival.guid);
    auto done = [&pass, index, expected](const LookupResult& r) {
      ++pass.completions[index];
      pass.latency_ms.push_back(r.latency_ms);
      if (!r.found) return;
      ++pass.answered;
      pass.queue_delay_ms += r.queue_delay_ms;
      if (!(r.nas == NaSet(expected))) ++pass.wrong;
    };
    sim.ScheduleAt(
        SimTime::Millis(begin_ms + arrival.time_ms),
        [&trial, &net, &sim, &pass, op, guid = arrival.guid,
         source = arrival.source, done = std::move(done)] {
          pass.peak_pending = std::max(pass.peak_pending, sim.PendingEvents());
          if (trial.replay != nullptr && op % kSampleEvery == 0) {
            trial.replay->Lookup(trial.lane, op, guid, source,
                                 [&] { net.LookupAsync(guid, source, done); });
          } else {
            net.LookupAsync(guid, source, done);
          }
        });
  }
  const std::uint64_t run_start = NowNs();
  sim.RunUntil(SimTime::Millis(begin_ms + sizes.window_s * 1e3));
  const double wall = double(NowNs() - run_start);
  pass.window_wall_ns += wall;
  pass.window_rates.push_back(double(arrivals.size()) / (wall / 1e9));
  pass.lookups += arrivals.size();
  ++pass.windows;
  ++trial.next_window;
}

struct Pass {
  // Sums over trials of each trial's median window / chunk rate.
  double lookup_rate = 0, update_rate = 0;
  std::vector<std::size_t> windows;  // per trial
  std::uint64_t lookups = 0, answered = 0, wrong = 0, bad_completions = 0;
  std::uint64_t updates = 0, updates_completed = 0, updates_failed = 0;
  double window_wall_ns = 0, queue_delay_ms = 0;
  std::size_t peak_pending = 0;
  std::vector<double> latency_ms, update_latency_ms;
  Counters counts;  // over the measured windows (before the final drain)
};

// Every trial, independently, alternates one write chunk (when `writes`) and
// one lookup window until `seconds` of wall time have passed, or runs
// exactly `(*windows)[i]` windows; then every read simulator drains so
// every lookup completes, and the trials are merged in trial order.
Pass RunPass(World& w, const Sizes& sizes, std::uint64_t seed, ThreadPool& pool,
             double seconds, const std::vector<std::size_t>* windows,
             bool writes, Report& report) {
  for (auto& trial : w.trials) trial->pass = TrialPass{};
  const Counters before = Counters::Read(w);
  const auto start = Clock::now();
  pool.RunChunks(w.trials.size(), [&](std::size_t i, unsigned worker) {
    Trial& trial = *w.trials[i];
    trial.lane = worker;
    // The pass starts a simulated second after everything earlier drained.
    const double t0_ms =
        std::ceil(trial.net->simulator().Now().millis()) + 1000.0;
    while (windows != nullptr ? trial.pass.windows < (*windows)[i]
                              : SecondsSince(start) < seconds) {
      if (writes) RunWriteChunk(trial);
      RunWindow(w.env, sizes, seed, i, trial,
                t0_ms + double(trial.pass.windows) * sizes.window_s * 1e3);
    }
  });
  Pass pass;
  pass.counts = Counters::Read(w) - before;
  pool.RunChunks(w.trials.size(), [&](std::size_t i, unsigned) {
    w.trials[i]->net->simulator().Run();
  });
  for (const auto& trial : w.trials) {
    const TrialPass& t = trial->pass;
    for (const std::uint8_t c : t.completions) pass.bad_completions += c != 1;
    pass.lookup_rate += Median(t.window_rates);
    pass.update_rate += Median(t.update_rates);
    pass.windows.push_back(t.windows);
    pass.lookups += t.lookups;
    pass.answered += t.answered;
    pass.wrong += t.wrong;
    pass.updates += t.updates;
    pass.updates_completed += t.updates_completed;
    pass.updates_failed += t.updates_failed;
    pass.window_wall_ns += t.window_wall_ns;
    pass.queue_delay_ms += t.queue_delay_ms;
    pass.peak_pending = std::max(pass.peak_pending, t.peak_pending);
    pass.latency_ms.insert(pass.latency_ms.end(), t.latency_ms.begin(),
                           t.latency_ms.end());
    pass.update_latency_ms.insert(pass.update_latency_ms.end(),
                                  t.update_latency_ms.begin(),
                                  t.update_latency_ms.end());
  }
  report.Check(pass.bad_completions == 0,
               "wire_openloop: every arrival completes exactly once");
  report.Check(pass.wrong == 0,
               "wire_openloop: every answer carries the registered NA");
  report.Check(pass.updates_completed == pass.updates &&
                   pass.updates_failed == 0,
               "wire_openloop: every update completes once with kOk");
  return pass;
}

}  // namespace

Report RunWireOpenLoop(const Args& args, SpanRecorder* spans) {
  Report report;
  const Sizes sizes = SizesFor(args);
  ThreadPool pool(args.threads);

  SetupTimes t;
  std::unique_ptr<World> world;
  for (int rep = 0; rep < SetupReps(args); ++rep) {
    world.reset();
    t = SetupTimes{};
    world = Build(args, sizes, pool, t);
    report.Setup(t);
  }
  World& w = *world;
  std::uint64_t loaded = 0, load_ok = 0;
  for (const auto& trial : w.trials) {
    loaded += 2 * trial->inserts.size();
    load_ok += trial->inserts_ok;
  }
  report.Check(load_ok == loaded,
               "wire_openloop: every InsertAsync of the load completes with kOk");

  report.Size("ases", sizes.ases);
  report.Size("trials", double(w.trials.size()));
  report.Size("guids_per_trial", double(sizes.guids));
  report.Size("offered_lookups_per_sim_s_per_trial", sizes.rate_per_s);
  report.Size("window_sim_s", sizes.window_s);
  report.Size("service_rate_per_s", sizes.service_rate_per_s);
  report.Size("queue_depth", sizes.queue_depth);
  report.Size("drop_probability", sizes.drop_probability);
  report.Size("probe_retries", sizes.probe_retries);
  report.Size("k", kReplicas);
  report.Size("threads", pool.size());

  const Pass pass = RunPass(w, sizes, args.seed, pool, UntracedSeconds(args),
                            nullptr, true, report);
  report.Size("updates", double(pass.updates));
  report.attempted = pass.lookups + pass.updates;
  report.failed = pass.lookups - pass.answered + pass.updates_failed;

  report.E2E("lookups_per_s", pass.lookup_rate, "1/s");
  report.E2E("guid_updates_per_s", pass.update_rate, "1/s");
  report.E2E("peak_rss_mb", PeakRssMb(), "MB");
  report.E2E("failed_frac",
             double(pass.lookups - pass.answered) / double(pass.lookups),
             "ratio");
  report.E2E("sim_lookup_ms_p50", Quantile(pass.latency_ms, 0.5), "ms");
  report.E2E("sim_lookup_ms_p99", Quantile(pass.latency_ms, 0.99), "ms");
  report.E2E("sim_update_ms_p50", Quantile(pass.update_latency_ms, 0.5), "ms");
  report.E2E("sim_update_ms_p99", Quantile(pass.update_latency_ms, 0.99), "ms");
  const Counters& c = pass.counts;
  report.Size("serve_shed_frac", double(c.shed) / double(c.tier_arrivals));

  if (spans == nullptr) return report;

  const double lookups = double(pass.lookups);
  report.Layer("setup.env_build_s", t.env_s, "s");
  report.Layer("setup.hub_labels_s", t.labels_s, "s");
  report.Layer("setup.workload_gen_s", t.gen_s, "s");
  report.Layer("setup.load_s", t.load_s, "s");
  // The trials load side by side: each spent the load's wall time on its
  // own share of the inserts (both of its networks).
  report.Layer("service.insert_us",
               t.load_s * double(w.trials.size()) / double(loaded) * 1e6, "us");
  double entries = 0;
  for (const auto& trial : w.trials) {
    for (AsId as = 0; as < w.env.graph.num_nodes(); ++as) {
      entries += double(trial->net->node(as).store().size());
    }
  }
  report.Layer("store.entries", entries, "count");
  report.Layer("sim.events_per_lookup", double(c.events) / lookups, "count");
  report.Layer("sim.peak_pending", double(pass.peak_pending), "count");
  report.Layer("wire.msgs_per_lookup", double(c.sent) / lookups, "count");
  report.Layer("wire.bytes_per_lookup", double(c.bytes) / lookups, "B");
  report.Layer("serve.queue_ms_mean",
               pass.answered > 0 ? pass.queue_delay_ms / double(pass.answered)
                                 : 0.0,
               "ms");
  report.Layer("serve.shed_frac", double(c.shed) / double(c.tier_arrivals),
               "ratio");
  report.Layer("fault.retransmissions_per_lookup",
               double(c.retransmissions) / lookups, "count");
  report.Layer("fault.drops_per_lookup", double(c.dropped) / lookups, "count");
  report.Layer("oracle.dijkstra_per_lookup", double(c.dijkstra) / lookups,
               "count");
  report.Layer("oracle.cache_hit_ratio",
               double(c.oracle_hits) / double(c.oracle_hits + c.dijkstra),
               "ratio");

  for (auto& trial : w.trials) {
    trial->replay = std::make_unique<WireReplay>(w.env, *trial, *spans,
                                                 pass.peak_pending);
  }
  Trial& first = *w.trials.front();
  const std::size_t stride =
      std::max<std::size_t>(1, first.inserts.size() / kInsertCodecSamples);
  for (std::size_t i = 0; i < first.inserts.size(); i += stride) {
    first.replay->InsertCodec(0, i, first.inserts[i]);
  }
  const Pass traced =
      RunPass(w, sizes, args.seed, pool, 0, &pass.windows, false, report);
  report.Layer("trace.overhead_frac",
               traced.window_wall_ns / pass.window_wall_ns - 1.0, "ratio");

  const auto self = spans->SelfTimes();
  const auto ns = [&](const std::string& name) { return SelfNs(self, name); };
  for (const char* type :
       {"insert_request", "insert_ack", "lookup_request", "lookup_response"}) {
    report.Layer(std::string("codec.encode_ns.") + type,
                 ns(std::string("codec.encode.") + type), "ns");
    report.Layer(std::string("codec.decode_ns.") + type,
                 ns(std::string("codec.decode.") + type), "ns");
  }
  std::uint64_t evals = 0, replicas = 0;
  for (const auto& trial : w.trials) {
    evals += trial->replay->evals();
    replicas += trial->replay->replicas();
  }
  report.Layer("resolve.ns_per_replica", ns("resolve"), "ns");
  const double evals_per_replica =
      replicas > 0 ? double(evals) / double(replicas) : 0.0;
  report.Layer("resolve.hashes_per_replica", evals_per_replica, "count");
  report.Layer("hash.evals_per_lookup", evals_per_replica * kReplicas,
               "count");
  // OneWayMs is the hub-label point query RttMs doubles.
  report.Layer("oracle.rtt_ns", ns("oracle.one_way"), "ns");
  report.Layer("store.read_ns", ns("store.read"), "ns");
  report.Layer("sim.ns_per_event", ns("sim.event"), "ns");
  report.Layer("serve.admit_ns", ns("serve.admit"), "ns");
  report.Layer("oracle.latencies_from_us",
               (ns("oracle.latencies_from") * lookups +
                ns("oracle.dijkstra") * double(c.dijkstra)) /
                   lookups / 1e3,
               "us");

  // Each admitted probe gets one reply; every other message sent in the
  // windows is a probe or a retransmission of one.
  const double responses = double(c.tier_admitted);
  const double requests = double(c.sent) - responses;
  auto& rows = report.attribution;
  rows.push_back({"wire.lookup_async", ns("wire.lookup_async"), lookups});
  rows.push_back({"resolve", ns("resolve"), lookups * kReplicas});
  rows.push_back(
      {"oracle.latencies_from", ns("oracle.latencies_from"), lookups});
  rows.push_back({"oracle.dijkstra", ns("oracle.dijkstra"), double(c.dijkstra)});
  rows.push_back({"oracle.one_way", ns("oracle.one_way"), double(c.sent)});
  rows.push_back({"codec.encode.lookup_request",
                  ns("codec.encode.lookup_request"), requests});
  rows.push_back({"codec.encode.lookup_response",
                  ns("codec.encode.lookup_response"), responses});
  rows.push_back({"codec.decode.lookup_request",
                  ns("codec.decode.lookup_request"), requests});
  rows.push_back({"codec.decode.lookup_response",
                  ns("codec.decode.lookup_response"), responses});
  rows.push_back({"fault.fate", ns("fault.fate"), double(c.sent)});
  rows.push_back({"serve.admit", ns("serve.admit"), double(c.tier_arrivals)});
  rows.push_back({"store.read", ns("store.read"), responses});
  rows.push_back({"sim.event", ns("sim.event"), double(c.events)});
  // The measured time is every trial's wall time in its lookup windows.
  FinishAttribution(report, pass.window_wall_ns / 1e6);
  report.Unmeasured("bypassed: the wire resolver walks the prefix trie, "
                    "not a DIR-24-8 table",
                    {"setup.dir24_8_s", "lpm.dir24_8_ns"});
  report.Unmeasured("not split: hash chains and the deputy rule run inside "
                    "Resolve, timed as resolve.ns_per_replica",
                    {"hash.ns_per_eval", "lpm.nearest_ns",
                     "lpm.deputy_per_lookup"});
  report.Unmeasured("bypassed: wire nodes keep their own stores, with no "
                    "read snapshots, resolver cache or DMapService",
                    {"store.refresh_ms", "cache.probe_ns", "cache.hit_ratio",
                     "cache.refresh_ms", "cache.invalidations_per_update",
                     "service.lookup_self_ns", "service.probes_per_lookup",
                     "service.batch_update_us"});
  report.Unmeasured("bypassed: the pool only hosts the serial trials",
                    {"pool.busy_frac", "pool.imbalance", "pool.dispatch_us"});
  return report;
}

}  // namespace perfbench
