// mobility_mixed: closed-form reads beside writes. Multi-GUID hosts hand
// off through DMapService::BatchUpdate at serial points; between hand-offs
// a block of Zipf-skewed lookups over the mobile GUIDs runs on the worker
// pool. The resolver cache is on in invalidate-on-update mode.
#include <memory>

#include "bgp/dir24_8.h"
#include "closed_form.h"
#include "common/rng.h"
#include "common/sampler.h"
#include "common/zipf.h"
#include "core/dmap_service.h"
#include "sim/environment.h"
#include "workload/mobility.h"

namespace perfbench {

using namespace dmap;

namespace {

constexpr int kReplicas = 5;
constexpr std::uint64_t kSampleEvery = 64;
constexpr std::size_t kChunk = 32;
constexpr std::size_t kHandoffsPerRound = 8;
// Lookup locality: each mobile GUID has kCorrespondents correspondent ASes
// (drawn end-node weighted) that issue kCorrespondentShare of its lookups;
// the rest come from end-node-weighted sources, as in the repository's
// mobility sweep. These two numbers are an assumption with no measured
// basis. They were picked so the resolver cache's hit ratio sits near 0.45:
// with plain end-node-weighted sources (querier pairs almost never repeat)
// it stays near 0.03 at any cache size.
constexpr std::uint32_t kCorrespondents = 4;
constexpr double kCorrespondentShare = 0.9;
// Simulated lookup latencies are kept for the first lookups of a pass only,
// so memory use does not grow with throughput.
constexpr std::size_t kLatencySamples = 1 << 19;
// Span operation ids of the serial write points, apart from lookup ids.
constexpr std::uint64_t kWriteOp = std::uint64_t{1} << 63;

struct Sizes {
  bool full_scale = true;
  std::uint32_t scaled_ases = 0;
  std::uint32_t hosts = 2'000;
  std::uint32_t guids_per_host = 8;
  // Hand-off schedule length: ~hosts * horizon hand-offs at 1 Hz per host,
  // more than a run can replay.
  double horizon_s = 10.0;
  std::size_t block = 2'048;  // lookups between two hand-offs
  std::size_t blocks = 256;   // distinct lookup blocks generated
  std::size_t cache_capacity = 16'384;
};

Sizes SizesFor(const Args& args) {
  Sizes s;
  if (args.smoke) {
    s.full_scale = false;
    s.scaled_ases = 400;
    s.hosts = 100;
    s.horizon_s = 200.0;
    s.block = 256;
    s.blocks = 16;
    s.cache_capacity = 512;
  }
  return s;
}

struct MobileLookup {
  Guid guid;
  AsId source = kInvalidAs;
  std::uint32_t index = 0;  // host * guids_per_host + i
};

struct World {
  explicit World(SimEnvironment built) : env(std::move(built)) {}
  SimEnvironment env;
  MetricsRegistry registry;
  std::unique_ptr<DMapService> service;
  std::unique_ptr<MobilityWorkload> mobility;
  std::vector<MobileLookup> lookups;
  // NA of each mobile GUID after its latest completed hand-off.
  std::vector<NetworkAddress> expected;
  std::uint64_t inserts = 0;
};

std::unique_ptr<World> Build(const Args& args, const Sizes& sizes,
                             SetupTimes& t) {
  const auto start = Clock::now();
  auto step = Clock::now();
  auto w = std::make_unique<World>(BuildEnvironment(sizes.full_scale
                                ? EnvironmentParams::FullScale()
                                : EnvironmentParams::Scaled(sizes.scaled_ases)));
  t.env_s = SecondsSince(step);

  step = Clock::now();
  const HubLabels* labels = EnsureHubLabels(w->env, args.threads);
  t.labels_s = SecondsSince(step);

  step = Clock::now();
  DMapOptions options;
  options.k = kReplicas;
  options.local_replica = true;
  options.cache.capacity = sizes.cache_capacity;
  options.cache.ttl_ms = 0;  // never expires: invalidation keeps it coherent
  options.cache.invalidate_on_update = true;
  w->service = std::make_unique<DMapService>(w->env.graph, w->env.table, options);
  w->service->oracle().SetHubLabels(labels);
  w->service->oracle().SetNumShards(args.threads);
  w->service->cache()->EnsureWorkers(args.threads);
  w->registry.EnsureWorkers(args.threads);
  w->service->SetMetrics(&w->registry);
  w->service->RefreshResolverSnapshot();
  t.dir_s = SecondsSince(step);

  step = Clock::now();
  MobilityParams params;
  params.num_hosts = sizes.hosts;
  params.guids_per_host = sizes.guids_per_host;
  params.handoff_rate_hz = 1.0;
  params.horizon_s = sizes.horizon_s;
  params.seed = SubSeed(args.seed, 2);
  w->mobility = std::make_unique<MobilityWorkload>(w->env.graph, params);
  const std::uint64_t guids = std::uint64_t(sizes.hosts) * sizes.guids_per_host;
  // Zipf-skewed targets over the mobile GUIDs (popularity uncorrelated with
  // host); sources follow the correspondent model above, so (querier, GUID)
  // pairs repeat and the resolver cache has something to hit.
  Rng rng(SubSeed(args.seed, 3));
  std::vector<std::uint32_t> rank_to_index(guids);
  for (std::uint32_t i = 0; i < guids; ++i) rank_to_index[i] = i;
  std::shuffle(rank_to_index.begin(), rank_to_index.end(), rng);
  const MandelbrotZipf popularity(guids, 1.02, 100.0);
  const AliasSampler sources(w->env.graph.end_node_weights());
  std::vector<AsId> correspondents(guids * kCorrespondents);
  for (AsId& as : correspondents) as = AsId(sources.Sample(rng));
  w->lookups.reserve(sizes.block * sizes.blocks);
  for (std::size_t i = 0; i < sizes.block * sizes.blocks; ++i) {
    const std::uint32_t index = rank_to_index[popularity.Sample(rng) - 1];
    const AsId source =
        rng.NextDouble() < kCorrespondentShare
            ? correspondents[index * kCorrespondents +
                             rng.NextBounded(kCorrespondents)]
            : AsId(sources.Sample(rng));
    w->lookups.push_back(MobileLookup{
        w->mobility->GuidOf(index / sizes.guids_per_host,
                            index % sizes.guids_per_host),
        source, index});
  }
  t.gen_s = SecondsSince(step);

  step = Clock::now();
  w->expected.resize(guids);
  std::uint32_t index = 0;
  for (const InsertOp& op : w->mobility->InitialInserts()) {
    (void)w->service->Insert(op.guid, op.na);
    w->expected[index++] = op.na;
  }
  w->service->RefreshReadSnapshots();
  w->inserts = index;
  t.load_s = SecondsSince(step);
  t.total_s = SecondsSince(start);
  return w;
}

struct alignas(64) WorkerTally {
  std::uint64_t answered = 0;
  std::uint64_t wrong = 0;
  std::uint64_t cache_hits = 0;
};

struct Pass {
  std::vector<double> lookup_rates, update_rates;
  std::size_t handoffs = 0;
  std::uint64_t lookups = 0, answered = 0, wrong = 0, cache_hits = 0;
  std::uint64_t guid_updates = 0, batch_hash_evals = 0, bad_batches = 0;
  double read_serial_ns = 0, write_ns = 0, wall_ns = 0;
  std::vector<double> update_latency_ms;
  std::vector<float> lookup_latency_ms;
};

// Publishes fresh read snapshots at a serial point. Traced, the cache's
// fill merge and republish run first in their own span, so the following
// RefreshReadSnapshots span holds the store (and resolver) republish.
void Republish(World& w, SpanRecorder* spans, std::uint64_t op) {
  if (spans == nullptr) {
    w.service->RefreshReadSnapshots();
    return;
  }
  {
    ScopedSpan span(spans, 0, "cache.refresh", kNoParent, op);
    w.service->cache()->ApplyFills();
    w.service->cache()->RefreshSnapshots();
  }
  ScopedSpan span(spans, 0, "store.refresh", kNoParent, op);
  w.service->RefreshReadSnapshots();
}

Pass RunPass(World& w, const Sizes& sizes, ThreadPool& pool, PoolTimer& timer,
             std::size_t& next_handoff, double seconds, std::size_t max_handoffs,
             SpanRecorder* spans, const Dir24_8* dir, Report& report) {
  Pass pass;
  std::vector<WorkerTally> tally(pool.size());
  std::vector<float> latency(sizes.block);
  pass.lookup_latency_ms.reserve(kLatencySamples);
  const std::vector<Handoff>& handoffs = w.mobility->Handoffs();
  double round_read_ns = 0, round_write_ns = 0;
  std::uint64_t round_updates = 0;
  const auto start = Clock::now();
  while (pass.handoffs < max_handoffs && SecondsSince(start) < seconds) {
    if (next_handoff >= handoffs.size()) {
      report.Check(false, "mobility_mixed: hand-off schedule exhausted");
      break;
    }
    const Handoff& handoff = handoffs[next_handoff];
    const std::uint64_t op_base = std::uint64_t(next_handoff) * sizes.block;
    const MobileLookup* block =
        &w.lookups[(next_handoff % sizes.blocks) * sizes.block];

    // Read phase: a parallel lookup block against the published snapshots,
    // then the serial merge of its cache fills.
    const std::uint64_t read_start = NowNs();
    timer.Run(pool, sizes.block, kChunk,
              [&](std::size_t begin, std::size_t end, unsigned worker) {
                WorkerTally& mine = tally[worker];
                for (std::size_t i = begin; i < end; ++i) {
                  const MobileLookup& op = block[i];
                  const std::uint64_t index = op_base + i;
                  LookupResult r;
                  if (spans != nullptr && index % kSampleEvery == 0) {
                    const std::uint64_t id = spans->Begin(
                        worker, "service.lookup", kNoParent, index);
                    r = w.service->Lookup(op.guid, op.source, worker);
                    spans->End(id);
                    ReplayLookupLayers(*w.service, *dir, w.env.table, *spans,
                                       worker, id, index, op.guid, op.source,
                                       r);
                  } else {
                    r = w.service->Lookup(op.guid, op.source, worker);
                  }
                  latency[i] = float(r.latency_ms);
                  mine.cache_hits += r.served_from_cache;
                  if (r.found) {
                    ++mine.answered;
                    if (!(r.nas == NaSet(w.expected[op.index]))) ++mine.wrong;
                  }
                }
              });
    const std::uint64_t serial_start = NowNs();
    Republish(w, spans, kWriteOp | next_handoff);
    pass.read_serial_ns += double(NowNs() - serial_start);
    round_read_ns += double(NowNs() - read_start);
    const std::size_t keep = std::min(
        latency.size(), kLatencySamples - pass.lookup_latency_ms.size());
    pass.lookup_latency_ms.insert(pass.lookup_latency_ms.end(),
                                  latency.begin(), latency.begin() + long(keep));
    pass.lookups += sizes.block;

    // Write phase: the hand-off and the republish of every read snapshot.
    const std::uint64_t write_start = NowNs();
    const auto moves = w.mobility->MovesFor(handoff);
    w.service->AdvanceCacheTime(handoff.at);
    BatchUpdateResult batch;
    {
      ScopedSpan span(spans, 0, "service.batch_update", kNoParent,
                      kWriteOp | next_handoff);
      batch = w.service->BatchUpdate(moves);
    }
    Republish(w, spans, kWriteOp | next_handoff);
    const double write_ns = double(NowNs() - write_start);
    pass.write_ns += write_ns;
    round_write_ns += write_ns;
    pass.bad_batches += batch.status != ResolverStatus::kOk;
    pass.batch_hash_evals += std::uint64_t(batch.hash_evaluations);
    pass.update_latency_ms.push_back(batch.latency_ms);
    for (std::uint32_t i = 0; i < moves.size(); ++i) {
      w.expected[handoff.host * sizes.guids_per_host + i] = moves[i].second;
    }
    pass.guid_updates += moves.size();
    round_updates += moves.size();
    ++next_handoff;
    ++pass.handoffs;

    if (pass.handoffs % kHandoffsPerRound == 0) {
      pass.lookup_rates.push_back(double(kHandoffsPerRound * sizes.block) /
                                  (round_read_ns / 1e9));
      pass.update_rates.push_back(double(round_updates) / (round_write_ns / 1e9));
      pass.wall_ns += round_read_ns + round_write_ns;
      round_read_ns = round_write_ns = 0;
      round_updates = 0;
    }
  }
  pass.wall_ns += round_read_ns + round_write_ns;
  for (const WorkerTally& t : tally) {
    pass.answered += t.answered;
    pass.wrong += t.wrong;
    pass.cache_hits += t.cache_hits;
  }
  return pass;
}

}  // namespace

Report RunMobilityMixed(const Args& args, SpanRecorder* spans) {
  Report report;
  const Sizes sizes = SizesFor(args);

  SetupTimes t;
  std::unique_ptr<World> world;
  for (int rep = 0; rep < SetupReps(args); ++rep) {
    world.reset();
    t = SetupTimes{};
    world = Build(args, sizes, t);
    report.Setup(t);
  }
  World& w = *world;
  ThreadPool pool(args.threads);

  report.Size("ases", w.env.graph.num_nodes());
  report.Size("hosts", sizes.hosts);
  report.Size("guids_per_host", sizes.guids_per_host);
  report.Size("scheduled_handoffs", double(w.mobility->Handoffs().size()));
  report.Size("block_lookups", double(sizes.block));
  report.Size("cache_capacity", double(sizes.cache_capacity));
  report.Size("k", kReplicas);
  report.Size("threads", pool.size());

  ResolverCache& cache = *w.service->cache();
  PoolTimer timer(pool.size());
  std::size_t next_handoff = 0;
  const LookupCounters before = LookupCounters::Read(w.registry);
  const std::uint64_t hits0 = cache.hits(), misses0 = cache.misses(),
                      invalidations0 = cache.invalidations();
  const Pass pass = RunPass(w, sizes, pool, timer, next_handoff,
                            UntracedSeconds(args),
                            ~std::size_t{0}, nullptr, nullptr, report);
  const LookupCounters counts = LookupCounters::Read(w.registry) - before;
  const std::uint64_t hits = cache.hits() - hits0;
  const std::uint64_t misses = cache.misses() - misses0;
  const std::uint64_t invalidations = cache.invalidations() - invalidations0;

  report.attempted = pass.lookups + pass.guid_updates;
  report.failed = (pass.lookups - pass.answered) + pass.bad_batches;
  report.Check(pass.answered == pass.lookups,
               "mobility_mixed: every lookup is answered");
  report.Check(pass.wrong == 0,
               "mobility_mixed: every answer carries the NA of the GUID's "
               "latest hand-off before its block");
  report.Check(cache.stale_served() == 0,
               "mobility_mixed: cache.stale_served is 0");
  report.Check(pass.bad_batches == 0,
               "mobility_mixed: every BatchUpdate succeeds");
  report.Check(hits == pass.cache_hits && hits + misses == pass.lookups,
               "mobility_mixed: cache counters match the lookups made");

  report.E2E("lookups_per_s", Median(pass.lookup_rates), "1/s");
  report.E2E("guid_updates_per_s", Median(pass.update_rates), "1/s");
  report.E2E("peak_rss_mb", PeakRssMb(), "MB");
  report.E2E("failed_frac",
             double(pass.lookups - pass.answered) / double(pass.lookups),
             "ratio");
  report.E2E("stale_frac",
             pass.answered > 0 ? double(pass.wrong) / double(pass.answered) : 0,
             "ratio");
  const std::vector<double> lookup_ms(pass.lookup_latency_ms.begin(),
                                      pass.lookup_latency_ms.end());
  report.E2E("sim_lookup_ms_p50", Quantile(lookup_ms, 0.5), "ms");
  report.E2E("sim_lookup_ms_p99", Quantile(lookup_ms, 0.99), "ms");
  report.E2E("sim_update_ms_p50", Quantile(pass.update_latency_ms, 0.5), "ms");
  report.E2E("sim_update_ms_p99", Quantile(pass.update_latency_ms, 0.99), "ms");
  report.Size("handoffs_measured", double(pass.handoffs));
  report.Size("cache_hit_ratio", double(hits) / double(hits + misses));

  if (spans == nullptr) return report;

  report.Layer("setup.env_build_s", t.env_s, "s");
  report.Layer("setup.hub_labels_s", t.labels_s, "s");
  report.Layer("setup.dir24_8_s", t.dir_s, "s");
  report.Layer("setup.workload_gen_s", t.gen_s, "s");
  report.Layer("setup.load_s", t.load_s, "s");
  report.Layer("service.insert_us", t.load_s / double(w.inserts) * 1e6, "us");
  report.Layer("store.entries", double(w.service->total_stored_entries()),
               "count");
  report.Layer("cache.hit_ratio", double(hits) / double(hits + misses), "ratio");
  report.Layer("cache.invalidations_per_update",
               double(invalidations) / double(pass.guid_updates), "count");
  report.Layer("pool.busy_frac", timer.busy_frac(), "ratio");
  report.Layer("pool.imbalance", timer.imbalance(), "ratio");
  report.Layer("pool.dispatch_us", timer.dispatch_us(), "us");
  const double measured_ms =
      (timer.busy_ns() + pass.read_serial_ns + pass.write_ns) / 1e6;

  const Dir24_8 dir(w.env.table);
  PoolTimer traced_timer(pool.size());
  const Pass traced = RunPass(w, sizes, pool, traced_timer, next_handoff, 1e300,
                              pass.handoffs, spans, &dir, report);
  report.Check(traced.wrong == 0 && traced.answered == traced.lookups,
               "mobility_mixed: traced lookups are answered correctly");
  report.Layer("trace.overhead_frac", traced.wall_ns / pass.wall_ns - 1.0,
               "ratio");

  const auto self = spans->SelfTimes();
  const auto ns = [&](const std::string& name) { return SelfNs(self, name); };
  AddLookupLayers(report, self, counts, misses, hits + misses,
                  pass.batch_hash_evals, kReplicas);
  report.Layer("store.refresh_ms", ns("store.refresh") / 1e6, "ms");
  report.Layer("cache.refresh_ms", ns("cache.refresh") / 1e6, "ms");
  report.Layer("service.batch_update_us", ns("service.batch_update") / 1e3,
               "us");
  const double serial_points = 2.0 * double(pass.handoffs);
  report.attribution.push_back({"service.batch_update",
                                ns("service.batch_update"),
                                double(pass.handoffs)});
  report.attribution.push_back(
      {"cache.refresh", ns("cache.refresh"), serial_points});
  report.attribution.push_back(
      {"store.refresh", ns("store.refresh"), serial_points});
  FinishAttribution(report, measured_ms);
  MarkWireLayersUnmeasured(report);
  return report;
}

}  // namespace perfbench
