// lookup_zipf: the closed-form read path at paper scale. Mandelbrot-Zipf
// lookup targets from end-node-weighted sources, in arrival order, through
// DMapService::Lookup on the worker pool; K = 5, local replica on, cache off.
#include <memory>

#include "bgp/dir24_8.h"
#include "closed_form.h"
#include "core/dmap_service.h"
#include "sim/environment.h"
#include "workload/workload.h"

namespace perfbench {

using namespace dmap;

namespace {

constexpr int kReplicas = 5;
// One traced operation in this many gets its layer calls replayed.
constexpr std::uint64_t kSampleEvery = 64;
constexpr std::size_t kChunk = 256;
constexpr std::size_t kLoadChunk = 10'000;
// Simulated latencies are kept for the first lookups of a pass only, so
// memory use does not grow with throughput.
constexpr std::size_t kLatencySamples = 1 << 20;

struct Sizes {
  bool full_scale = true;
  std::uint32_t scaled_ases = 0;
  std::uint64_t guids = 200'000;
  std::uint64_t stream = 1'000'000;
  std::size_t round = 131'072;
};

Sizes SizesFor(const Args& args) {
  Sizes s;
  if (args.smoke) {
    s.full_scale = false;
    s.scaled_ases = 400;
    s.guids = 2'000;
    s.stream = 20'000;
    s.round = 4'096;
  }
  return s;
}

struct ZipfOp {
  Guid guid;
  AsId source = kInvalidAs;
  NetworkAddress expected;
};

struct World {
  explicit World(SimEnvironment built) : env(std::move(built)) {}
  SimEnvironment env;
  MetricsRegistry registry;
  std::unique_ptr<DMapService> service;
  std::vector<ZipfOp> ops;
  std::uint64_t inserts = 0;
  std::vector<double> load_rates;  // inserts per second of each load chunk
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
  options.measure_update_latency = false;
  w->service = std::make_unique<DMapService>(w->env.graph, w->env.table, options);
  w->service->oracle().SetHubLabels(labels);
  w->service->oracle().SetNumShards(args.threads);
  w->registry.EnsureWorkers(args.threads);
  w->service->SetMetrics(&w->registry);
  w->service->RefreshResolverSnapshot();  // builds the DIR-24-8 table
  t.dir_s = SecondsSince(step);

  step = Clock::now();
  WorkloadParams params;
  params.num_guids = sizes.guids;
  params.num_lookups = sizes.stream;
  params.seed = SubSeed(args.seed, 1);
  WorkloadGenerator generator(w->env.graph, params);
  const std::vector<InsertOp> inserts = generator.Inserts(false);
  std::unordered_map<Guid, NetworkAddress, GuidHash> registered;
  registered.reserve(inserts.size());
  for (const InsertOp& op : inserts) registered.emplace(op.guid, op.na);
  const std::vector<LookupOp> lookups = generator.Lookups(sizes.stream, false);
  w->ops.reserve(lookups.size());
  for (const LookupOp& op : lookups) {
    w->ops.push_back(ZipfOp{op.guid, op.source, registered.at(op.guid)});
  }
  t.gen_s = SecondsSince(step);

  // The load runs in chunks, each timed, so the write rate is a median.
  step = Clock::now();
  for (std::size_t begin = 0; begin < inserts.size(); begin += kLoadChunk) {
    const std::uint64_t chunk_start = NowNs();
    const std::size_t end = std::min(inserts.size(), begin + kLoadChunk);
    for (std::size_t i = begin; i < end; ++i) {
      (void)w->service->Insert(inserts[i].guid, inserts[i].na);
    }
    w->load_rates.push_back(double(end - begin) /
                            (double(NowNs() - chunk_start) / 1e9));
  }
  w->service->RefreshReadSnapshots();
  w->inserts = inserts.size();
  t.load_s = SecondsSince(step);
  t.total_s = SecondsSince(start);
  return w;
}

struct alignas(64) WorkerTally {
  std::uint64_t answered = 0;
  std::uint64_t wrong = 0;
};

struct Pass {
  std::vector<double> round_rates;
  std::size_t rounds = 0;
  std::uint64_t lookups = 0;
  std::uint64_t answered = 0;
  std::uint64_t wrong = 0;
  double wall_ns = 0;
  std::vector<float> latencies_ms;
};

// Runs lookup rounds of sizes.round operations, continuing the stream at
// `cursor`, until `seconds` have passed or `max_rounds` ran. With `spans`,
// every kSampleEvery-th operation also replays its layer calls.
Pass RunPass(World& w, const Sizes& sizes, ThreadPool& pool, PoolTimer& timer,
             std::uint64_t& cursor, double seconds, std::size_t max_rounds,
             SpanRecorder* spans, const Dir24_8* dir) {
  Pass pass;
  std::vector<WorkerTally> tally(pool.size());
  std::vector<float> latency(sizes.round);
  pass.latencies_ms.reserve(kLatencySamples);
  const auto start = Clock::now();
  while (pass.rounds < max_rounds && SecondsSince(start) < seconds) {
    const std::uint64_t base = cursor;
    const std::uint64_t round_start = NowNs();
    timer.Run(pool, sizes.round, kChunk,
              [&](std::size_t begin, std::size_t end, unsigned worker) {
                WorkerTally& mine = tally[worker];
                for (std::size_t i = begin; i < end; ++i) {
                  const std::uint64_t index = base + i;
                  const ZipfOp& op = w.ops[index % w.ops.size()];
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
                  if (r.found) {
                    ++mine.answered;
                    if (!(r.nas == NaSet(op.expected))) ++mine.wrong;
                  }
                }
              });
    const double round_ns = double(NowNs() - round_start);
    pass.wall_ns += round_ns;
    pass.round_rates.push_back(double(sizes.round) / (round_ns / 1e9));
    const std::size_t keep =
        std::min(latency.size(), kLatencySamples - pass.latencies_ms.size());
    pass.latencies_ms.insert(pass.latencies_ms.end(), latency.begin(),
                             latency.begin() + long(keep));
    pass.lookups += sizes.round;
    cursor += sizes.round;
    ++pass.rounds;
  }
  for (const WorkerTally& t : tally) {
    pass.answered += t.answered;
    pass.wrong += t.wrong;
  }
  return pass;
}

}  // namespace

Report RunLookupZipf(const Args& args, SpanRecorder* spans) {
  Report report;
  const Sizes sizes = SizesFor(args);

  // Set-up is repeated and its median reported; the last world is measured.
  std::vector<double> insert_rates;
  SetupTimes t;
  std::unique_ptr<World> world;
  for (int rep = 0; rep < SetupReps(args); ++rep) {
    world.reset();
    t = SetupTimes{};
    world = Build(args, sizes, t);
    report.Setup(t);
    insert_rates.insert(insert_rates.end(), world->load_rates.begin(),
                        world->load_rates.end());
  }
  World& w = *world;
  ThreadPool pool(args.threads);

  report.Size("ases", w.env.graph.num_nodes());
  report.Size("prefixes", double(w.env.table.num_prefixes()));
  report.Size("guids", double(sizes.guids));
  report.Size("lookup_stream", double(sizes.stream));
  report.Size("round_lookups", double(sizes.round));
  report.Size("k", kReplicas);
  report.Size("threads", pool.size());

  PoolTimer timer(pool.size());
  std::uint64_t cursor = 0;
  const LookupCounters before = LookupCounters::Read(w.registry);
  const Pass pass = RunPass(w, sizes, pool, timer, cursor, UntracedSeconds(args),
                            ~std::size_t{0}, nullptr, nullptr);
  const LookupCounters counts = LookupCounters::Read(w.registry) - before;

  report.attempted = pass.lookups;
  report.failed = pass.lookups - pass.answered;
  report.Check(pass.answered == pass.lookups,
               "lookup_zipf: every lookup is answered");
  report.Check(pass.wrong == 0,
               "lookup_zipf: every answer carries the registered NA");
  report.Check(counts.lookups == pass.lookups,
               "lookup_zipf: dmap.lookups matches the lookups made");

  report.E2E("lookups_per_s", Median(pass.round_rates), "1/s");
  report.E2E("guid_updates_per_s", Median(insert_rates), "1/s");
  report.E2E("peak_rss_mb", PeakRssMb(), "MB");
  report.E2E("failed_frac", double(report.failed) / double(pass.lookups), "ratio");
  std::vector<double> latencies(pass.latencies_ms.begin(),
                                pass.latencies_ms.end());
  report.E2E("sim_lookup_ms_p50", Quantile(latencies, 0.5), "ms");
  report.E2E("sim_lookup_ms_p99", Quantile(latencies, 0.99), "ms");

  if (spans == nullptr) return report;

  // ---- Traced run: same number of rounds, continuing the stream. --------
  report.Layer("setup.env_build_s", t.env_s, "s");
  report.Layer("setup.hub_labels_s", t.labels_s, "s");
  report.Layer("setup.dir24_8_s", t.dir_s, "s");
  report.Layer("setup.workload_gen_s", t.gen_s, "s");
  report.Layer("setup.load_s", t.load_s, "s");
  report.Layer("service.insert_us", t.load_s / double(w.inserts) * 1e6, "us");
  report.Layer("store.entries", double(w.service->total_stored_entries()),
               "count");
  report.Layer("pool.busy_frac", timer.busy_frac(), "ratio");
  report.Layer("pool.imbalance", timer.imbalance(), "ratio");
  report.Layer("pool.dispatch_us", timer.dispatch_us(), "us");
  const double measured_ms = timer.busy_ns() / 1e6;

  const Dir24_8 dir(w.env.table);
  PoolTimer traced_timer(pool.size());
  const Pass traced = RunPass(w, sizes, pool, traced_timer, cursor, 1e300,
                              pass.rounds, spans, &dir);
  report.Check(traced.wrong == 0 && traced.answered == traced.lookups,
               "lookup_zipf: traced lookups are answered correctly");
  report.Layer("trace.overhead_frac", traced.wall_ns / pass.wall_ns - 1.0,
               "ratio");
  AddLookupLayers(report, spans->SelfTimes(), counts, counts.lookups, 0, 0,
                  kReplicas);
  FinishAttribution(report, measured_ms);
  MarkWireLayersUnmeasured(report);
  report.Unmeasured("bypassed: the resolver cache is off",
                    {"cache.probe_ns", "cache.hit_ratio", "cache.refresh_ms",
                     "cache.invalidations_per_update"});
  report.Unmeasured("bypassed: no writes after the load",
                    {"store.refresh_ms", "service.batch_update_us"});
  return report;
}

}  // namespace perfbench
