#include "sim/offered_load.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "proto/network.h"
#include "runtime/thread_pool.h"

namespace dmap {
namespace {

// The wire client orders replicas by RTT alone, so the fewest-hops
// selection of the closed form has no counterpart here; reject it rather
// than silently sweeping a different policy.
ProtocolNetworkOptions MakeOptions(const ResponseTimeConfig& config) {
  if (config.selection != ReplicaSelection::kLowestRtt) {
    throw std::invalid_argument(
        "OfferedLoadConfig: base.selection must be kLowestRtt (the wire "
        "path orders replicas by RTT only)");
  }
  ProtocolNetworkOptions options;
  options.k = config.k;
  options.local_replica = config.local_replica;
  options.hash_seed = config.hash_seed;
  return options;
}

// Shared-registry instruments of the sweep. Registered serially before the
// parallel phase; workers only Add/Observe (the lock-free hot path). The
// serve.* counters mirror the per-point tiers' totals — merged serially in
// point order after the parallel phase, since each point owns its tier.
struct SweepInstruments {
  CounterId lookups = 0, found = 0, failed = 0;
  CounterId serve_arrivals = 0, serve_served = 0, serve_queued = 0,
            serve_shed_tokens = 0, serve_shed_queue = 0;
  HistogramId latency_ms = 0, queue_delay_ms = 0;
};

SweepInstruments RegisterSweep(MetricsRegistry& registry) {
  SweepInstruments ins;
  ins.lookups = registry.Counter("offered.lookups");
  ins.found = registry.Counter("offered.found");
  ins.failed = registry.Counter("offered.failed");
  ins.serve_arrivals = registry.Counter("serve.arrivals");
  ins.serve_served = registry.Counter("serve.served");
  ins.serve_queued = registry.Counter("serve.queued");
  ins.serve_shed_tokens = registry.Counter("serve.shed_tokens");
  ins.serve_shed_queue = registry.Counter("serve.shed_queue");
  ins.latency_ms = registry.Histogram("offered.latency_ms",
                                      MetricsRegistry::LatencyBoundariesMs());
  ins.queue_delay_ms = registry.Histogram(
      "offered.queue_delay_ms", MetricsRegistry::LatencyBoundariesMs());
  return ins;
}

}  // namespace

double EffectiveServiceRatePerS(const ServingConfig& config) {
  double rate = config.service_rate_per_s * double(config.concurrency);
  if (config.admission == AdmissionPolicy::kTokenBucket &&
      config.bucket_rate_per_s > 0.0) {
    rate = std::min(rate, config.bucket_rate_per_s);
  }
  return rate;
}

OfferedLoadResult RunOfferedLoadSweep(SimEnvironment& env,
                                      const OfferedLoadConfig& config) {
  config.base.serving.Validate();
  if (!config.base.serving.enabled) {
    throw std::invalid_argument(
        "OfferedLoadConfig: base.serving.enabled must be true (an "
        "infinite-capacity sweep has no saturation point)");
  }
  config.arrivals.Validate();
  if (config.offered_rates_per_s.empty()) {
    throw std::invalid_argument(
        "OfferedLoadConfig: offered_rates_per_s must not be empty");
  }
  for (const double rate : config.offered_rates_per_s) {
    if (!(rate > 0.0)) {
      throw std::invalid_argument(
          "OfferedLoadConfig: offered_rates_per_s entries must be > 0 (got " +
          std::to_string(rate) + ")");
    }
  }

  // Serial setup: one placement, loaded over the wire into one network per
  // point. The sends are only scheduled here; each point drains its own
  // load inside the parallel phase, so points share nothing mutable (the
  // hub labels are read-only).
  const ProtocolNetworkOptions net_options = MakeOptions(config.base);
  const HubLabels* labels =
      config.base.path_oracle == PathOracleBackend::kHub
          ? EnsureHubLabels(env, config.base.threads)
          : nullptr;
  WorkloadGenerator workload(env.graph, config.base.workload);
  const std::vector<InsertOp> inserts = workload.Inserts();
  const std::size_t num_points = config.offered_rates_per_s.size();
  std::vector<std::unique_ptr<ProtocolNetwork>> networks(num_points);
  for (std::unique_ptr<ProtocolNetwork>& net : networks) {
    net = std::make_unique<ProtocolNetwork>(env.graph, env.table,
                                            net_options);
    if (labels != nullptr) net->oracle().SetHubLabels(labels);
    for (const InsertOp& op : inserts) {
      net->InsertAsync(op.guid, op.na, [](const UpdateResult&) {});
    }
  }

  ThreadPool pool(config.base.threads);
  MetricsRegistry* metrics = config.base.metrics;
  ProbeTracer* tracer = config.base.tracer;
  SweepInstruments shared{};
  if (metrics != nullptr) {
    shared = RegisterSweep(*metrics);
    metrics->EnsureWorkers(pool.size());
  }
  if (tracer != nullptr) tracer->EnsureWorkers(pool.size());

  const double mu_eff = EffectiveServiceRatePerS(config.base.serving);
  OfferedLoadResult result;
  result.points.resize(num_points);

  // Points are the parallel unit: each is a self-contained serial simulation
  // seeded purely by its index, written to its own slot — merged state is
  // identical for any worker count.
  pool.RunChunks(num_points, [&](std::size_t point, unsigned worker) {
    const double offered = config.offered_rates_per_s[point];

    ArrivalParams arrival_params = config.arrivals;
    arrival_params.base_rate_per_s = offered;
    arrival_params.seed =
        config.arrivals.seed ^ (0x9e3779b97f4a7c15ULL * (point + 1));
    ServingConfig serving = config.base.serving;
    serving.seed ^= 0xbf58476d1ce4e5b9ULL * (point + 1);

    const OpenLoopArrivals generator(env.graph, workload, arrival_params);
    const std::vector<ArrivalOp> stream = generator.Generate();

    ProtocolNetwork& net = *networks[point];
    Simulator& sim = net.simulator();
    sim.Run();  // drain the load, then start the arrivals' own timeline
    sim.ResetClock();
    ServingTier tier(serving);
    net.SetServingTier(&tier);

    // Per-point histogram: the p50/p99/p999 of this point come from bucket
    // interpolation over this registry, per the obs quantile contract.
    MetricsRegistry local(1);
    const HistogramId local_latency = local.Histogram(
        "offered.latency_ms", MetricsRegistry::LatencyBoundariesMs());

    OfferedLoadPoint& out = result.points[point];
    out.offered_per_s = offered;
    out.lookups = stream.size();
    double queue_delay_sum_ms = 0.0;

    for (const ArrivalOp& op : stream) {
      sim.Schedule(SimTime::Millis(op.time_ms), [&, &op = op] {
        net.LookupAsync(op.guid, op.source, [&](const LookupResult& r) {
          if (r.found) {
            ++out.found;
            queue_delay_sum_ms += r.queue_delay_ms;
            local.Observe(local_latency, r.latency_ms, 0);
            if (metrics != nullptr) {
              metrics->Observe(shared.latency_ms, r.latency_ms, worker);
              metrics->Observe(shared.queue_delay_ms, r.queue_delay_ms,
                               worker);
            }
          } else {
            ++out.failed;
          }
          if (tracer != nullptr && tracer->ShouldTrace(op.guid)) {
            ProbeTrace trace;
            trace.op = 'L';
            trace.guid_fp = op.guid.Fingerprint64();
            trace.querier = op.source;
            trace.found = r.found;
            trace.local_won = r.served_locally;
            trace.latency_ms = r.latency_ms;
            trace.queue_delay_ms = r.queue_delay_ms;
            trace.admission = r.admission;
            trace.attempts = r.attempts;
            tracer->Record(worker, std::move(trace));
          }
        });
      });
    }
    sim.Run();

    out.goodput_per_s = double(out.found) / arrival_params.horizon_s;
    out.mean_queue_delay_ms =
        out.found > 0 ? queue_delay_sum_ms / double(out.found) : 0.0;

    const MetricsSnapshot snapshot = local.Snapshot();
    const HistogramSnapshot& latencies = snapshot.histograms.front();
    out.p50_ms = HistogramQuantile(latencies, 0.50);
    out.p99_ms = HistogramQuantile(latencies, 0.99);
    out.p999_ms = HistogramQuantile(latencies, 0.999);

    out.tier_arrivals = tier.arrivals();
    out.tier_served = tier.served();
    out.tier_queued = tier.queued();
    out.tier_shed_tokens = tier.shed_tokens();
    out.tier_shed_queue = tier.shed_queue();
    out.tier_shed = tier.shed();
    const auto [hot_as, hot_arrivals] = tier.HottestServer();
    out.hottest_as = hot_as;
    out.hottest_arrivals = hot_arrivals;
    out.hot_share = out.tier_arrivals > 0
                        ? double(hot_arrivals) / double(out.tier_arrivals)
                        : 0.0;
    out.hottest_mm1 = AnalyzeMM1(
        double(hot_arrivals) / arrival_params.horizon_s, mu_eff);
    networks[point].reset();  // before `tier` goes out of scope
  });

  // Serial merge in point order: mirror the per-point totals into the
  // shared registry (integer sums — deterministic regardless of which
  // worker ran which point).
  if (metrics != nullptr) {
    for (const OfferedLoadPoint& point : result.points) {
      metrics->Add(shared.lookups, point.lookups, 0);
      metrics->Add(shared.found, point.found, 0);
      metrics->Add(shared.failed, point.failed, 0);
      metrics->Add(shared.serve_arrivals, point.tier_arrivals, 0);
      metrics->Add(shared.serve_served, point.tier_served, 0);
      metrics->Add(shared.serve_queued, point.tier_queued, 0);
      metrics->Add(shared.serve_shed_tokens, point.tier_shed_tokens, 0);
      metrics->Add(shared.serve_shed_queue, point.tier_shed_queue, 0);
    }
  }

  // Saturation cross-check inputs: the lightest point's hot-spot share is
  // the clean one (past the knee, timeouts and fall-through inflate per-AS
  // arrivals), so the analytic ceiling comes from points[0].
  const double base_share = result.points.front().hot_share;
  result.analytic_saturation_per_s =
      base_share > 0.0 ? mu_eff / base_share : 0.0;
  for (const OfferedLoadPoint& point : result.points) {
    if (point.goodput_per_s < 0.9 * point.offered_per_s) {
      result.measured_knee_per_s = point.offered_per_s;
      break;
    }
  }
  return result;
}

}  // namespace dmap
