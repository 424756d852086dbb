// Figure 8 (extension): goodput and latency quantiles vs offered load.
// The paper assumes mapping servers have "sufficient resources" (Section
// IV-B); this experiment drops that assumption. Each sweep runs an
// open-loop Poisson lookup stream (workload/arrivals.h) through the wire
// protocol with a per-AS serving tier (src/serve/) installed:
// bounded FIFO queues, optional token-bucket admission, exponential
// service. Past the capacity of the hottest replica server, queue waits
// inflate the tail quantiles and sheds turn into timeouts, fall-through
// and — once every replica of a hot GUID is saturated — failed lookups.
//
// The sweep is self-calibrating: a light probe point measures the hottest
// server's share of tier arrivals, the analytic saturation is
// mu_eff / share (the offered load at which that server's M/M/1 queue
// hits rho = 1), and the sweep points are fixed multiples of it. The
// measured goodput knee must agree with the analytic saturation on the
// single-replica hot-skew sweep — the configuration where the hottest
// server carries enough of the stream for its overload to dent goodput —
// and the binary exits nonzero when it does not (the CI load-smoke job
// runs exactly this check).
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "runtime/thread_pool.h"
#include "sim/offered_load.h"

namespace {

using namespace dmap;

// Multiples of the analytic saturation making up one sweep. 1.0 is the
// predicted knee; the grid brackets it on both sides.
const double kLoadMultiples[] = {0.25, 0.5, 0.75, 1.0, 1.5, 2.5};

// Knee agreement tolerance: the measured knee may land anywhere within
// this factor band around the analytic saturation (the grid is coarse and
// the goodput criterion — 90% of offered — triggers one notch past rho=1).
constexpr double kKneeLo = 0.4;
constexpr double kKneeHi = 2.6;

struct SkewPoint {
  const char* name;
  double alpha;
  double q;
};

// Mild skew is the paper's workload (alpha=1.02, q=100: a long flat head);
// hot skew concentrates ~40% of lookups on the top rank, the flash-crowd
// regime where a single server's capacity binds end-to-end goodput.
const SkewPoint kSkews[] = {
    {"mild", 1.02, 100.0},
    {"hot", 2.0, 1.0},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dmap;
  const auto options = bench::ParseBenchArgs(argc, argv);

  ServingConfig serving = bench::ParsedServing(options);
  if (!serving.enabled) {
    // Bench default: one exponential server per AS, 2 ms mean service, a
    // 64-deep queue, no token rate limit — an M/M/1 with a finite room,
    // which is what the analytic cross-check models.
    serving.enabled = true;
    serving.model = ServiceModel::kExponential;
    serving.service_rate_per_s = 500.0;
    serving.concurrency = 1;
    serving.queue_depth = 64;
    serving.admission = AdmissionPolicy::kTokenBucket;
    serving.bucket_rate_per_s = 0.0;  // bucket off; the queue bound sheds
  }
  const double mu_eff = EffectiveServiceRatePerS(serving);

  ThreadPool pool(options.threads);
  std::printf("=== Fig 8: goodput and tail latency vs offered load ===\n");
  std::printf(
      "scale=%.3f threads=%u serving: model=%s mu=%.0f/s c=%d queue=%d\n\n",
      options.scale, pool.size(), ServiceModelName(serving.model),
      serving.service_rate_per_s, serving.concurrency, serving.queue_depth);

  SimEnvironment env = BuildEnvironment(EnvironmentParams::Scaled(
      bench::ScaledU32(2000, options.scale, 200)));
  bench::BenchObservability obs(options);

  const std::uint64_t target_arrivals =
      bench::Scaled(50'000, options.scale, 2'000);
  const int ks[] = {1, 5};

  bool knee_checked = false;
  bool knee_ok = true;
  for (const SkewPoint& skew : kSkews) {
    for (const int k : ks) {
      OfferedLoadConfig config;
      config.base.k = k;
      config.base.workload.num_guids =
          bench::Scaled(2'000, options.scale, 200);
      config.base.workload.popularity_alpha = skew.alpha;
      config.base.workload.popularity_q = skew.q;
      config.base.threads = options.threads;
      config.base.shards = options.shards;
      config.base.path_oracle = bench::ParsedPathOracle(options);
      config.base.serving = serving;
      config.base.metrics = obs.registry();
      config.base.tracer = obs.tracer();

      // Calibration: one light point (20% of one server's capacity — far
      // below saturation for any share) measures the hot-spot share.
      const double calib_rate = 0.2 * mu_eff;
      config.arrivals.base_rate_per_s = calib_rate;
      config.arrivals.horizon_s =
          double(target_arrivals) / (4.0 * calib_rate);
      config.offered_rates_per_s = {calib_rate};
      const OfferedLoadResult calib = RunOfferedLoadSweep(env, config);
      const double saturation = calib.analytic_saturation_per_s;
      if (saturation <= 0.0) {
        std::fprintf(stderr,
                     "fig8: calibration measured no hot-spot share "
                     "(K=%d skew=%s)\n",
                     k, skew.name);
        return 1;
      }

      // The sweep proper: fixed multiples of the analytic saturation, a
      // horizon sized so the heaviest point generates ~target arrivals.
      config.offered_rates_per_s.clear();
      for (const double m : kLoadMultiples) {
        config.offered_rates_per_s.push_back(m * saturation);
      }
      config.arrivals.horizon_s =
          double(target_arrivals) / config.offered_rates_per_s.back();
      const OfferedLoadResult result = RunOfferedLoadSweep(env, config);

      std::printf("--- K=%d, skew=%s (alpha=%.2f q=%.0f) ---\n", k,
                  skew.name, skew.alpha, skew.q);
      TextTable table({"offered/s", "lookups", "goodput/s", "good%", "p50",
                       "p99", "p999", "qdelay", "shed%", "hot AS", "share",
                       "rho*", "W* (ms)"});
      for (const OfferedLoadPoint& p : result.points) {
        const double offered_measured =
            double(p.lookups) / config.arrivals.horizon_s;
        table.AddRow(
            {TextTable::FormatDouble(p.offered_per_s, 0),
             std::to_string(p.lookups),
             TextTable::FormatDouble(p.goodput_per_s, 0),
             TextTable::FormatDouble(
                 offered_measured > 0
                     ? 100.0 * p.goodput_per_s / offered_measured
                     : 0.0,
                 1),
             TextTable::FormatDouble(p.p50_ms),
             TextTable::FormatDouble(p.p99_ms),
             TextTable::FormatDouble(p.p999_ms),
             TextTable::FormatDouble(p.mean_queue_delay_ms),
             TextTable::FormatDouble(
                 p.tier_arrivals > 0
                     ? 100.0 * double(p.tier_shed) / double(p.tier_arrivals)
                     : 0.0,
                 1),
             std::to_string(p.hottest_as),
             TextTable::FormatDouble(p.hot_share, 3),
             TextTable::FormatDouble(p.hottest_mm1.utilization),
             p.hottest_mm1.stable
                 ? TextTable::FormatDouble(p.hottest_mm1.mean_sojourn_ms)
                 : "inf"});
      }
      std::printf("%s", table.Render().c_str());
      std::printf("analytic saturation: %.0f/s   measured knee: %s\n\n",
                  saturation,
                  result.measured_knee_per_s > 0
                      ? (TextTable::FormatDouble(result.measured_knee_per_s,
                                                 0) +
                         "/s")
                            .c_str()
                      : "(none)");

      // The cross-check runs where it is meaningful: K=1 under hot skew,
      // where the hottest server carries a goodput-denting share.
      if (k == 1 && std::string(skew.name) == "hot") {
        knee_checked = true;
        const double knee = result.measured_knee_per_s;
        const double ratio = knee / saturation;
        if (knee <= 0.0 || ratio < kKneeLo || ratio > kKneeHi) {
          knee_ok = false;
          std::fprintf(stderr,
                       "fig8: measured knee %.0f/s disagrees with analytic "
                       "saturation %.0f/s (ratio %.2f outside [%.1f, %.1f])\n",
                       knee, saturation, knee > 0 ? ratio : 0.0, kKneeLo,
                       kKneeHi);
        } else {
          std::printf(
              "knee cross-check OK: measured %.0f/s vs analytic %.0f/s "
              "(ratio %.2f)\n\n",
              knee, saturation, ratio);
        }
      }
    }
  }

  std::printf(
      "expected: below saturation goodput tracks the offered load and the\n"
      "quantiles sit at the network RTT; past the hottest server's rho=1\n"
      "the queue wait (bounded by queue_depth/mu) lifts p99/p999, sheds\n"
      "turn into 200 ms-class timeout/fall-through latency, and with K=1\n"
      "the hot key's goodput collapses where the M/M/1 model predicts.\n");
  obs.Finish();
  if (!knee_checked || !knee_ok) {
    std::fprintf(stderr, "fig8: knee cross-check %s\n",
                 knee_checked ? "FAILED" : "did not run");
    return 1;
  }
  return 0;
}
