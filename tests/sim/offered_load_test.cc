#include "sim/offered_load.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "obs/export.h"
#include "obs/metrics_registry.h"
#include "obs/probe_trace.h"
#include "sim/environment.h"

namespace dmap {
namespace {

class OfferedLoadTest : public testing::Test {
 protected:
  OfferedLoadTest()
      : env_(BuildEnvironment(EnvironmentParams::Scaled(250, 21))) {}

  OfferedLoadConfig Config() {
    OfferedLoadConfig config;
    config.base.k = 3;
    config.base.workload.num_guids = 300;
    config.base.serving.enabled = true;
    config.base.serving.model = ServiceModel::kExponential;
    config.base.serving.service_rate_per_s = 200.0;  // 5 ms mean service
    config.base.serving.queue_depth = 8;
    config.arrivals.horizon_s = 2.0;
    config.offered_rates_per_s = {200.0, 800.0, 3200.0};
    return config;
  }

  SimEnvironment env_;
};

bool SamePoint(const OfferedLoadPoint& a, const OfferedLoadPoint& b) {
  return a.offered_per_s == b.offered_per_s && a.lookups == b.lookups &&
         a.found == b.found && a.failed == b.failed &&
         a.goodput_per_s == b.goodput_per_s && a.p50_ms == b.p50_ms &&
         a.p99_ms == b.p99_ms && a.p999_ms == b.p999_ms &&
         a.mean_queue_delay_ms == b.mean_queue_delay_ms &&
         a.tier_arrivals == b.tier_arrivals &&
         a.tier_served == b.tier_served && a.tier_queued == b.tier_queued &&
         a.tier_shed_tokens == b.tier_shed_tokens &&
         a.tier_shed_queue == b.tier_shed_queue &&
         a.tier_shed == b.tier_shed && a.hottest_as == b.hottest_as &&
         a.hottest_arrivals == b.hottest_arrivals &&
         a.hot_share == b.hot_share &&
         a.hottest_mm1.utilization == b.hottest_mm1.utilization;
}

TEST_F(OfferedLoadTest, RejectsDisabledServingAndBadRates) {
  OfferedLoadConfig config = Config();
  config.base.serving.enabled = false;
  EXPECT_THROW(RunOfferedLoadSweep(env_, config), std::invalid_argument);

  config = Config();
  config.offered_rates_per_s.clear();
  EXPECT_THROW(RunOfferedLoadSweep(env_, config), std::invalid_argument);

  config = Config();
  config.offered_rates_per_s = {100.0, -5.0};
  EXPECT_THROW(RunOfferedLoadSweep(env_, config), std::invalid_argument);
}

TEST_F(OfferedLoadTest, EffectiveServiceRateCapsAtBucketRate) {
  ServingConfig serving;
  serving.service_rate_per_s = 1000.0;
  serving.concurrency = 4;
  EXPECT_DOUBLE_EQ(EffectiveServiceRatePerS(serving), 4000.0);
  serving.bucket_rate_per_s = 1500.0;  // token bucket binds
  EXPECT_DOUBLE_EQ(EffectiveServiceRatePerS(serving), 1500.0);
  serving.admission = AdmissionPolicy::kNone;  // bucket off: cap lifted
  EXPECT_DOUBLE_EQ(EffectiveServiceRatePerS(serving), 4000.0);
}

// The headline determinism contract: the sweep — including the metrics and
// trace exports — is byte-identical for any worker count and for either
// path-oracle backend. Each point owns its network and oracle, so the lru
// backend shares no cache across workers.
TEST_F(OfferedLoadTest, DeterministicAcrossThreadCounts) {
  auto run = [&](unsigned threads, PathOracleBackend backend,
                 std::string* metrics_out, std::string* trace_out) {
    MetricsRegistry registry;
    ProbeTracer tracer(1u, /*sample_every=*/1);
    OfferedLoadConfig config = Config();
    config.base.threads = threads;
    config.base.path_oracle = backend;
    config.base.metrics = &registry;
    config.base.tracer = &tracer;
    const OfferedLoadResult result = RunOfferedLoadSweep(env_, config);
    *metrics_out =
        MetricsSummaryJson(registry.Snapshot(), MetricsExportOptions{});
    *trace_out = OpTraceCsv(tracer.Drain());
    return result;
  };

  std::string metrics_serial, trace_serial;
  const OfferedLoadResult serial =
      run(1, PathOracleBackend::kHub, &metrics_serial, &trace_serial);
  const std::pair<unsigned, PathOracleBackend> variants[] = {
      {7, PathOracleBackend::kHub},
      {1, PathOracleBackend::kLru},
      {4, PathOracleBackend::kLru},
  };
  for (const auto& [threads, backend] : variants) {
    SCOPED_TRACE(testing::Message()
                 << "threads=" << threads << " lru="
                 << (backend == PathOracleBackend::kLru));
    std::string metrics, trace;
    const OfferedLoadResult other = run(threads, backend, &metrics, &trace);
    ASSERT_EQ(serial.points.size(), other.points.size());
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
      EXPECT_TRUE(SamePoint(serial.points[i], other.points[i]))
          << "point " << i << " diverged";
    }
    EXPECT_EQ(serial.analytic_saturation_per_s,
              other.analytic_saturation_per_s);
    EXPECT_EQ(serial.measured_knee_per_s, other.measured_knee_per_s);
    EXPECT_EQ(metrics_serial, metrics);
    EXPECT_EQ(trace_serial, trace);
  }
}

// The wire client orders replicas by RTT only; a config asking for the
// closed form's fewest-hops selection fails before any work, naming the
// field.
TEST_F(OfferedLoadTest, RejectsSelectionTheWireCannotHonour) {
  OfferedLoadConfig config = Config();
  config.base.selection = ReplicaSelection::kFewestHops;
  try {
    (void)RunOfferedLoadSweep(env_, config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("selection"), std::string::npos)
        << e.what();
  }
}

TEST_F(OfferedLoadTest, LightLoadServesEverythingAtNetworkLatency) {
  OfferedLoadConfig config = Config();
  config.offered_rates_per_s = {100.0};
  const OfferedLoadResult result = RunOfferedLoadSweep(env_, config);
  const OfferedLoadPoint& p = result.points.front();
  ASSERT_GT(p.lookups, 0u);
  EXPECT_EQ(p.found, p.lookups);  // nothing sheds at 100/s vs mu=200/s
  EXPECT_EQ(p.failed, 0u);
  EXPECT_GT(p.p50_ms, 0.0);
  EXPECT_LE(p.p50_ms, p.p99_ms);
  EXPECT_LE(p.p99_ms, p.p999_ms);
  EXPECT_LT(p.hottest_mm1.utilization, 1.0);
  EXPECT_TRUE(p.hottest_mm1.stable);
  EXPECT_GT(result.analytic_saturation_per_s, 0.0);
  EXPECT_EQ(result.measured_knee_per_s, 0.0);  // no knee at light load
}

TEST_F(OfferedLoadTest, OverloadShedsAndInflatesTheTail) {
  const OfferedLoadResult result = RunOfferedLoadSweep(env_, Config());
  const OfferedLoadPoint& light = result.points.front();
  const OfferedLoadPoint& heavy = result.points.back();
  // 3200/s against a 200/s-per-server tier: the tier must shed, queue
  // waits must show up, and the tail must sit far above the light point's.
  EXPECT_GT(heavy.tier_shed, 0u);
  EXPECT_GT(heavy.tier_queued, 0u);
  EXPECT_GT(heavy.mean_queue_delay_ms, light.mean_queue_delay_ms);
  EXPECT_GT(heavy.p99_ms, light.p99_ms);
  EXPECT_FALSE(heavy.hottest_mm1.stable);
  // Tier outcome counts partition the arrivals.
  EXPECT_EQ(heavy.tier_arrivals, heavy.tier_served + heavy.tier_queued +
                                     heavy.tier_shed_tokens +
                                     heavy.tier_shed_queue);
}

}  // namespace
}  // namespace dmap
