#include "fault/fault_injector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "sim/environment.h"

namespace dmap {
namespace {

bool SameFate(const MessageFate& a, const MessageFate& b) {
  return a.dropped == b.dropped && a.delays_ms == b.delays_ms;
}

TEST(FaultInjectorTest, BenignPlanDeliversEverythingOnceUndelayed) {
  FaultInjector injector(FaultPlan{}, /*seed=*/42);
  for (std::uint64_t seq = 0; seq < 1000; ++seq) {
    const MessageFate fate = injector.FateOf(seq);
    EXPECT_FALSE(fate.dropped);
    ASSERT_EQ(fate.delays_ms.size(), 1u);
    EXPECT_DOUBLE_EQ(fate.delays_ms[0], 0.0);
  }
}

TEST(FaultInjectorTest, FateIsAPureFunctionOfSeedAndSequence) {
  FaultPlan plan;
  plan.drop_probability = 0.3;
  plan.duplicate_probability = 0.2;
  plan.jitter_ms = 15.0;

  FaultInjector a(plan, 7);
  FaultInjector b(plan, 7);
  // Query b in reverse order and a twice: counter-based fates must not
  // depend on call order or any shared RNG stream.
  for (std::uint64_t seq = 500; seq-- > 0;) {
    const MessageFate reversed = b.FateOf(seq);
    EXPECT_TRUE(SameFate(a.FateOf(seq), reversed));
    EXPECT_TRUE(SameFate(a.FateOf(seq), reversed));
  }

  // A different seed gives a different fault pattern.
  FaultInjector c(plan, 8);
  int differing = 0;
  for (std::uint64_t seq = 0; seq < 500; ++seq) {
    if (!SameFate(a.FateOf(seq), c.FateOf(seq))) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjectorTest, FateFrequenciesTrackThePlan) {
  FaultPlan plan;
  plan.drop_probability = 0.25;
  plan.duplicate_probability = 0.5;
  plan.jitter_ms = 10.0;
  FaultInjector injector(plan, 99);

  const std::uint64_t n = 20000;
  std::uint64_t dropped = 0, duplicated = 0;
  for (std::uint64_t seq = 0; seq < n; ++seq) {
    const MessageFate fate = injector.FateOf(seq);
    if (fate.dropped) {
      ++dropped;
      EXPECT_TRUE(fate.delays_ms.empty());
      continue;
    }
    ASSERT_GE(fate.delays_ms.size(), 1u);
    ASSERT_LE(fate.delays_ms.size(), 2u);
    if (fate.delays_ms.size() == 2) ++duplicated;
    for (const double delay : fate.delays_ms) {
      EXPECT_GE(delay, 0.0);
      EXPECT_LT(delay, plan.jitter_ms);
    }
  }
  EXPECT_NEAR(double(dropped) / double(n), plan.drop_probability, 0.02);
  EXPECT_NEAR(double(duplicated) / double(n - dropped),
              plan.duplicate_probability, 0.02);
}

TEST(FaultInjectorTest, InstallScheduleExpandsCrashesAndCones) {
  const SimEnvironment env =
      BuildEnvironment(EnvironmentParams::Scaled(200, 7));

  // Pick a provider with a non-trivial cone for the outage.
  AsId provider = 0;
  for (AsId as = 1; as < env.graph.num_nodes(); ++as) {
    if (env.graph.Degree(as) > env.graph.Degree(provider)) provider = as;
  }
  const std::vector<AsId> cone = CustomerCone(env.graph, provider);
  ASSERT_GT(cone.size(), 1u);

  FaultPlan plan;
  CrashWindow crash;
  crash.as = 5;
  crash.down_at = SimTime::Millis(10.0);
  crash.up_at = SimTime::Millis(20.0);
  plan.crashes.push_back(crash);
  CrashWindow outage;
  outage.as = provider;
  outage.down_at = SimTime::Millis(100.0);
  outage.up_at = SimTime::Millis(200.0);
  outage.wipe_storage = false;
  plan.outages.push_back(outage);

  FaultInjector injector(plan, 1);
  FailureView view;
  injector.InstallSchedule(env.graph, view);

  EXPECT_TRUE(view.IsDownAt(5, SimTime::Millis(15.0)));
  EXPECT_FALSE(view.IsDownAt(5, SimTime::Millis(25.0)));
  // The regional outage takes down the provider and its whole cone, for
  // exactly the window.
  for (const AsId member : cone) {
    EXPECT_TRUE(view.IsDownAt(member, SimTime::Millis(150.0)))
        << "cone member " << member;
    EXPECT_FALSE(view.IsDownAt(member, SimTime::Millis(250.0)))
        << "cone member " << member;
  }

  // Only the crash wipes storage; the regional outage keeps it.
  const auto wipes = injector.WipeSchedule();
  ASSERT_EQ(wipes.size(), 1u);
  EXPECT_EQ(wipes[0].first, SimTime::Millis(10.0));
  EXPECT_EQ(wipes[0].second, 5u);
}

TEST(FaultInjectorTest, WipeScheduleIsSortedByTimeThenAs) {
  FaultPlan plan;
  const auto add = [&plan](AsId as, double down) {
    CrashWindow w;
    w.as = as;
    w.down_at = SimTime::Millis(down);
    w.up_at = FailureView::kForever;
    plan.crashes.push_back(w);
  };
  add(9, 50.0);
  add(2, 50.0);
  add(7, 10.0);
  FaultInjector injector(plan, 1);
  const auto wipes = injector.WipeSchedule();
  ASSERT_EQ(wipes.size(), 3u);
  EXPECT_EQ(wipes[0], (std::pair<SimTime, AsId>{SimTime::Millis(10.0), 7}));
  EXPECT_EQ(wipes[1], (std::pair<SimTime, AsId>{SimTime::Millis(50.0), 2}));
  EXPECT_EQ(wipes[2], (std::pair<SimTime, AsId>{SimTime::Millis(50.0), 9}));
}

TEST(FaultInjectorTest, InstallScheduleRejectsUnknownAs) {
  const SimEnvironment env =
      BuildEnvironment(EnvironmentParams::Scaled(50, 7));
  FaultPlan plan;
  CrashWindow crash;
  crash.as = env.graph.num_nodes();  // one past the end
  plan.crashes.push_back(crash);
  FaultInjector injector(plan, 1);
  FailureView view;
  EXPECT_THROW(injector.InstallSchedule(env.graph, view),
               std::invalid_argument);
}

TEST(FaultInjectorTest, InstallScheduleExpandsAndValidatesPartitions) {
  const SimEnvironment env =
      BuildEnvironment(EnvironmentParams::Scaled(50, 7));

  FaultPlan plan;
  PartitionWindow cut;
  cut.a = 3;
  cut.b = 9;
  cut.down_at = SimTime::Millis(100.0);
  cut.up_at = SimTime::Millis(400.0);
  plan.partitions.push_back(cut);
  {
    FaultInjector injector(plan, 1);
    FailureView view;
    injector.InstallSchedule(env.graph, view);
    EXPECT_TRUE(view.IsPartitionedAt(9, 3, SimTime::Millis(150.0)));
    EXPECT_FALSE(view.IsPartitionedAt(9, 3, SimTime::Millis(450.0)));
    // The cut is not an outage: both endpoints stay up.
    EXPECT_FALSE(view.IsDownAt(3, SimTime::Millis(150.0)));
    EXPECT_FALSE(view.IsDownAt(9, SimTime::Millis(150.0)));
  }

  // Either endpoint out of range is rejected with the same diagnostics as
  // crash/outage entries.
  plan.partitions[0].b = env.graph.num_nodes();
  FaultInjector bad(plan, 1);
  FailureView view;
  EXPECT_THROW(bad.InstallSchedule(env.graph, view), std::invalid_argument);
}

}  // namespace
}  // namespace dmap
