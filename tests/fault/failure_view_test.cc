#include "fault/failure_view.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace dmap {
namespace {

SimTime Ms(double ms) { return SimTime::Millis(ms); }

TEST(FailureViewTest, EmptyViewReportsNothingFailed) {
  FailureView view;
  EXPECT_TRUE(view.Empty());
  EXPECT_FALSE(view.TimeVarying());
  EXPECT_FALSE(view.IsFailed(0));
  EXPECT_FALSE(view.IsDownAt(17, Ms(1e9)));
  EXPECT_TRUE(view.FailedAt(Ms(0)).empty());
}

TEST(FailureViewTest, SetFailedMatchesLegacyStaticSemantics) {
  FailureView view;
  view.SetFailed({7, 3});
  EXPECT_TRUE(view.IsFailed(3));
  EXPECT_TRUE(view.IsFailed(7));
  EXPECT_FALSE(view.IsFailed(4));
  // A static failure is a window spanning all of time: every instant of
  // the schedule agrees with the static view.
  EXPECT_TRUE(view.IsDownAt(3, Ms(1e12)));
  EXPECT_EQ(view.FailedAt(Ms(500.0)), (std::vector<AsId>{3, 7}));
  // Static windows are not "time-varying": the static view is exact.
  EXPECT_FALSE(view.TimeVarying());

  // SetFailed replaces the whole schedule, like the legacy call it mirrors.
  view.SetFailed({9});
  EXPECT_FALSE(view.IsFailed(3));
  EXPECT_TRUE(view.IsFailed(9));
}

TEST(FailureViewTest, FailOpensWindowFromGivenTime) {
  FailureView view;
  view.Fail(5, Ms(100.0));
  EXPECT_FALSE(view.IsFailed(5));  // static view: window misses time zero
  EXPECT_FALSE(view.IsDownAt(5, Ms(99.9)));
  EXPECT_TRUE(view.IsDownAt(5, Ms(100.0)));  // half-open: down_at included
  EXPECT_TRUE(view.IsDownAt(5, Ms(1e9)));    // never recovers
  EXPECT_TRUE(view.TimeVarying());
}

TEST(FailureViewTest, RecoverClosesWindowsOpenAtThatTime) {
  FailureView view;
  view.Fail(5);  // down for all time
  view.Recover(5, Ms(50.0));
  EXPECT_TRUE(view.IsDownAt(5, Ms(49.9)));
  EXPECT_FALSE(view.IsDownAt(5, Ms(50.0)));  // half-open: up_at excluded
  EXPECT_TRUE(view.IsFailed(5));               // still down at time zero
}

TEST(FailureViewTest, RecoverAtZeroErasesStaticFailure) {
  FailureView view;
  view.Fail(4);
  view.Recover(4);
  EXPECT_FALSE(view.IsFailed(4));
  EXPECT_FALSE(view.IsDownAt(4, Ms(123.0)));
}

TEST(FailureViewTest, AddWindowEnforcesOrderedBounds) {
  FailureView view;
  EXPECT_THROW(view.AddWindow(1, Ms(10.0), Ms(5.0)), std::invalid_argument);
  // An empty half-open window is legal and never fails the AS.
  view.AddWindow(1, Ms(10.0), Ms(10.0));
  EXPECT_FALSE(view.IsDownAt(1, Ms(10.0)));
}

TEST(FailureViewTest, DisjointWindowsEachTakeEffect) {
  FailureView view;
  view.AddWindow(2, Ms(10.0), Ms(20.0));
  view.AddWindow(2, Ms(30.0), Ms(40.0));
  EXPECT_FALSE(view.IsDownAt(2, Ms(9.9)));
  EXPECT_TRUE(view.IsDownAt(2, Ms(15.0)));
  EXPECT_FALSE(view.IsDownAt(2, Ms(25.0)));
  EXPECT_TRUE(view.IsDownAt(2, Ms(35.0)));
  EXPECT_FALSE(view.IsDownAt(2, Ms(40.0)));
  EXPECT_TRUE(view.TimeVarying());
}

TEST(FailureViewTest, FailedAtReturnsSortedSnapshot) {
  FailureView view;
  view.AddWindow(9, Ms(0.0), Ms(100.0));
  view.AddWindow(3, Ms(0.0), Ms(100.0));
  view.AddWindow(7, Ms(50.0), Ms(200.0));
  EXPECT_EQ(view.FailedAt(Ms(10.0)), (std::vector<AsId>{3, 9}));
  EXPECT_EQ(view.FailedAt(Ms(60.0)), (std::vector<AsId>{3, 7, 9}));
  EXPECT_EQ(view.FailedAt(Ms(150.0)), (std::vector<AsId>{7}));
  EXPECT_TRUE(view.FailedAt(Ms(300.0)).empty());
}

TEST(FailureViewTest, ClearForgetsEverything) {
  FailureView view;
  view.SetFailed({1, 2, 3});
  view.Clear();
  EXPECT_TRUE(view.Empty());
  EXPECT_FALSE(view.IsFailed(1));
}

TEST(FailureViewTest, PartitionWindowsAreSymmetricAndTimed) {
  FailureView view;
  EXPECT_FALSE(view.HasPartitions());
  view.AddPartition(3, 9, Ms(100.0), Ms(400.0));
  EXPECT_TRUE(view.HasPartitions());
  EXPECT_FALSE(view.Empty());

  // Half-open [down_at, up_at), symmetric in the endpoints.
  EXPECT_FALSE(view.IsPartitionedAt(3, 9, Ms(99.9)));
  EXPECT_TRUE(view.IsPartitionedAt(3, 9, Ms(100.0)));
  EXPECT_TRUE(view.IsPartitionedAt(9, 3, Ms(250.0)));
  EXPECT_FALSE(view.IsPartitionedAt(3, 9, Ms(400.0)));
  // Only the named pair is cut.
  EXPECT_FALSE(view.IsPartitionedAt(3, 7, Ms(250.0)));
  EXPECT_FALSE(view.IsPartitionedAt(9, 7, Ms(250.0)));
  // Neither endpoint is *failed* — partitions are link state, not AS state.
  EXPECT_FALSE(view.IsDownAt(3, Ms(250.0)));
  EXPECT_FALSE(view.IsDownAt(9, Ms(250.0)));

  // Disjoint windows of the same pair each take effect; endpoint order at
  // insertion does not matter.
  view.AddPartition(9, 3, Ms(500.0), FailureView::kForever);
  EXPECT_FALSE(view.IsPartitionedAt(3, 9, Ms(450.0)));
  EXPECT_TRUE(view.IsPartitionedAt(3, 9, Ms(1e9)));

  view.Clear();
  EXPECT_FALSE(view.HasPartitions());
  EXPECT_TRUE(view.Empty());
}

TEST(FailureViewTest, AddPartitionValidates) {
  FailureView view;
  EXPECT_THROW(view.AddPartition(4, 4, Ms(0.0), Ms(10.0)),
               std::invalid_argument);
  EXPECT_THROW(view.AddPartition(1, 2, Ms(10.0), Ms(5.0)),
               std::invalid_argument);
  // An empty half-open window is legal and never cuts the pair.
  view.AddPartition(1, 2, Ms(10.0), Ms(10.0));
  EXPECT_FALSE(view.IsPartitionedAt(1, 2, Ms(10.0)));
}

TEST(FailureViewTest, KForeverOutlastsAnySimulatedHorizon) {
  FailureView view;
  view.AddWindow(6, Ms(0.0), FailureView::kForever);
  // A decade of simulated milliseconds is still inside the window.
  EXPECT_TRUE(view.IsDownAt(6, Ms(3.2e11)));
}

}  // namespace
}  // namespace dmap
