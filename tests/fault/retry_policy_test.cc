#include "fault/retry_policy.h"

#include <gtest/gtest.h>

namespace dmap {
namespace {

TEST(RetryPolicyTest, AdaptiveTimeoutBacksOffAboveTheRttFloor) {
  // Retry 0 arms the plain base, whatever the backoff.
  EXPECT_EQ(AdaptiveTimeoutMs(200.0, 10.0), 200.0);
  EXPECT_EQ(AdaptiveTimeoutMs(200.0, 10.0, 0, 3.0), 200.0);
  // Each retransmission multiplies the base by the backoff.
  EXPECT_EQ(AdaptiveTimeoutMs(200.0, 10.0, 1, 2.0), 400.0);
  EXPECT_EQ(AdaptiveTimeoutMs(200.0, 10.0, 3, 2.0), 1600.0);
  EXPECT_EQ(AdaptiveTimeoutMs(200.0, 10.0, 2, 2.0),
            TimeoutForAttemptMs(200.0, 2, 2.0));
  // A slow replica's 1.5x RTT floor wins until the backoff outgrows it.
  EXPECT_EQ(AdaptiveTimeoutMs(200.0, 300.0), 450.0);
  EXPECT_EQ(AdaptiveTimeoutMs(200.0, 300.0, 1, 2.0), 450.0);
  EXPECT_EQ(AdaptiveTimeoutMs(200.0, 300.0, 2, 2.0), 800.0);
}

}  // namespace
}  // namespace dmap
