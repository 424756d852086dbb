// Shared client retry/backoff arithmetic. Two execution paths time out on
// unresponsive replicas — the closed-form DMapService and the wire
// protocol in proto/ — and the agreement tests require both to charge the
// same amount of simulated time for the same fault. Keeping the geometry
// here, rather than two hand rolled loops, is what keeps them aligned.
//
// Policy: a probe's first timeout is `base_timeout_ms`; each retransmission
// multiplies it by `backoff` (deterministic exponential backoff, no
// randomized jitter — runs must be replayable). After `retries`
// retransmissions the client gives up on the replica and falls through to
// the next one, having spent TotalTimeoutCostMs in all.
#pragma once

#include <algorithm>

namespace dmap {

// Timeout armed for retransmission number `retry` (0 = first transmission).
inline double TimeoutForAttemptMs(double base_timeout_ms, int retry,
                                  double backoff) {
  double timeout = base_timeout_ms;
  for (int i = 0; i < retry; ++i) timeout *= backoff;
  return timeout;
}

// Timeout armed for transmission `retry` of a request whose round trip the
// client estimates at `rtt_ms`: the backed-off base, floored at 1.5x the RTT
// so a slow-but-alive replica is never declared dead before its reply can
// arrive. Replica writes are single-shot (retry 0: the plain base).
inline double AdaptiveTimeoutMs(double base_timeout_ms, double rtt_ms,
                                int retry = 0, double backoff = 1.0) {
  return std::max(TimeoutForAttemptMs(base_timeout_ms, retry, backoff),
                  1.5 * rtt_ms);
}

// Total time a client waits on a dead replica before falling through:
// base * (1 + b + b^2 + ... + b^retries).
inline double TotalTimeoutCostMs(double base_timeout_ms, int retries,
                                 double backoff) {
  double total = 0.0;
  double timeout = base_timeout_ms;
  for (int retry = 0; retry <= retries; ++retry) {
    total += timeout;
    timeout *= backoff;
  }
  return total;
}

}  // namespace dmap
