// Synthetic-time unit tests for the serving resilience primitives: the
// per-backend circuit breaker state machine (trip conditions, backoff,
// half-open probe discipline) and the AIMD load shedder. No sleeping —
// both classes take explicit steady_clock time points.
#include <gtest/gtest.h>

#include <chrono>

#include "serve/resilience.h"

namespace rne::serve {
namespace {

using Clock = CircuitBreaker::Clock;
using std::chrono::milliseconds;

/// Arbitrary but fixed epoch so tests do not depend on the real clock.
Clock::time_point T0() { return Clock::time_point(std::chrono::hours(1)); }

BreakerOptions FastBreaker() {
  BreakerOptions opt;
  opt.consecutive_failures = 3;
  opt.initial_backoff = milliseconds(100);
  opt.max_backoff = milliseconds(1000);
  opt.backoff_multiplier = 2.0;
  opt.jitter = 0.0;  // deterministic backoff deadlines
  return opt;
}

TEST(CircuitBreakerTest, TripsOnConsecutiveFailures) {
  CircuitBreaker breaker(FastBreaker());
  const auto t = T0();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.RecordFailure(t);
  breaker.RecordFailure(t);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.Allow(t));
  breaker.RecordFailure(t);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_FALSE(breaker.Allow(t));
}

TEST(CircuitBreakerTest, SuccessResetsConsecutiveCount) {
  CircuitBreaker breaker(FastBreaker());
  const auto t = T0();
  for (int round = 0; round < 5; ++round) {
    breaker.RecordFailure(t);
    breaker.RecordFailure(t);
    breaker.RecordSuccess(t);  // streak broken before the trip threshold
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.trips(), 0u);
}

TEST(CircuitBreakerTest, TripsOnWindowedErrorRate) {
  BreakerOptions opt = FastBreaker();
  opt.consecutive_failures = 1000;  // only the rate condition can trip
  opt.window = 16;
  opt.min_samples = 10;
  opt.error_rate_threshold = 0.5;
  CircuitBreaker breaker(opt);
  const auto t = T0();
  // Interleave so no failure streak forms: 5 successes, then failures.
  for (int i = 0; i < 5; ++i) breaker.RecordSuccess(t);
  for (int i = 0; i < 4; ++i) breaker.RecordFailure(t);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed) << "9 samples < min 10";
  breaker.RecordFailure(t);  // 5 failures / 10 samples hits the 0.5 rate
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreakerTest, OpenAdmitsSingleProbeAfterBackoff) {
  CircuitBreaker breaker(FastBreaker());
  const auto t = T0();
  for (int i = 0; i < 3; ++i) breaker.RecordFailure(t);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.Allow(t + milliseconds(99)));
  // Backoff elapsed: exactly one probe goes through, concurrents are held.
  const auto probe_time = t + milliseconds(101);
  EXPECT_TRUE(breaker.Allow(probe_time));
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.Allow(probe_time));
  EXPECT_FALSE(breaker.Allow(probe_time + milliseconds(1)));
}

TEST(CircuitBreakerTest, ProbeSuccessClosesAndResets) {
  CircuitBreaker breaker(FastBreaker());
  auto t = T0();
  for (int i = 0; i < 3; ++i) breaker.RecordFailure(t);
  t += milliseconds(101);
  ASSERT_TRUE(breaker.Allow(t));
  breaker.RecordSuccess(t);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.Allow(t));
  // The window was reset on close: it takes a full fresh streak to re-trip,
  // not one straggler failure on top of stale history.
  breaker.RecordFailure(t);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, ProbeFailureDoublesBackoff) {
  CircuitBreaker breaker(FastBreaker());
  auto t = T0();
  for (int i = 0; i < 3; ++i) breaker.RecordFailure(t);
  t += milliseconds(101);
  ASSERT_TRUE(breaker.Allow(t));
  breaker.RecordFailure(t);  // probe failed -> re-open, backoff 100 -> 200ms
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);
  EXPECT_FALSE(breaker.Allow(t + milliseconds(150)));
  EXPECT_TRUE(breaker.Allow(t + milliseconds(201)));
}

TEST(CircuitBreakerTest, BackoffIsCappedAtMax) {
  CircuitBreaker breaker(FastBreaker());  // cap 1000ms
  auto t = T0();
  for (int i = 0; i < 3; ++i) breaker.RecordFailure(t);
  // Fail 6 probes; uncapped backoff would be 100 * 2^6 = 6400ms.
  for (int i = 0; i < 6; ++i) {
    t += milliseconds(1001);
    ASSERT_TRUE(breaker.Allow(t)) << "probe " << i;
    breaker.RecordFailure(t);
  }
  EXPECT_FALSE(breaker.Allow(t + milliseconds(999)));
  EXPECT_TRUE(breaker.Allow(t + milliseconds(1001)));
}

TEST(CircuitBreakerTest, LateOutcomesWhileOpenAreIgnored) {
  CircuitBreaker breaker(FastBreaker());
  const auto t = T0();
  for (int i = 0; i < 3; ++i) breaker.RecordFailure(t);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  // Completions of requests dispatched before the trip must not re-close
  // (only the half-open probe carries that signal) nor extend the backoff.
  breaker.RecordSuccess(t);
  breaker.RecordFailure(t);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_TRUE(breaker.Allow(t + milliseconds(101)));
}

TEST(CircuitBreakerTest, JitterStaysWithinConfiguredBand) {
  BreakerOptions opt = FastBreaker();
  opt.jitter = 0.2;
  CircuitBreaker breaker(opt);
  const auto t = T0();
  for (int i = 0; i < 3; ++i) breaker.RecordFailure(t);
  // First probe becomes eligible somewhere in [80ms, 120ms].
  EXPECT_FALSE(breaker.Allow(t + milliseconds(79)));
  EXPECT_TRUE(breaker.Allow(t + milliseconds(121)));
}

ShedderOptions FastShedder() {
  ShedderOptions opt;
  opt.min_limit = 4;
  opt.max_limit = 64;
  opt.target_queue_wait_p95 = std::chrono::microseconds(1000);
  opt.adapt_interval = milliseconds(10);
  opt.additive_increase = 8;
  opt.multiplicative_decrease = 0.5;
  return opt;
}

constexpr int64_t kSlowWaitNs = 5'000'000;  // 5ms, far over the 1ms target
constexpr int64_t kFastWaitNs = 100'000;    // 0.1ms, well under target

TEST(AimdLoadShedderTest, StartsAtMaxAndDecreasesUnderPressure) {
  AimdLoadShedder shedder(FastShedder());
  auto t = T0();
  EXPECT_EQ(shedder.CurrentLimit(t), 64u);
  shedder.RecordQueueWait(kSlowWaitNs, t);
  // Within the first interval nothing adapts yet.
  EXPECT_EQ(shedder.CurrentLimit(t + milliseconds(5)), 64u);
  EXPECT_EQ(shedder.CurrentLimit(t + milliseconds(11)), 32u);
  EXPECT_EQ(shedder.decreases(), 1u);
}

TEST(AimdLoadShedderTest, IncreasesAdditivelyUnderTarget) {
  AimdLoadShedder shedder(FastShedder());
  auto t = T0();
  shedder.RecordQueueWait(kSlowWaitNs, t);  // arms the adaptation clock
  ASSERT_EQ(shedder.CurrentLimit(t + milliseconds(11)), 32u);
  t += milliseconds(11);
  shedder.RecordQueueWait(kFastWaitNs, t);
  EXPECT_EQ(shedder.CurrentLimit(t + milliseconds(11)), 40u);
}

TEST(AimdLoadShedderTest, EmptyIntervalStillClimbs) {
  AimdLoadShedder shedder(FastShedder());
  auto t = T0();
  shedder.RecordQueueWait(kSlowWaitNs, t);
  ASSERT_EQ(shedder.CurrentLimit(t + milliseconds(11)), 32u);
  // No samples at all (everything shed): the limit must self-heal upward
  // instead of staying collapsed forever.
  EXPECT_EQ(shedder.CurrentLimit(t + milliseconds(22)), 40u);
  EXPECT_EQ(shedder.CurrentLimit(t + milliseconds(33)), 48u);
}

TEST(AimdLoadShedderTest, LimitIsClampedToConfiguredBounds) {
  AimdLoadShedder shedder(FastShedder());
  auto t = T0();
  shedder.RecordQueueWait(kSlowWaitNs, t);  // arm
  // Repeated pressure: 64 -> 32 -> 16 -> 8 -> 4, then the floor holds.
  for (int i = 0; i < 8; ++i) {
    t += milliseconds(11);
    shedder.RecordQueueWait(kSlowWaitNs, t - milliseconds(1));
    (void)shedder.CurrentLimit(t);  // tick
  }
  EXPECT_EQ(shedder.CurrentLimit(t), 4u);
  // Recovery climbs back and caps at max_limit.
  for (int i = 0; i < 20; ++i) {
    t += milliseconds(11);
    (void)shedder.CurrentLimit(t);
  }
  EXPECT_EQ(shedder.CurrentLimit(t), 64u);
}

}  // namespace
}  // namespace rne::serve
