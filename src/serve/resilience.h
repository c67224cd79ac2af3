// Per-backend health primitives for the serving path: a circuit breaker
// that takes a browning-out backend out of the fallback chain instead of
// burning every request's deadline on it, and an AIMD load shedder that
// turns queue-wait pressure into early Unavailable rejections instead of
// late DeadlineExceeded timeouts.
//
// Both classes take explicit `steady_clock::time_point now` arguments so
// tests drive the state machines with synthetic time — no sleeping, no
// flaky backoff races. Both are thread-safe; every method is one short
// critical section.
//
// Circuit breaker state machine (DESIGN.md §12):
//
//     closed --(trip: consecutive failures OR windowed error rate)--> open
//     open   --(jittered exponential backoff elapsed)--> half-open
//     half-open --(probe success)--> closed   (backoff + window reset)
//     half-open --(probe failure)--> open     (backoff doubled, capped)
//
// In half-open exactly one in-flight probe is admitted; everything else is
// skipped until the probe reports. The backoff jitter is deterministic per
// breaker (seeded splitmix64) so chaos runs replay exactly.
#ifndef RNE_SERVE_RESILIENCE_H_
#define RNE_SERVE_RESILIENCE_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "util/annotations.h"
#include "util/histogram.h"

namespace rne::serve {

enum class BreakerState { kClosed = 0, kHalfOpen = 1, kOpen = 2 };

/// Short lowercase name for logs/metrics ("closed", "half-open", "open").
const char* BreakerStateName(BreakerState state);

struct BreakerOptions {
  /// Trip after this many consecutive failures regardless of rate.
  size_t consecutive_failures = 5;
  /// Trip when failures/window >= this, once the window holds min_samples.
  double error_rate_threshold = 0.5;
  size_t min_samples = 20;
  /// Sliding outcome window size (ring buffer of the last N outcomes).
  size_t window = 64;
  /// Backoff before the first half-open probe; doubles per re-trip.
  std::chrono::milliseconds initial_backoff{100};
  std::chrono::milliseconds max_backoff{10000};
  double backoff_multiplier = 2.0;
  /// Probe delay is scaled by a uniform factor in [1-jitter, 1+jitter] so a
  /// fleet of breakers tripped together does not probe in lockstep.
  double jitter = 0.2;
  uint64_t seed = 0x5eedu;
};

class CircuitBreaker {
 public:
  using Clock = std::chrono::steady_clock;

  explicit CircuitBreaker(const BreakerOptions& options = {});

  /// True when the caller may dispatch to the guarded backend — and then
  /// MUST report the outcome via RecordSuccess/RecordFailure. Transitions
  /// open -> half-open when the backoff deadline has passed; in half-open
  /// admits exactly one probe.
  bool Allow(Clock::time_point now);
  void RecordSuccess(Clock::time_point now);
  void RecordFailure(Clock::time_point now);

  BreakerState state() const;
  /// Closed -> open transitions since construction.
  uint64_t trips() const;

 private:
  void TripLocked(Clock::time_point now) RNE_REQUIRES(mu_);
  void ResetWindowLocked() RNE_REQUIRES(mu_);
  /// Jittered backoff for the current trip streak (exponent `reopens_`).
  Clock::duration BackoffLocked() RNE_REQUIRES(mu_);

  const BreakerOptions options_;

  mutable Mutex mu_;
  BreakerState state_ RNE_GUARDED_BY(mu_) = BreakerState::kClosed;
  /// Ring of recent outcomes (1 = failure), plus derived tallies.
  std::vector<uint8_t> window_ RNE_GUARDED_BY(mu_);
  size_t window_head_ RNE_GUARDED_BY(mu_) = 0;
  size_t window_count_ RNE_GUARDED_BY(mu_) = 0;
  size_t window_failures_ RNE_GUARDED_BY(mu_) = 0;
  size_t consecutive_failures_ RNE_GUARDED_BY(mu_) = 0;
  /// Re-trips since the last close (backoff exponent).
  uint32_t reopens_ RNE_GUARDED_BY(mu_) = 0;
  Clock::time_point open_until_ RNE_GUARDED_BY(mu_);
  bool probe_in_flight_ RNE_GUARDED_BY(mu_) = false;
  uint64_t trips_ RNE_GUARDED_BY(mu_) = 0;
  uint64_t rng_state_ RNE_GUARDED_BY(mu_);
};

struct ShedderOptions {
  /// Whether QueryEngine builds a shedder at all; AimdLoadShedder itself
  /// does not read it.
  bool enabled = false;
  /// Admitted-depth bounds the AIMD limit moves between. The engine clamps
  /// max_limit to its queue capacity.
  size_t min_limit = 64;
  size_t max_limit = 4096;
  /// Queue-wait p95 above this triggers a multiplicative decrease.
  std::chrono::microseconds target_queue_wait_p95{2000};
  /// Adaptation cadence; between ticks samples accumulate.
  std::chrono::milliseconds adapt_interval{50};
  size_t additive_increase = 32;
  double multiplicative_decrease = 0.5;
};

/// Adaptive admission limit: additively raise the admitted-request depth
/// while queue wait stays under target, multiplicatively cut it when the
/// p95 queue wait exceeds target. With no samples in an interval (e.g.
/// everything was shed) the limit still climbs, so shedding self-heals.
class AimdLoadShedder {
 public:
  using Clock = std::chrono::steady_clock;

  explicit AimdLoadShedder(const ShedderOptions& options = {});

  /// Current admitted-depth limit; performs any due adaptation tick first.
  size_t CurrentLimit(Clock::time_point now);
  /// Feeds one admission-to-execution wait sample.
  void RecordQueueWait(int64_t wait_ns, Clock::time_point now);

  /// Multiplicative decreases since construction (brownout indicator).
  uint64_t decreases() const;

 private:
  void AdaptLocked(Clock::time_point now) RNE_REQUIRES(mu_);

  const ShedderOptions options_;

  mutable Mutex mu_;
  size_t limit_ RNE_GUARDED_BY(mu_);
  LatencyHistogram waits_ RNE_GUARDED_BY(mu_);
  Clock::time_point next_adapt_ RNE_GUARDED_BY(mu_);
  bool adapt_scheduled_ RNE_GUARDED_BY(mu_) = false;
  uint64_t decreases_ RNE_GUARDED_BY(mu_) = 0;
};

}  // namespace rne::serve

#endif  // RNE_SERVE_RESILIENCE_H_
