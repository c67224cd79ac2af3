#include "serve/resilience.h"

#include <algorithm>

namespace rne::serve {
namespace {

/// splitmix64 step: deterministic, seedable, and not a std random engine
/// (the raw-random lint rule bans those outside util/rng.h; this is a hash,
/// reused here so breaker jitter replays exactly under a fixed seed).
uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double UnitRandom(uint64_t* state) {
  return static_cast<double>(NextRandom(state) >> 11) * 0x1.0p-53;
}

}  // namespace

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kHalfOpen:
      return "half-open";
    case BreakerState::kOpen:
      return "open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(const BreakerOptions& options)
    : options_(options),
      window_(std::max<size_t>(1, options.window), 0),
      rng_state_(options.seed) {}

CircuitBreaker::Clock::duration CircuitBreaker::BackoffLocked() {
  double backoff_ms =
      static_cast<double>(options_.initial_backoff.count());
  for (uint32_t i = 0; i < reopens_; ++i) {
    backoff_ms *= options_.backoff_multiplier;
    if (backoff_ms >= static_cast<double>(options_.max_backoff.count())) {
      break;
    }
  }
  backoff_ms = std::min(
      backoff_ms, static_cast<double>(options_.max_backoff.count()));
  const double factor =
      1.0 + options_.jitter * (2.0 * UnitRandom(&rng_state_) - 1.0);
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(backoff_ms *
                                                std::max(0.0, factor)));
}

void CircuitBreaker::TripLocked(Clock::time_point now) {
  state_ = BreakerState::kOpen;
  open_until_ = now + BackoffLocked();
  probe_in_flight_ = false;
  ++trips_;
}

void CircuitBreaker::ResetWindowLocked() {
  std::fill(window_.begin(), window_.end(), 0);
  window_head_ = 0;
  window_count_ = 0;
  window_failures_ = 0;
  consecutive_failures_ = 0;
}

bool CircuitBreaker::Allow(Clock::time_point now) {
  MutexLock lock(&mu_);
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (now < open_until_) return false;
      state_ = BreakerState::kHalfOpen;
      probe_in_flight_ = true;
      return true;
    case BreakerState::kHalfOpen:
      if (probe_in_flight_) return false;
      probe_in_flight_ = true;
      return true;
  }
  return true;
}

void CircuitBreaker::RecordSuccess(Clock::time_point now) {
  (void)now;  // symmetry with RecordFailure; success never needs a deadline
  MutexLock lock(&mu_);
  switch (state_) {
    case BreakerState::kClosed: {
      consecutive_failures_ = 0;
      if (window_[window_head_] != 0) --window_failures_;
      window_[window_head_] = 0;
      window_head_ = (window_head_ + 1) % window_.size();
      window_count_ = std::min(window_count_ + 1, window_.size());
      return;
    }
    case BreakerState::kHalfOpen:
      // Probe answered: the backend is back. Full reset so one stale
      // failure burst cannot immediately re-trip.
      state_ = BreakerState::kClosed;
      probe_in_flight_ = false;
      reopens_ = 0;
      ResetWindowLocked();
      return;
    case BreakerState::kOpen:
      // Late completion of a request dispatched before the trip; the
      // half-open probe is the only signal that re-closes.
      return;
  }
}

void CircuitBreaker::RecordFailure(Clock::time_point now) {
  MutexLock lock(&mu_);
  switch (state_) {
    case BreakerState::kClosed: {
      ++consecutive_failures_;
      if (window_[window_head_] == 0) ++window_failures_;
      window_[window_head_] = 1;
      window_head_ = (window_head_ + 1) % window_.size();
      window_count_ = std::min(window_count_ + 1, window_.size());
      const bool consec_trip =
          consecutive_failures_ >= options_.consecutive_failures;
      const bool rate_trip =
          window_count_ >= options_.min_samples &&
          static_cast<double>(window_failures_) >=
              options_.error_rate_threshold *
                  static_cast<double>(window_count_);
      if (consec_trip || rate_trip) TripLocked(now);
      return;
    }
    case BreakerState::kHalfOpen:
      // Probe failed: back off harder before the next probe.
      ++reopens_;
      TripLocked(now);
      return;
    case BreakerState::kOpen:
      return;  // late failure of a pre-trip dispatch
  }
}

BreakerState CircuitBreaker::state() const {
  MutexLock lock(&mu_);
  return state_;
}

uint64_t CircuitBreaker::trips() const {
  MutexLock lock(&mu_);
  return trips_;
}

AimdLoadShedder::AimdLoadShedder(const ShedderOptions& options)
    : options_(options), limit_(options.max_limit) {}

void AimdLoadShedder::AdaptLocked(Clock::time_point now) {
  if (!adapt_scheduled_) {
    // First traffic after construction (or a long idle gap): start the
    // adaptation clock now instead of reacting to stale history.
    next_adapt_ = now + options_.adapt_interval;
    adapt_scheduled_ = true;
    return;
  }
  if (now < next_adapt_) return;
  next_adapt_ = now + options_.adapt_interval;
  const double target_ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              options_.target_queue_wait_p95)
                              .count());
  if (waits_.TotalCount() > 0 && waits_.PercentileNanos(95.0) > target_ns) {
    const auto cut = static_cast<size_t>(
        static_cast<double>(limit_) * options_.multiplicative_decrease);
    limit_ = std::max(options_.min_limit, cut);
    ++decreases_;
  } else {
    // Under target — or no samples at all because everything was shed —
    // climb additively so a collapsed limit recovers on its own.
    limit_ = std::min(options_.max_limit, limit_ + options_.additive_increase);
  }
  waits_.Reset();
}

size_t AimdLoadShedder::CurrentLimit(Clock::time_point now) {
  MutexLock lock(&mu_);
  AdaptLocked(now);
  return limit_;
}

void AimdLoadShedder::RecordQueueWait(int64_t wait_ns,
                                      Clock::time_point now) {
  MutexLock lock(&mu_);
  waits_.Record(wait_ns);
  AdaptLocked(now);
}

uint64_t AimdLoadShedder::decreases() const {
  MutexLock lock(&mu_);
  return decreases_;
}

}  // namespace rne::serve
