// Deadline plumbing for the paper's time limits: 24 h for index construction
// and 10 min per query (both scaled down in our benches). Long-running loops
// poll Expired() at coarse granularity.
#ifndef SGQ_UTIL_DEADLINE_H_
#define SGQ_UTIL_DEADLINE_H_

#include <algorithm>
#include <chrono>
#include <limits>

namespace sgq {

class Deadline {
 public:
  // A deadline that never expires.
  Deadline() : expiry_(Clock::time_point::max()) {}

  static Deadline Infinite() { return Deadline(); }
  // Limits of a century or more (and +inf) mean no limit: the nanosecond
  // clock cannot represent them, and converting one would overflow.
  static Deadline AfterSeconds(double seconds) {
    constexpr double kCenturySeconds = 100 * 365.25 * 86400;
    if (!(seconds < kCenturySeconds)) return Infinite();
    Deadline d;
    d.expiry_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       std::max(seconds, -kCenturySeconds)));
    return d;
  }

  bool Expired() const {
    return expiry_ != Clock::time_point::max() && Clock::now() >= expiry_;
  }

  bool IsInfinite() const { return expiry_ == Clock::time_point::max(); }

  // Seconds until expiry (negative once expired; +infinity if infinite).
  double SecondsRemaining() const {
    if (IsInfinite()) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(expiry_ - Clock::now()).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point expiry_;
};

// Cheap expiry poller: calls Deadline::Expired() only once every
// kCheckInterval ticks so hot enumeration loops pay ~one branch per step.
class DeadlineChecker {
 public:
  explicit DeadlineChecker(Deadline deadline) : deadline_(deadline) {}

  // Returns true once the deadline has passed; sticky thereafter.
  bool Tick() {
    if (expired_) return true;
    if (++ticks_ % kCheckInterval == 0 && deadline_.Expired()) {
      expired_ = true;
    }
    return expired_;
  }

  bool expired() const { return expired_; }

 private:
  static constexpr uint64_t kCheckInterval = 1024;
  Deadline deadline_;
  uint64_t ticks_ = 0;
  bool expired_ = false;
};

}  // namespace sgq

#endif  // SGQ_UTIL_DEADLINE_H_
