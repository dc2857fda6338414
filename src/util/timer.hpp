#pragma once
// Duration timing helpers used by engines and benchmark harnesses.

#include <chrono>
#include <cstdint>

namespace cbq::util {

/// Monotonic stopwatch. Started on construction; restartable.
///
/// All duration measurement in the codebase — this stopwatch, the
/// portfolio Budget's deadline, and the span tracer's timestamps — must
/// run on steady_clock: an NTP step or DST change must never corrupt a
/// budget, a report's seconds column, or a trace. system_clock is
/// reserved for wall timestamps in run headers. Enforced here and at the
/// other clock sites by static_assert; test_obs.cpp carries the runtime
/// regression test.
class Timer {
 public:
  using Clock = std::chrono::steady_clock;
  static_assert(Clock::is_steady,
                "durations must come from a monotonic clock");

  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void restart() { start_ = Clock::now(); }

  /// Elapsed time in seconds since construction / last restart.
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in milliseconds.
  [[nodiscard]] double milliseconds() const { return seconds() * 1e3; }

 private:
  Clock::time_point start_;
};

// (The former util::Deadline lived here; deadlines now flow through
// portfolio::Budget, an engine session's only clock, so cancellation and
// deadlines share one cooperative polling path.)

}  // namespace cbq::util
