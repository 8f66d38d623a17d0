// Wall-clock stopwatch used by the experiment runner and benchmarks.

#ifndef RHCHME_UTIL_STOPWATCH_H_
#define RHCHME_UTIL_STOPWATCH_H_

#include <chrono>

namespace rhchme {

/// Monotonic wall-clock timer. Starts on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Seconds elapsed since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace rhchme

#endif  // RHCHME_UTIL_STOPWATCH_H_
