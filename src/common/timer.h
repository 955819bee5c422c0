// Wall-clock timing helpers used by the mining engine and the bench
// harness.

#ifndef FLIPPER_COMMON_TIMER_H_
#define FLIPPER_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace flipper {

/// Monotonic stopwatch. Starts running on construction.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction / last Restart, in seconds.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in whole microseconds.
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates elapsed seconds into a caller-owned double on scope exit.
class ScopedTimer {
 public:
  explicit ScopedTimer(double* accumulator) : accumulator_(accumulator) {}
  ~ScopedTimer() { *accumulator_ += timer_.ElapsedSeconds(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double* accumulator_;
  WallTimer timer_;
};

}  // namespace flipper

#endif  // FLIPPER_COMMON_TIMER_H_
