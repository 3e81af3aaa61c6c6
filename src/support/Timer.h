//===- support/Timer.h - Wall-clock timing ---------------------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simple monotonic wall-clock stopwatch used to report training and
/// execution times in the Table 2/3 harnesses.
///
//===----------------------------------------------------------------------===//

#ifndef AU_SUPPORT_TIMER_H
#define AU_SUPPORT_TIMER_H

#include <chrono>

namespace au {

/// A stopwatch started at construction.
class Timer {
public:
  Timer() : Start(Clock::now()) {}

  /// Restarts the stopwatch.
  void reset() { Start = Clock::now(); }

  /// Elapsed seconds since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

} // namespace au

#endif // AU_SUPPORT_TIMER_H
