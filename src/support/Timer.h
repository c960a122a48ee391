//===- support/Timer.h - Wall-clock timing helpers -------------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Monotonic wall-clock timer and deadline used to implement the paper's
/// per-instance verification timeout (§6.1 uses one hour; our benches scale
/// this down).
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_SUPPORT_TIMER_H
#define ANTIDOTE_SUPPORT_TIMER_H

#include <chrono>

namespace antidote {

/// Measures elapsed wall-clock time from construction (or last reset).
class Timer {
public:
  Timer() : Start(Clock::now()) {}

  void reset() { Start = Clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

/// A wall-clock budget; `expired()` is polled by long-running verifier
/// loops. A non-positive budget means "no deadline".
class Deadline {
public:
  explicit Deadline(double BudgetSeconds) : Budget(BudgetSeconds) {}

  bool hasBudget() const { return Budget > 0.0; }

  bool expired() const {
    return hasBudget() && Elapsed.seconds() >= Budget;
  }

private:
  double Budget;
  Timer Elapsed;
};

} // namespace antidote

#endif // ANTIDOTE_SUPPORT_TIMER_H
