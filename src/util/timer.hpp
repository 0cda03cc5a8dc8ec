#pragma once

#include <chrono>

namespace qkmps {

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() { reset(); }

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Per-thread CPU-time stopwatch. Unlike Timer it does not advance while
/// the calling thread is descheduled, so per-rank compute phases measured
/// with it stay meaningful when more ranks than cores timeshare a machine
/// (the situation of the thread-backed rank runtime; see
/// kernel/distributed_gram.cpp).
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() { reset(); }
  void reset();
  /// CPU seconds consumed by this thread since construction/reset.
  double seconds() const;

 private:
  double start_ = 0.0;
};

}  // namespace qkmps
