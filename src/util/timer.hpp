#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

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

/// Accumulates named wall-clock phases; used by the bench harness to report
/// the simulation / inner-product / communication breakdown of Fig. 8.
class PhaseTimer {
 public:
  /// Adds `seconds` to the named phase.
  void add(const std::string& phase, double seconds);

  /// Total accumulated seconds for a phase (0 if never recorded).
  double total(const std::string& phase) const;

  /// All phases with their accumulated totals.
  const std::map<std::string, double>& phases() const { return phases_; }

  void clear() { phases_.clear(); }

  /// Merge another timer's totals into this one (e.g. per-rank timers into
  /// a global breakdown).
  void merge(const PhaseTimer& other);

 private:
  std::map<std::string, double> phases_;
};

}  // namespace qkmps
