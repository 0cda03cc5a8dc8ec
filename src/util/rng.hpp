#pragma once

#include <array>
#include <cstdint>

#include "util/types.hpp"

namespace qkmps {

/// xoshiro256** pseudo-random generator (Blackman & Vigna). Deterministic,
/// seedable, and much faster than std::mt19937_64; every experiment in the
/// bench harness is seeded so results are reproducible run-to-run.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  std::uint64_t next();

  /// UniformBits for use with std:: distributions.
  result_type operator()() { return next(); }
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Standard normal via Box-Muller (cached second variate).
  double normal();
  /// Advances the stream exactly as `count` calls to normal() would,
  /// cached variate included, without computing the variates it passes.
  void discard_normals(std::uint64_t count);
  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);
  /// Uniform integer in [0, n).
  std::uint64_t uniform_int(std::uint64_t n);
  /// Complex number with iid standard-normal real and imaginary parts.
  cplx normal_cplx();

  /// Split off an independently-seeded child stream; used to hand each
  /// parallel rank its own generator without sharing state.
  Rng split();

 private:
  std::array<std::uint64_t, 4> state_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace qkmps
