#include "util/rng.hpp"

#include <cmath>

namespace qkmps {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Seed the four xoshiro words from splitmix64 as recommended by the
  // generator's authors; guarantees a non-zero state.
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 top bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * kPi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

void Rng::discard_normals(std::uint64_t count) {
  if (count == 0) return;
  if (has_cached_normal_) {
    has_cached_normal_ = false;  // the first call returns the cached variate
    --count;
  }
  // Each whole pair replays what normal() draws for it: u1 until it is
  // nonzero, then u2. uniform() is zero exactly when the top 53 bits of
  // next() are.
  for (std::uint64_t pair = 0; pair < count / 2; ++pair) {
    std::uint64_t u1 = next();
    while ((u1 >> 11) == 0) u1 = next();
    next();
  }
  // A pair that `count` splits is drawn for real, so the variate left
  // cached is the one normal() would have left.
  if (count % 2 == 1) normal();
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  if (n == 0) return 0;
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~0ull - (~0ull % n);
  std::uint64_t x = next();
  while (x >= limit) x = next();
  return x % n;
}

cplx Rng::normal_cplx() {
  const double re = normal();
  const double im = normal();
  return {re, im};
}

Rng Rng::split() { return Rng(next() ^ 0xA5A5A5A55A5A5A5Aull); }

}  // namespace qkmps
