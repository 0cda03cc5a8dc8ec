#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "data/elliptic_synthetic.hpp"
#include "data/preprocess.hpp"
#include "data/splits.hpp"
#include "kernel/gaussian.hpp"
#include "svm/model_selection.hpp"
#include "test_helpers.hpp"

namespace qkmps::data {
namespace {

EllipticSyntheticParams small_params(idx n = 2000, idx m = 40) {
  EllipticSyntheticParams p;
  p.num_points = n;
  p.num_features = m;
  return p;
}

double oracle_latent_score(const std::vector<double>& z) {
  const std::size_t k = z.size();
  double s = 0.0;
  for (std::size_t i = 0; i + 1 < k; i += 2) s += z[i] * z[i + 1] * 0.8;
  for (std::size_t i = 0; i < k; ++i) s += 0.4 * std::sin(1.7 * z[i]);
  if (k >= 3) s += 0.5 * (z[2] * z[2] - 1.0);
  return s;
}

/// The generator as one serial loop over one stream: the oracle that the
/// blocked, multi-lane generator must match bit for bit.
Dataset serial_oracle(const EllipticSyntheticParams& params) {
  Rng rng(params.seed);
  const idx n = params.num_points;
  const idx m = params.num_features;
  const idx kd = params.latent_dim;

  std::vector<std::vector<double>> mix(static_cast<std::size_t>(m));
  Rng map_rng = rng.split();
  for (idx j = 0; j < m; ++j) {
    auto& w = mix[static_cast<std::size_t>(j)];
    w.assign(static_cast<std::size_t>(kd), 0.0);
    const idx contributors = 2 + static_cast<idx>(map_rng.uniform_int(2));
    for (idx t = 0; t < contributors; ++t) {
      const auto which = static_cast<std::size_t>(map_rng.uniform_int(
          static_cast<std::uint64_t>(kd)));
      w[which] += map_rng.normal(0.0, 1.0);
    }
  }

  std::vector<std::vector<double>> latents(static_cast<std::size_t>(n));
  std::vector<double> scores(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) {
    auto& z = latents[static_cast<std::size_t>(i)];
    z.resize(static_cast<std::size_t>(kd));
    for (auto& v : z) v = rng.normal();
    scores[static_cast<std::size_t>(i)] = oracle_latent_score(z);
  }
  std::vector<double> sorted = scores;
  std::sort(sorted.begin(), sorted.end());
  const auto cut = static_cast<std::size_t>(
      std::floor((1.0 - params.positive_fraction) * static_cast<double>(n)));
  const double threshold = sorted[std::min(cut, sorted.size() - 1)];

  Dataset out;
  out.x = kernel::RealMatrix(n, m);
  out.y.resize(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) {
    const auto& z = latents[static_cast<std::size_t>(i)];
    out.y[static_cast<std::size_t>(i)] =
        scores[static_cast<std::size_t>(i)] > threshold ? 1 : -1;
    for (idx j = 0; j < m; ++j) {
      const auto& w = mix[static_cast<std::size_t>(j)];
      double signal = 0.0;
      for (idx t = 0; t < kd; ++t)
        signal += w[static_cast<std::size_t>(t)] * z[static_cast<std::size_t>(t)];
      const double snr = 1.0 / (1.0 + static_cast<double>(j) / params.signal_decay);
      const double noise =
          params.noise_level * (1.0 + 0.5 * static_cast<double>(j) /
                                          static_cast<double>(m));
      double v = snr * signal + noise * rng.normal();
      v = std::tanh(0.6 * v) + 0.15 * v;
      out.x(i, j) = v;
    }
  }
  return out;
}

/// Same shape, same labels and the same feature bytes.
bool bitwise_equal(const Dataset& a, const Dataset& b) {
  if (a.size() != b.size() || a.num_features() != b.num_features()) return false;
  const std::size_t bytes = static_cast<std::size_t>(a.size()) *
                            static_cast<std::size_t>(a.num_features()) * sizeof(double);
  return a.y == b.y && std::memcmp(a.x.data(), b.x.data(), bytes) == 0;
}

/// FNV-1a over the feature bytes, then the label bytes.
std::uint64_t digest(const Dataset& d) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto fold = [&h](const void* bytes, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(bytes);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001B3ull;
    }
  };
  fold(d.x.data(), static_cast<std::size_t>(d.size()) *
                       static_cast<std::size_t>(d.num_features()) * sizeof(double));
  fold(d.y.data(), d.y.size() * sizeof(int));
  return h;
}

TEST(EllipticSynthetic, ShapeMatchesParams) {
  const Dataset d = generate_elliptic_synthetic(small_params(500, 20));
  EXPECT_EQ(d.size(), 500);
  EXPECT_EQ(d.num_features(), 20);
}

TEST(EllipticSynthetic, ClassImbalanceMatchesElliptic) {
  const Dataset d = generate_elliptic_synthetic(small_params(5000, 10));
  const double frac = static_cast<double>(d.positives()) / 5000.0;
  // Paper pool: 4545/46564 ~ 9.76% illicit.
  EXPECT_NEAR(frac, 4545.0 / 46564.0, 0.02);
}

TEST(EllipticSynthetic, DeterministicForFixedSeed) {
  const Dataset a = generate_elliptic_synthetic(small_params(200, 8));
  const Dataset b = generate_elliptic_synthetic(small_params(200, 8));
  EXPECT_TRUE(bitwise_equal(a, b));
}

TEST(EllipticSynthetic, DefaultPoolBitsArePinned) {
  // The paper-shaped pool (46,564 x 165) that perfbench and the benches
  // draw from: many row blocks, so it runs on every lane the host has.
  const Dataset pool = generate_elliptic_synthetic(EllipticSyntheticParams{});
  ASSERT_EQ(pool.size(), 46'564);
  ASSERT_EQ(pool.num_features(), 165);
  EXPECT_EQ(digest(pool), 0xAD6B5A16D5DE4616ull);
}

TEST(EllipticSynthetic, BlockedDrawMatchesSerialOracle) {
  // Row counts around the block size and across several blocks. An odd
  // row count with an odd latent_dim ends the latent pass inside a
  // Box-Muller pair, so every feature block then starts mid-pair. At
  // latent_dim 12, the default, most mixing weights are zero.
  const idx b = kEllipticBlockRows;
  for (const idx n : {idx{2}, b - 1, b, b + 1, 4 * b + 37})
    for (const idx m : {idx{1}, idx{8}, idx{165}})
      for (const idx kd : {idx{2}, idx{3}, idx{5}, idx{12}}) {
        EllipticSyntheticParams p = small_params(n, m);
        p.latent_dim = kd;
        EXPECT_TRUE(bitwise_equal(generate_elliptic_synthetic(p), serial_oracle(p)))
            << "n=" << n << " m=" << m << " latent_dim=" << kd;
      }
}

TEST(EllipticSynthetic, SeedChangesData) {
  EllipticSyntheticParams p = small_params(200, 8);
  const Dataset a = generate_elliptic_synthetic(p);
  p.seed += 1;
  const Dataset b = generate_elliptic_synthetic(p);
  EXPECT_NE(a.x(0, 0), b.x(0, 0));
}

TEST(EllipticSynthetic, EarlyFeaturesCarryMoreSignal) {
  // Property behind the Figs. 9-10 trend: |corr(feature_j, label)| decays
  // in j on average. Compare mean |corr| of the first vs last quartile.
  const Dataset d = generate_elliptic_synthetic(small_params(4000, 40));
  const idx n = d.size(), m = d.num_features();
  std::vector<double> corr(static_cast<std::size_t>(m), 0.0);
  for (idx j = 0; j < m; ++j) {
    double mx = 0.0, my = 0.0;
    for (idx i = 0; i < n; ++i) {
      mx += d.x(i, j);
      my += d.y[static_cast<std::size_t>(i)];
    }
    mx /= static_cast<double>(n);
    my /= static_cast<double>(n);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (idx i = 0; i < n; ++i) {
      const double dx = d.x(i, j) - mx;
      const double dy = static_cast<double>(d.y[static_cast<std::size_t>(i)]) - my;
      sxy += dx * dy;
      sxx += dx * dx;
      syy += dy * dy;
    }
    corr[static_cast<std::size_t>(j)] = std::abs(sxy / std::sqrt(sxx * syy));
  }
  double head = 0.0, tail = 0.0;
  for (idx j = 0; j < 10; ++j) head += corr[static_cast<std::size_t>(j)];
  for (idx j = 30; j < 40; ++j) tail += corr[static_cast<std::size_t>(j)];
  EXPECT_GT(head, tail);
}

TEST(EllipticSynthetic, SignalIsLearnable) {
  // End-to-end sanity: a Gaussian-kernel SVM on a balanced subsample must
  // beat chance clearly (the generator must not be pure noise).
  const Dataset pool = generate_elliptic_synthetic(small_params(4000, 30));
  Rng rng(99);
  const Dataset sample = balanced_subsample(pool, 100, rng);
  const TrainTestSplit split = train_test_split(sample, 0.2, rng);

  const FeatureScaler scaler = FeatureScaler::fit(split.train.x);
  const auto xtr = scaler.transform(split.train.x);
  const auto xte = scaler.transform(split.test.x);
  const double alpha = kernel::gaussian_alpha(xtr);
  const auto pts = svm::sweep_regularization(
      kernel::gaussian_gram(xtr, alpha), split.train.y,
      kernel::gaussian_cross(xte, xtr, alpha), split.test.y,
      svm::default_c_grid());
  EXPECT_GT(svm::best_by_test_auc(pts).test.auc, 0.7);
}

TEST(EllipticSynthetic, RejectsDegenerateParams) {
  EllipticSyntheticParams p;
  p.num_points = 1;
  EXPECT_THROW(generate_elliptic_synthetic(p), Error);
  p = EllipticSyntheticParams{};
  p.positive_fraction = 0.0;
  EXPECT_THROW(generate_elliptic_synthetic(p), Error);
}

}  // namespace
}  // namespace qkmps::data
