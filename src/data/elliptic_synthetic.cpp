#include "data/elliptic_synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <future>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "util/error.hpp"

namespace qkmps::data {

namespace {

/// Nonlinear latent score of one row z of k latents: pairwise interactions
/// plus smooth warps so a linear separator on the raw features is
/// insufficient, but a good kernel can recover the boundary.
double latent_score(const double* z, idx k) {
  double s = 0.0;
  for (idx i = 0; i + 1 < k; i += 2) s += z[i] * z[i + 1] * 0.8;
  for (idx i = 0; i < k; ++i) s += 0.4 * std::sin(1.7 * z[i]);
  if (k >= 3) s += 0.5 * (z[2] * z[2] - 1.0);
  return s;
}

/// How feature column j is drawn from a latent row: its nonzero mixing
/// weights as (latent index, weight) in latent order, and the column's
/// signal and noise scales.
struct Column {
  std::vector<std::pair<idx, double>> terms;
  double snr = 0.0;
  double noise = 0.0;
};

}  // namespace

Dataset generate_elliptic_synthetic(const EllipticSyntheticParams& params) {
  QKMPS_CHECK(params.num_points >= 2);
  QKMPS_CHECK(params.num_features >= 1);
  QKMPS_CHECK(params.latent_dim >= 2);
  QKMPS_CHECK(params.positive_fraction > 0.0 && params.positive_fraction < 1.0);

  Rng rng(params.seed);
  const idx n = params.num_points;
  const idx m = params.num_features;
  const idx kd = params.latent_dim;

  // Fixed random mixing map latent -> features; feature j mixes a couple of
  // latent factors with a signal weight that decays with j, drowned in an
  // increasing share of noise. Deterministic given the seed.
  std::vector<Column> columns(static_cast<std::size_t>(m));
  Rng map_rng = rng.split();
  for (idx j = 0; j < m; ++j) {
    std::vector<double> w(static_cast<std::size_t>(kd), 0.0);
    // Two to three latent contributors per feature.
    const idx contributors = 2 + static_cast<idx>(map_rng.uniform_int(2));
    for (idx t = 0; t < contributors; ++t) {
      const auto which = static_cast<std::size_t>(map_rng.uniform_int(
          static_cast<std::uint64_t>(kd)));
      w[which] += map_rng.normal(0.0, 1.0);
    }
    Column& c = columns[static_cast<std::size_t>(j)];
    for (idx t = 0; t < kd; ++t)
      if (w[static_cast<std::size_t>(t)] != 0.0)
        c.terms.emplace_back(t, w[static_cast<std::size_t>(t)]);
    // Informativeness decays with feature index; noise grows mildly.
    c.snr = 1.0 / (1.0 + static_cast<double>(j) / params.signal_decay);
    c.noise = params.noise_level *
              (1.0 + 0.5 * static_cast<double>(j) / static_cast<double>(m));
  }

  // Both passes draw from `rng` in row order: kd normals per row for the
  // latents, then m per row for the features. A walk over that stream
  // keeps its state at the start of every block of both passes, so each
  // block can draw on its own lane and still get the variates a serial
  // loop would.
  const auto blocks = static_cast<std::size_t>(
      (n + kEllipticBlockRows - 1) / kEllipticBlockRows);
  const auto first_row = [](std::size_t b) {
    return static_cast<idx>(b) * kEllipticBlockRows;
  };
  const auto end_row = [n](std::size_t b) {
    return std::min(n, static_cast<idx>(b + 1) * kEllipticBlockRows);
  };
  const auto draws = [&](std::size_t b, idx per_row) {
    return static_cast<std::uint64_t>((end_row(b) - first_row(b)) * per_row);
  };
  std::vector<Rng> latent_start, feature_start;
  latent_start.reserve(blocks);
  feature_start.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    latent_start.push_back(rng);
    rng.discard_normals(draws(b, kd));
  }
  // The feature pass's walk is m / kd times longer. It needs only the
  // stream, not the latents, so it runs beside the latent pass.
  const auto walk_features = [&] {
    for (std::size_t b = 0; b < blocks; ++b) {
      feature_start.push_back(rng);
      if (b + 1 < blocks) rng.discard_normals(draws(b, m));
    }
  };

  // One lane per hardware thread, at most one per block. A single lane
  // starts no thread: the calling thread walks and draws in order.
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t lanes = std::min<std::size_t>(blocks, hw == 0 ? 2 : hw);
  std::optional<parallel::ThreadPool> pool;
  if (lanes > 1) pool.emplace(lanes);
  const auto for_each_block =
      [&](const std::function<void(std::size_t)>& body) {
        if (pool) {
          pool->parallel_for(blocks, body);
        } else {
          for (std::size_t b = 0; b < blocks; ++b) body(b);
        }
      };

  // First pass: draw the latents and their scores, while one lane walks
  // the feature stream. Everything the lanes write is allocated here but
  // not touched, so the lanes fault its pages in and never allocate.
  kernel::RealMatrix latents = kernel::RealMatrix::for_overwrite(n, kd);
  std::vector<double> scores(static_cast<std::size_t>(n));
  std::future<void> walked;
  if (pool) {
    walked = pool->submit(walk_features);
  } else {
    walk_features();
  }
  for_each_block([&](std::size_t b) {
    Rng lane_rng = latent_start[b];
    for (idx i = first_row(b); i < end_row(b); ++i) {
      double* z = latents.row(i);
      for (idx t = 0; t < kd; ++t) z[t] = lane_rng.normal();
      scores[static_cast<std::size_t>(i)] = latent_score(z, kd);
    }
  });
  if (walked.valid()) walked.get();

  // The label threshold giving the requested positive fraction: the score
  // that sorting would put at index `cut`.
  std::vector<double> ranked = scores;
  const auto cut = std::min(
      static_cast<std::size_t>(std::floor((1.0 - params.positive_fraction) *
                                          static_cast<double>(n))),
      ranked.size() - 1);
  std::nth_element(ranked.begin(),
                   ranked.begin() + static_cast<std::ptrdiff_t>(cut),
                   ranked.end());
  const double threshold = ranked[cut];

  Dataset out;
  out.x = kernel::RealMatrix::for_overwrite(n, m);
  out.y.resize(static_cast<std::size_t>(n));

  for_each_block([&](std::size_t b) {
    Rng lane_rng = feature_start[b];
    for (idx i = first_row(b); i < end_row(b); ++i) {
      const double* z = latents.row(i);
      out.y[static_cast<std::size_t>(i)] =
          scores[static_cast<std::size_t>(i)] > threshold ? 1 : -1;
      double* x = out.x.row(i);
      for (const Column& c : columns) {
        // The sum skips the exactly-zero weights, and that changes no
        // bit. `signal` starts at +0.0 and never becomes -0.0: a sum is
        // -0.0 only when both addends are. A zero weight's term is +0.0
        // or -0.0 (z is finite), and adding either to any value but
        // -0.0 returns that value.
        double signal = 0.0;
        for (const auto& [t, weight] : c.terms) signal += weight * z[t];
        double v = c.snr * signal + c.noise * lane_rng.normal();
        // Mild monotone warp for realism (heavy-ish tails like transaction
        // aggregates); preserves information content.
        v = std::tanh(0.6 * v) + 0.15 * v;
        *x++ = v;
      }
    }
  });
  return out;
}

}  // namespace qkmps::data
