#include "data/elliptic_synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "util/error.hpp"

namespace qkmps::data {

namespace {

/// Nonlinear latent score: pairwise interactions plus smooth warps so a
/// linear separator on the raw features is insufficient, but a good kernel
/// can recover the boundary.
double latent_score(const std::vector<double>& z) {
  const std::size_t k = z.size();
  double s = 0.0;
  for (std::size_t i = 0; i + 1 < k; i += 2) s += z[i] * z[i + 1] * 0.8;
  for (std::size_t i = 0; i < k; ++i) s += 0.4 * std::sin(1.7 * z[i]);
  if (k >= 3) s += 0.5 * (z[2] * z[2] - 1.0);
  return s;
}

/// Advances `rng` exactly as `count` calls to `rng.normal()` would.
/// `pending` says whether `rng` holds the cached second variate of a
/// Box-Muller pair, and is updated on return. A whole pair replays only
/// what `Rng::normal()` (src/util/rng.cpp) draws for it: two uniform()
/// calls, with its retry while u1 <= 0. A pair that `count` splits is
/// drawn by the real normal(), so the variate left cached for the next
/// block is the one a serial draw would have cached.
void skip_normals(Rng& rng, bool& pending, std::size_t count) {
  if (count == 0) return;
  if (pending) {
    rng.normal();  // hands back the cached variate; draws nothing
    pending = false;
    --count;
  }
  for (std::size_t pair = 0; pair < count / 2; ++pair) {
    double u1 = rng.uniform();
    while (u1 <= 0.0) u1 = rng.uniform();
    rng.uniform();
  }
  if (count % 2 == 1) {
    rng.normal();
    pending = true;
  }
}

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
  std::vector<std::vector<double>> mix(static_cast<std::size_t>(m));
  Rng map_rng = rng.split();
  for (idx j = 0; j < m; ++j) {
    auto& w = mix[static_cast<std::size_t>(j)];
    w.assign(static_cast<std::size_t>(kd), 0.0);
    // Two to three latent contributors per feature.
    const idx contributors = 2 + static_cast<idx>(map_rng.uniform_int(2));
    for (idx t = 0; t < contributors; ++t) {
      const auto which = static_cast<std::size_t>(map_rng.uniform_int(
          static_cast<std::uint64_t>(kd)));
      w[which] += map_rng.normal(0.0, 1.0);
    }
  }

  // Both passes draw from `rng` in row order: kd normals per row for the
  // latents, then m per row for the features. One serial walk over that
  // stream keeps its state at the start of every block of both passes,
  // so each block can draw on its own lane and still get the variates a
  // serial loop would. `rng` was just seeded and split, so it holds no
  // cached variate yet.
  const auto blocks = static_cast<std::size_t>(
      (n + kEllipticBlockRows - 1) / kEllipticBlockRows);
  const auto first_row = [](std::size_t b) {
    return static_cast<idx>(b) * kEllipticBlockRows;
  };
  const auto end_row = [n](std::size_t b) {
    return std::min(n, static_cast<idx>(b + 1) * kEllipticBlockRows);
  };
  const auto draws = [&](std::size_t b, idx per_row) {
    return static_cast<std::size_t>((end_row(b) - first_row(b)) * per_row);
  };
  std::vector<Rng> latent_start, feature_start;
  latent_start.reserve(blocks);
  feature_start.reserve(blocks);
  bool pending = false;
  for (std::size_t b = 0; b < blocks; ++b) {
    latent_start.push_back(rng);
    skip_normals(rng, pending, draws(b, kd));
  }
  for (std::size_t b = 0; b < blocks; ++b) {
    feature_start.push_back(rng);
    if (b + 1 < blocks) skip_normals(rng, pending, draws(b, m));
  }

  // One lane per hardware thread, at most one per block. A single lane
  // starts no thread: the calling thread draws the blocks in order.
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

  // First pass: draw latent scores to find the label threshold giving the
  // requested positive fraction. The latent rows are allocated here, so
  // the lanes write into memory and never allocate.
  std::vector<std::vector<double>> latents(static_cast<std::size_t>(n));
  for (auto& z : latents) z.resize(static_cast<std::size_t>(kd));
  std::vector<double> scores(static_cast<std::size_t>(n));
  for_each_block([&](std::size_t b) {
    Rng lane_rng = latent_start[b];
    for (idx i = first_row(b); i < end_row(b); ++i) {
      auto& z = latents[static_cast<std::size_t>(i)];
      for (auto& v : z) v = lane_rng.normal();
      scores[static_cast<std::size_t>(i)] = latent_score(z);
    }
  });
  std::vector<double> sorted = scores;
  std::sort(sorted.begin(), sorted.end());
  const auto cut = static_cast<std::size_t>(
      std::floor((1.0 - params.positive_fraction) * static_cast<double>(n)));
  const double threshold = sorted[std::min(cut, sorted.size() - 1)];

  Dataset out;
  out.x = kernel::RealMatrix(n, m);
  out.y.resize(static_cast<std::size_t>(n));

  for_each_block([&](std::size_t b) {
    Rng lane_rng = feature_start[b];
    for (idx i = first_row(b); i < end_row(b); ++i) {
      const auto& z = latents[static_cast<std::size_t>(i)];
      out.y[static_cast<std::size_t>(i)] =
          scores[static_cast<std::size_t>(i)] > threshold ? 1 : -1;
      for (idx j = 0; j < m; ++j) {
        const auto& w = mix[static_cast<std::size_t>(j)];
        double signal = 0.0;
        for (idx t = 0; t < kd; ++t)
          signal += w[static_cast<std::size_t>(t)] * z[static_cast<std::size_t>(t)];
        // Informativeness decays with feature index; noise grows mildly.
        const double snr = 1.0 / (1.0 + static_cast<double>(j) / params.signal_decay);
        const double noise =
            params.noise_level * (1.0 + 0.5 * static_cast<double>(j) /
                                            static_cast<double>(m));
        double v = snr * signal + noise * lane_rng.normal();
        // Mild monotone warp for realism (heavy-ish tails like transaction
        // aggregates); preserves information content.
        v = std::tanh(0.6 * v) + 0.15 * v;
        out.x(i, j) = v;
      }
    }
  });
  return out;
}

}  // namespace qkmps::data
