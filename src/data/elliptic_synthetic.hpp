#pragma once

#include "data/dataset.hpp"
#include "util/rng.hpp"

namespace qkmps::data {

/// Parameters of the synthetic Elliptic-like generator. The real Elliptic
/// Bitcoin data set (Kaggle) is not redistributable, so we substitute a
/// generator engineered to reproduce the three properties the paper's ML
/// claims rest on (see DESIGN.md substitutions):
///   1. 165 features whose per-feature class signal *decays* with feature
///      index (so adding features keeps helping, with diminishing returns
///      — the Figs. 9-10 trend).
///   2. Heavy class imbalance (~4.5k illicit vs ~42k licit), so balanced
///      down-selection from a large pool mirrors the paper's pipeline.
///   3. A nonlinear class boundary generated by latent interactions, so a
///      kernel actually matters.
struct EllipticSyntheticParams {
  idx num_points = 46'564;   ///< paper pool: 4,545 + 42,019
  idx num_features = 165;
  double positive_fraction = 4'545.0 / 46'564.0;
  idx latent_dim = 12;        ///< latent factors driving the class label
  double noise_level = 0.6;   ///< feature noise floor
  double signal_decay = 24.0; ///< feature j carries signal ~ 1/(1 + j/decay)
  std::uint64_t seed = 20240411;
};

/// Rows per block of work. Both passes of the generator (latents and
/// scores, then features) run over fixed blocks of this many rows on a
/// parallel::ThreadPool with one lane per hardware thread; the walk that
/// finds the feature blocks' stream states runs as one more pool task
/// during the latent pass. The blocks split only the work: every block
/// starts from the exact stream state a serial draw would reach there, so
/// the output is bitwise-identical at any lane count. Each lane is the
/// first to touch the rows it writes.
inline constexpr idx kEllipticBlockRows = 256;

/// Draws the full synthetic pool. Feature columns are ordered by
/// decreasing informativeness; labels are +1 (illicit) / -1 (licit).
Dataset generate_elliptic_synthetic(const EllipticSyntheticParams& params);

}  // namespace qkmps::data
