#pragma once

/// Shared plumbing for the experiment harness. Every bench binary
/// regenerates one table or figure of the paper (see DESIGN.md section 7).
///
/// Scaling: benches default to CI-scale parameters so the full suite runs
/// on a laptop-class 2-core box; set QKMPS_FULL=1 to run the paper-scale
/// sweeps (Perlmutter-sized, hours of wall clock). Individual knobs can be
/// overridden with QKMPS_* environment variables documented per bench.

#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "data/elliptic_synthetic.hpp"
#include "data/preprocess.hpp"
#include "data/splits.hpp"
#include "kernel/kernel_matrix.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"
#include "util/stats.hpp"

namespace qkmps::bench {

/// Draws `n` rows of the synthetic Elliptic pool restricted to `m`
/// features, scaled to the ansatz domain (0, 2). Deterministic per seed.
inline kernel::RealMatrix scaled_features(idx n, idx m, std::uint64_t seed) {
  data::EllipticSyntheticParams gen;
  gen.num_points = std::max<idx>(4 * n, 400);
  gen.num_features = m;
  gen.seed = 20240411;  // pool fixed; row choice varies with `seed`
  const data::Dataset pool = data::generate_elliptic_synthetic(gen);
  Rng rng(seed);
  std::vector<idx> rows;
  rows.reserve(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i)
    rows.push_back(static_cast<idx>(rng.uniform_int(
        static_cast<std::uint64_t>(pool.size()))));
  const data::Dataset sample = pool.select(rows);
  const data::FeatureScaler scaler = data::FeatureScaler::fit(sample.x);
  return scaler.transform(sample.x);
}

/// Balanced labelled sample (train/test split applied downstream).
struct LabelledSample {
  kernel::RealMatrix x_train, x_test;
  std::vector<int> y_train, y_test;
};

inline LabelledSample labelled_sample(idx per_class, idx features,
                                      std::uint64_t seed) {
  data::EllipticSyntheticParams gen;
  // ~10% of the pool is positive, so 24x per_class keeps a 2.3x
  // headroom of positives for balanced subsampling.
  gen.num_points = std::max<idx>(24 * per_class, 2000);
  gen.num_features = features;
  const data::Dataset pool = data::generate_elliptic_synthetic(gen);
  Rng rng(seed);
  const data::Dataset sample = data::balanced_subsample(pool, per_class, rng);
  const data::TrainTestSplit split = data::train_test_split(sample, 0.2, rng);
  const data::FeatureScaler scaler = data::FeatureScaler::fit(split.train.x);
  LabelledSample out;
  out.x_train = scaler.transform(split.train.x);
  out.x_test = scaler.transform(split.test.x);
  out.y_train = split.train.y;
  out.y_test = split.test.y;
  return out;
}

/// The commit the bench binary was built from; baked in by
/// bench/CMakeLists.txt ("unknown" outside a git checkout).
#ifndef QKMPS_GIT_COMMIT
#define QKMPS_GIT_COMMIT "unknown"
#endif

/// Provenance block every artifact carries: which build produced it,
/// when, and under what run configuration — so a historical artifact in
/// bench/history/ is attributable long after the run. Informational
/// only: compare_bench.py skips the subtree, and trend_bench.py uses it
/// to label trend rows.
inline void write_provenance(JsonWriter& w) {
  w.begin_object("provenance");
  w.field("commit", QKMPS_GIT_COMMIT);
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char stamp[32];
  std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
  w.field("generated_utc", stamp);
  w.begin_object("config");
  w.field("full_scale", full_scale_requested());
  w.field("hardware_threads",
          static_cast<long long>(std::thread::hardware_concurrency()));
#ifdef NDEBUG
  w.field("assertions", false);
#else
  w.field("assertions", true);
#endif
  w.end_object();
  w.end_object();
}

/// Writes a JSON artifact next to the binary (mirrors the paper's raw/
/// folder convention). Every artifact opens with the provenance block.
/// Failures are non-fatal: the printed table is the primary output.
inline void write_artifact(const std::string& name,
                           const std::function<void(JsonWriter&)>& fill) {
  std::ofstream os(name);
  if (!os.good()) return;
  JsonWriter w(os);
  w.begin_object();
  write_provenance(w);
  fill(w);
  w.end_object();
  os << "\n";
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%s\n", full_scale_requested()
                          ? "[scale: FULL (paper parameters)]"
                          : "[scale: CI default; set QKMPS_FULL=1 for paper scale]");
}

}  // namespace qkmps::bench
