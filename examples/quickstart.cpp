/// Quickstart: the whole quantum-kernel workflow in ~60 lines.
///
///   data -> rescale to (0,2) -> MPS-simulated feature map |psi(x)>
///        -> Gram matrix K_ij = |<psi(x_i)|psi(x_j)>|^2 -> SVM -> metrics.
///
/// Build and run:
///   cmake -B build -G Ninja && cmake --build build
///   ./build/examples/quickstart

#include <cstdio>

#include "qkmps.hpp"

using namespace qkmps;

int main() {
  // 1. Data: a balanced sample from the synthetic Elliptic-like pool.
  data::EllipticSyntheticParams gen;
  gen.num_points = 2000;
  gen.num_features = 10;
  const data::Dataset pool = data::generate_elliptic_synthetic(gen);

  Rng rng(42);
  const data::Dataset sample = data::balanced_subsample(pool, 100, rng);
  const data::TrainTestSplit split = data::train_test_split(sample, 0.2, rng);
  std::printf("train: %lld points, test: %lld points, %lld features\n",
              static_cast<long long>(split.train.size()),
              static_cast<long long>(split.test.size()),
              static_cast<long long>(split.train.num_features()));

  // 2. Rescale features into the ansatz domain (0, 2) using train statistics.
  const data::FeatureScaler scaler = data::FeatureScaler::fit(split.train.x);
  const auto x_train = scaler.transform(split.train.x);
  const auto x_test = scaler.transform(split.test.x);

  // 3. Quantum kernel: one MPS simulation per data point, then pairwise
  //    overlaps. One circuit per point — the linear-scaling trick.
  kernel::QuantumKernelConfig cfg;
  cfg.ansatz = {.num_features = 10, .layers = 2, .distance = 1, .gamma = 0.5};
  // gamma is the kernel bandwidth (Sec. II-A); 0.5 suits ~10 features.
  // More features need smaller gamma — see examples/fraud_detection.cpp
  // for a bandwidth sweep.

  kernel::GramStats stats;
  const auto train_states = kernel::simulate_states(cfg, x_train, &stats);
  const auto test_states = kernel::simulate_states(cfg, x_test, &stats);
  const auto k_train = kernel::gram_from_states(train_states, cfg.sim.policy, &stats);
  const auto k_test =
      kernel::cross_from_states(test_states, train_states, cfg.sim.policy, &stats);
  std::printf("simulated %lld circuits, %lld inner products "
              "(avg max bond dimension %.1f)\n",
              static_cast<long long>(stats.circuits_simulated),
              static_cast<long long>(stats.inner_products), stats.avg_max_bond());

  // 4. SVM with a regularization sweep; report the best test-AUC model.
  const auto sweep = svm::sweep_regularization(k_train, split.train.y, k_test,
                                               split.test.y, svm::default_c_grid());
  const auto& best = svm::best_by_test_auc(sweep);
  std::printf("\nbest model: C=%.2f\n", best.c);
  std::printf("  test AUC       %.3f\n", best.test.auc);
  std::printf("  test accuracy  %.3f\n", best.test.accuracy);
  std::printf("  test precision %.3f\n", best.test.precision);
  std::printf("  test recall    %.3f\n", best.test.recall);
  return 0;
}
