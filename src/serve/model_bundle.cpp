#include "serve/model_bundle.hpp"

#include <cmath>
#include <cstdint>
#include <filesystem>

#include "mps/serialization.hpp"
#include "util/binary_io.hpp"
#include "util/error.hpp"

namespace qkmps::serve {

namespace {

constexpr std::uint32_t kBundleMagic = 0x51'4B'42'4C;  // "QKBL"
constexpr std::uint32_t kBundleVersion = 1;

std::string manifest_path(const std::string& dir) { return dir + "/bundle.qkb"; }

std::string state_path(const std::string& dir, std::size_t i) {
  return dir + "/sv_" + std::to_string(i) + ".mps";
}

}  // namespace

ModelBundle make_bundle(const kernel::QuantumKernelConfig& config,
                        const data::FeatureScaler& scaler,
                        const svm::SvcModel& model,
                        const std::vector<mps::Mps>& train_states) {
  QKMPS_CHECK(scaler.num_features() == config.ansatz.num_features);
  ModelBundle bundle;
  bundle.config = config;
  bundle.scaler = scaler;
  const svm::CompactSvc compact =
      svm::compact_support_vectors(model, train_states, &bundle.sv_states);
  bundle.model = std::move(compact.model);
  bundle.sv_indices = std::move(compact.sv_indices);
  for (const mps::Mps& psi : bundle.sv_states)
    QKMPS_CHECK(psi.num_sites() == config.ansatz.num_features);
  return bundle;
}

void save_bundle(const ModelBundle& bundle, const std::string& dir) {
  const auto n_sv = bundle.sv_states.size();
  QKMPS_CHECK(bundle.model.alpha.size() == n_sv &&
              bundle.model.y.size() == n_sv && bundle.sv_indices.size() == n_sv);
  // The directory IS the artifact; it gets replaced wholesale — but
  // refuse up front to clobber a directory that is neither a bundle nor
  // empty, before any staging I/O happens.
  if (std::filesystem::exists(dir))
    QKMPS_CHECK_MSG(std::filesystem::exists(manifest_path(dir)) ||
                        std::filesystem::is_empty(dir),
                    "refusing to replace non-bundle directory " << dir);

  // Stage into a sibling temp directory and swap it in. A save that dies
  // partway leaves a stale .tmp or (in the tiny window between removal
  // and rename) no bundle at all — both loudly detectable — and never a
  // manifest paired with mismatched state files.
  const std::string tmp = dir + ".tmp";
  std::filesystem::remove_all(tmp);
  std::filesystem::create_directories(tmp);
  for (std::size_t i = 0; i < n_sv; ++i)
    mps::save_mps(bundle.sv_states[i], state_path(tmp, i));

  io::Writer w;
  w.pod(kBundleMagic);
  w.pod(kBundleVersion);

  // Feature-map ansatz + simulator configuration.
  const circuit::AnsatzParams& a = bundle.config.ansatz;
  w.pod(static_cast<std::int64_t>(a.num_features));
  w.pod(static_cast<std::int64_t>(a.layers));
  w.pod(static_cast<std::int64_t>(a.distance));
  w.pod(a.gamma);
  const mps::SimulatorConfig& sim = bundle.config.sim;
  w.pod(static_cast<std::int32_t>(sim.policy));
  w.pod(sim.truncation.max_discarded_weight);
  w.pod(static_cast<std::int64_t>(sim.truncation.max_bond));

  // Fitted scaler statistics.
  w.pod(bundle.scaler.lo());
  w.pod(bundle.scaler.hi());
  w.vec(bundle.scaler.mean());
  w.vec(bundle.scaler.stddev());
  w.vec(bundle.scaler.min_z());
  w.vec(bundle.scaler.max_z());

  // Compacted SVC.
  w.vec(bundle.model.alpha);
  std::vector<std::int32_t> y32(bundle.model.y.begin(), bundle.model.y.end());
  w.vec(y32);
  w.pod(bundle.model.bias);
  w.pod(static_cast<std::int64_t>(bundle.model.iterations));
  w.pod(static_cast<std::uint8_t>(bundle.model.converged ? 1 : 0));
  std::vector<std::int64_t> sv64(bundle.sv_indices.begin(),
                                 bundle.sv_indices.end());
  w.vec(sv64);

  w.pod(static_cast<std::int64_t>(n_sv));
  io::write_file(manifest_path(tmp), w.take());

  std::filesystem::remove_all(dir);
  std::filesystem::rename(tmp, dir);
}

ModelBundle load_bundle(const std::string& dir) {
  const std::vector<std::uint8_t> bytes = io::read_file(manifest_path(dir));
  io::Reader r(bytes);
  QKMPS_CHECK_MSG(r.pod<std::uint32_t>() == kBundleMagic,
                  "not a model bundle manifest");
  QKMPS_CHECK_MSG(r.pod<std::uint32_t>() == kBundleVersion,
                  "unsupported bundle version");

  ModelBundle bundle;
  circuit::AnsatzParams& a = bundle.config.ansatz;
  a.num_features = static_cast<idx>(r.pod<std::int64_t>());
  a.layers = static_cast<idx>(r.pod<std::int64_t>());
  a.distance = static_cast<idx>(r.pod<std::int64_t>());
  a.gamma = r.pod<double>();
  QKMPS_CHECK(a.num_features >= 1 && a.layers >= 1 && a.distance >= 1);
  QKMPS_CHECK_MSG(std::isfinite(a.gamma), "corrupt gamma in manifest");

  const auto policy = r.pod<std::int32_t>();
  QKMPS_CHECK_MSG(policy == 0 || policy == 1, "unknown execution policy");
  bundle.config.sim.policy = static_cast<linalg::ExecPolicy>(policy);
  bundle.config.sim.truncation.max_discarded_weight = r.pod<double>();
  QKMPS_CHECK_MSG(
      std::isfinite(bundle.config.sim.truncation.max_discarded_weight) &&
          bundle.config.sim.truncation.max_discarded_weight >= 0.0,
      "corrupt truncation budget in manifest");
  bundle.config.sim.truncation.max_bond =
      static_cast<idx>(r.pod<std::int64_t>());
  QKMPS_CHECK_MSG(bundle.config.sim.truncation.max_bond >= 0,
                  "corrupt bond cap in manifest");

  const double lo = r.pod<double>();
  const double hi = r.pod<double>();
  auto mean = r.vec<double>();
  auto stddev = r.vec<double>();
  auto min_z = r.vec<double>();
  auto max_z = r.vec<double>();
  bundle.scaler =
      data::FeatureScaler::restore(std::move(mean), std::move(stddev),
                                   std::move(min_z), std::move(max_z), lo, hi);
  QKMPS_CHECK_MSG(bundle.scaler.num_features() == a.num_features,
                  "scaler/ansatz feature-count mismatch");

  bundle.model.alpha = r.vec<double>();
  const auto y32 = r.vec<std::int32_t>();
  bundle.model.y.assign(y32.begin(), y32.end());
  bundle.model.bias = r.pod<double>();
  QKMPS_CHECK_MSG(std::isfinite(bundle.model.bias), "corrupt bias in manifest");
  bundle.model.iterations = r.pod<std::int64_t>();
  bundle.model.converged = r.pod<std::uint8_t>() != 0;
  const auto sv64 = r.vec<std::int64_t>();
  bundle.sv_indices.assign(sv64.begin(), sv64.end());

  const auto n_sv = r.pod<std::int64_t>();
  r.expect_end("the bundle manifest");
  QKMPS_CHECK_MSG(n_sv >= 0 &&
                      bundle.model.alpha.size() ==
                          static_cast<std::size_t>(n_sv) &&
                      bundle.model.y.size() == static_cast<std::size_t>(n_sv) &&
                      bundle.sv_indices.size() == static_cast<std::size_t>(n_sv),
                  "inconsistent support-vector counts in manifest");
  for (int label : bundle.model.y)
    QKMPS_CHECK_MSG(label == 1 || label == -1, "corrupt label in manifest");
  // A compacted model has strictly positive, finite dual coefficients by
  // construction (compact_support_vectors drops zero-alpha entries).
  for (double a : bundle.model.alpha)
    QKMPS_CHECK_MSG(std::isfinite(a) && a > 0.0,
                    "corrupt dual coefficient in manifest");
  for (std::size_t s = 0; s < bundle.sv_indices.size(); ++s)
    QKMPS_CHECK_MSG(bundle.sv_indices[s] >= 0 &&
                        (s == 0 || bundle.sv_indices[s] > bundle.sv_indices[s - 1]),
                    "corrupt support-vector index map in manifest");

  bundle.sv_states.reserve(static_cast<std::size_t>(n_sv));
  for (std::size_t i = 0; i < static_cast<std::size_t>(n_sv); ++i) {
    bundle.sv_states.push_back(mps::load_mps(state_path(dir, i)));
    QKMPS_CHECK_MSG(bundle.sv_states.back().num_sites() == a.num_features,
                    "support-vector state " << i << " has wrong qubit count");
  }
  return bundle;
}

}  // namespace qkmps::serve
