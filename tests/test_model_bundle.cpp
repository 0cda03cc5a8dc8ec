#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>

#include "kernel/gram.hpp"
#include "mps/serialization.hpp"
#include "serve/model_bundle.hpp"
#include "serve_test_fixture.hpp"
#include "svm/svm.hpp"
#include "test_helpers.hpp"
#include "util/binary_io.hpp"

namespace qkmps::serve {
namespace {

using qkmps::testing::TrainedServing;
using qkmps::testing::train_small_serving;

/// A bundle of exactly representable values, so its manifest depends on
/// the format alone and not on training or floating-point contraction.
ModelBundle hand_built_bundle() {
  ModelBundle b;
  b.config.ansatz = {.num_features = 3, .layers = 2, .distance = 1,
                     .gamma = 0.75};
  b.config.sim.policy = linalg::ExecPolicy::Accelerated;
  b.config.sim.truncation.max_discarded_weight = 0.0078125;
  b.config.sim.truncation.max_bond = 8;
  b.scaler = data::FeatureScaler::restore({0.5, 1.0, -2.0}, {1.0, 2.0, 0.25},
                                          {-1.0, -2.0, -3.0}, {1.0, 2.0, 3.0},
                                          0.0, 2.0);
  b.model.alpha = {0.25, 1.5};
  b.model.y = {1, -1};
  b.model.bias = -0.125;
  b.model.iterations = 42;
  b.model.converged = true;
  b.sv_indices = {1, 4};
  b.sv_states = {mps::Mps(3), mps::Mps(3)};
  return b;
}

class ModelBundleTest : public ::testing::Test {
 protected:
  std::string dir_ = ::testing::TempDir() + "/qkmps_bundle_test";
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(dir_ + ".tmp");
  }
};

TEST_F(ModelBundleTest, MakeBundleKeepsOnlySupportVectors) {
  const TrainedServing t = train_small_serving(1);
  const ModelBundle& bundle = t.bundle;
  ASSERT_GT(bundle.num_support_vectors(), 0);
  EXPECT_EQ(bundle.num_support_vectors(), t.full_model.support_vector_count());
  EXPECT_EQ(bundle.sv_states.size(), bundle.model.alpha.size());
  EXPECT_EQ(bundle.sv_indices.size(), bundle.model.alpha.size());
  for (double a : bundle.model.alpha) EXPECT_GT(a, 0.0);
  // The kept states are the training states at the SV indices, unchanged.
  for (std::size_t s = 0; s < bundle.sv_states.size(); ++s) {
    const auto& orig =
        t.train_states[static_cast<std::size_t>(bundle.sv_indices[s])];
    EXPECT_EQ(bundle.sv_states[s].to_statevector(), orig.to_statevector());
  }
}

TEST_F(ModelBundleTest, SaveLoadRoundTripIsBitwise) {
  const TrainedServing t = train_small_serving(2);
  const ModelBundle& bundle = t.bundle;
  save_bundle(bundle, dir_);
  const ModelBundle back = load_bundle(dir_);

  EXPECT_EQ(back.config.ansatz.num_features, bundle.config.ansatz.num_features);
  EXPECT_EQ(back.config.ansatz.layers, bundle.config.ansatz.layers);
  EXPECT_EQ(back.config.ansatz.distance, bundle.config.ansatz.distance);
  EXPECT_EQ(back.config.ansatz.gamma, bundle.config.ansatz.gamma);
  EXPECT_EQ(back.config.sim.policy, bundle.config.sim.policy);
  EXPECT_EQ(back.config.sim.truncation.max_discarded_weight,
            bundle.config.sim.truncation.max_discarded_weight);
  EXPECT_EQ(back.config.sim.truncation.max_bond,
            bundle.config.sim.truncation.max_bond);

  EXPECT_EQ(back.scaler.mean(), bundle.scaler.mean());
  EXPECT_EQ(back.scaler.stddev(), bundle.scaler.stddev());
  EXPECT_EQ(back.scaler.min_z(), bundle.scaler.min_z());
  EXPECT_EQ(back.scaler.max_z(), bundle.scaler.max_z());
  EXPECT_EQ(back.scaler.lo(), bundle.scaler.lo());
  EXPECT_EQ(back.scaler.hi(), bundle.scaler.hi());

  EXPECT_EQ(back.model.alpha, bundle.model.alpha);
  EXPECT_EQ(back.model.y, bundle.model.y);
  EXPECT_EQ(back.model.bias, bundle.model.bias);
  EXPECT_EQ(back.model.iterations, bundle.model.iterations);
  EXPECT_EQ(back.model.converged, bundle.model.converged);
  EXPECT_EQ(back.sv_indices, bundle.sv_indices);

  ASSERT_EQ(back.sv_states.size(), bundle.sv_states.size());
  for (std::size_t s = 0; s < back.sv_states.size(); ++s)
    EXPECT_EQ(back.sv_states[s].to_statevector(),
              bundle.sv_states[s].to_statevector());
}

TEST_F(ModelBundleTest, LoadedBundleScoresIdentically) {
  const TrainedServing t = train_small_serving(3);
  const ModelBundle& bundle = t.bundle;
  save_bundle(bundle, dir_);
  const ModelBundle back = load_bundle(dir_);

  const auto x_test = back.scaler.transform(t.x_test_raw);
  const auto test_states = kernel::simulate_states(back.config, x_test);
  const auto k_orig = kernel::cross_from_states(test_states, bundle.sv_states,
                                                bundle.config.sim.policy);
  const auto k_back = kernel::cross_from_states(test_states, back.sv_states,
                                                back.config.sim.policy);
  const auto f_orig = bundle.model.decision_values(k_orig);
  const auto f_back = back.model.decision_values(k_back);
  ASSERT_EQ(f_orig.size(), f_back.size());
  for (std::size_t i = 0; i < f_orig.size(); ++i)
    EXPECT_EQ(f_orig[i], f_back[i]);
}

TEST_F(ModelBundleTest, ReplacesExistingBundleAtomically) {
  const TrainedServing t = train_small_serving(8);
  save_bundle(t.bundle, dir_);
  save_bundle(t.bundle, dir_);  // re-save over the first bundle succeeds
  const ModelBundle back = load_bundle(dir_);
  EXPECT_EQ(back.sv_indices, t.bundle.sv_indices);
  EXPECT_FALSE(std::filesystem::exists(dir_ + ".tmp"));  // staging swapped in
}

TEST_F(ModelBundleTest, RefusesToReplaceNonBundleDirectory) {
  std::filesystem::create_directories(dir_);
  std::ofstream(dir_ + "/precious.txt") << "user data";
  const TrainedServing t = train_small_serving(9);
  EXPECT_THROW(save_bundle(t.bundle, dir_), Error);
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/precious.txt"));
}

TEST_F(ModelBundleTest, RejectsMissingDirectory) {
  EXPECT_THROW(load_bundle(dir_ + "_nonexistent"), Error);
}

TEST_F(ModelBundleTest, RejectsGarbageManifest) {
  std::filesystem::create_directories(dir_);
  std::ofstream os(dir_ + "/bundle.qkb", std::ios::binary);
  os << "this is not a bundle manifest at all";
  os.close();
  EXPECT_THROW(load_bundle(dir_), Error);
}

TEST_F(ModelBundleTest, RejectsUnsupportedVersion) {
  std::filesystem::create_directories(dir_);
  std::ofstream os(dir_ + "/bundle.qkb", std::ios::binary);
  const std::uint32_t magic = 0x51'4B'42'4C;  // correct "QKBL"
  const std::uint32_t version = 999;
  os.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  os.write(reinterpret_cast<const char*>(&version), sizeof(version));
  os.close();
  EXPECT_THROW(load_bundle(dir_), Error);
}

TEST_F(ModelBundleTest, ManifestBytesArePinned) {
  // A 76-byte fixed header (see RejectsCorruptVectorLength), four
  // 3-feature scaler vectors (128), alpha (24), labels (16), bias,
  // iterations and the converged byte (17), SV indices (24) and the SV
  // count (8). The digest is FNV-1a-64 of the manifest, unchanged since
  // version 1.
  save_bundle(hand_built_bundle(), dir_);
  const std::vector<std::uint8_t> bytes = io::read_file(dir_ + "/bundle.qkb");
  EXPECT_EQ(bytes.size(), 76u + 128 + 24 + 16 + 17 + 24 + 8);
  EXPECT_EQ(qkmps::testing::fnv1a64(bytes), 0xe5c0516d077530d5ull);
}

TEST_F(ModelBundleTest, EveryStrictPrefixAndAnAppendedByteAreRefused) {
  // No cut of the manifest reads as some other bundle, and neither does
  // the manifest or a state file with one byte more.
  save_bundle(hand_built_bundle(), dir_);
  const std::string manifest = dir_ + "/bundle.qkb";
  const std::vector<std::uint8_t> full = io::read_file(manifest);
  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    io::write_file(manifest, std::vector<std::uint8_t>(
                                 full.begin(), full.begin() + static_cast<long>(keep)));
    EXPECT_THROW(load_bundle(dir_), Error) << "cut at " << keep;
  }
  std::vector<std::uint8_t> longer = full;
  longer.push_back(0);
  io::write_file(manifest, longer);
  EXPECT_THROW(load_bundle(dir_), Error);

  io::write_file(manifest, full);
  const std::string state = dir_ + "/sv_1.mps";
  std::vector<std::uint8_t> state_bytes = io::read_file(state);
  state_bytes.push_back(0);
  io::write_file(state, state_bytes);
  EXPECT_THROW(load_bundle(dir_), Error);
  state_bytes.pop_back();
  io::write_file(state, state_bytes);
  EXPECT_NO_THROW(load_bundle(dir_));
}

TEST_F(ModelBundleTest, ByteFlipFuzzNeverCrashes) {
  // Single-byte corruption sweep over the manifest and one state file,
  // after ShardWire.ByteFuzzNeverCrashes: every load either refuses the
  // bundle with qkmps::Error or returns one that is consistent (some
  // bytes are don't-care equivalent, e.g. flips inside a double). Never
  // a crash, and never an allocation sized from a corrupt header.
  save_bundle(hand_built_bundle(), dir_);
  for (const char* file : {"bundle.qkb", "sv_1.mps"}) {
    const std::string path = dir_ + "/" + file;
    const std::vector<std::uint8_t> clean = io::read_file(path);
    for (std::size_t pos = 0; pos < clean.size(); ++pos) {
      for (const std::uint8_t flip : {0x01, 0x10, 0xFF}) {
        std::vector<std::uint8_t> corrupted = clean;
        corrupted[pos] ^= flip;
        io::write_file(path, corrupted);
        try {
          const ModelBundle loaded = load_bundle(dir_);
          EXPECT_EQ(static_cast<std::size_t>(loaded.num_support_vectors()),
                    loaded.model.alpha.size())
              << file << " byte " << pos << " ^ " << int{flip};
          for (const mps::Mps& state : loaded.sv_states)
            EXPECT_EQ(state.num_sites(), loaded.num_features())
                << file << " byte " << pos << " ^ " << int{flip};
        } catch (const Error&) {
          // loud failure: the desired outcome for structural corruption
        }
      }
    }
    io::write_file(path, clean);
  }
  EXPECT_NO_THROW(load_bundle(dir_));
}

TEST_F(ModelBundleTest, RejectsCorruptVectorLength) {
  const TrainedServing t = train_small_serving(7);
  save_bundle(t.bundle, dir_);
  // The scaler's mean vector length (int64) sits right after the 76-byte
  // fixed header (magic, version, 3x int64 ansatz, f64 gamma, i32 policy,
  // f64 weight, i64 max_bond, f64 lo, f64 hi). Blow it up to ~2^40: load
  // must fail with qkmps::Error (bounded read), not bad_alloc.
  const auto path = dir_ + "/bundle.qkb";
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  const std::streamoff length_offset = 4 + 4 + 3 * 8 + 8 + 4 + 8 + 8 + 8 + 8;
  f.seekp(length_offset);
  const std::int64_t huge = std::int64_t{1} << 40;
  f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  f.close();
  EXPECT_THROW(load_bundle(dir_), Error);
}

TEST_F(ModelBundleTest, RejectsNonFiniteScalerBounds) {
  const TrainedServing t = train_small_serving(9);
  save_bundle(t.bundle, dir_);
  // The scaler's lo bound (f64) sits right after the 60-byte fixed
  // header (see RejectsCorruptVectorLength). lo = -inf would make every
  // transformed feature inf or NaN, and every decision value NaN.
  const auto path = dir_ + "/bundle.qkb";
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  const std::streamoff lo_offset = 4 + 4 + 3 * 8 + 8 + 4 + 8 + 8;
  f.seekp(lo_offset);
  const double lo = -std::numeric_limits<double>::infinity();
  f.write(reinterpret_cast<const char*>(&lo), sizeof(lo));
  f.close();
  EXPECT_THROW(load_bundle(dir_), Error);
}

TEST_F(ModelBundleTest, RejectsMissingStateFile) {
  const TrainedServing t = train_small_serving(5);
  const ModelBundle& bundle = t.bundle;
  save_bundle(bundle, dir_);
  ASSERT_GT(bundle.num_support_vectors(), 0);
  std::filesystem::remove(dir_ + "/sv_0.mps");
  EXPECT_THROW(load_bundle(dir_), Error);
}

TEST_F(ModelBundleTest, RejectsStateWithNonFiniteAmplitude) {
  const TrainedServing t = train_small_serving(8);
  save_bundle(t.bundle, dir_);
  // A NaN in the last amplitude of a support-vector state: loading it
  // would make every served decision value NaN (each labelled -1).
  const auto path = dir_ + "/sv_0.mps";
  const auto size =
      static_cast<std::streamoff>(std::filesystem::file_size(path));
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  f.seekp(size - static_cast<std::streamoff>(sizeof(nan)));
  f.write(reinterpret_cast<const char*>(&nan), sizeof(nan));
  f.close();
  EXPECT_THROW(load_bundle(dir_), Error);
}

TEST_F(ModelBundleTest, RejectsStateWithWrongQubitCount) {
  const TrainedServing t = train_small_serving(6);
  save_bundle(t.bundle, dir_);
  // Overwrite the first SV state with a valid MPS of the wrong width.
  mps::save_mps(mps::Mps(3), dir_ + "/sv_0.mps");
  EXPECT_THROW(load_bundle(dir_), Error);
}

}  // namespace
}  // namespace qkmps::serve
