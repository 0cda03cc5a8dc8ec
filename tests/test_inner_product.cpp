#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "circuit/ansatz.hpp"
#include "circuit/statevector.hpp"
#include "mps/gate_application.hpp"
#include "mps/inner_product.hpp"
#include "mps/simulator.hpp"
#include "test_helpers.hpp"

namespace {

/// Heap allocations made through operator new while g_counting is set;
/// this binary replaces the global operator new and delete to count them.
std::atomic<bool> g_counting{false};
std::atomic<std::int64_t> g_allocations{0};

}  // namespace

// Kept out of line: inlined into this file's callers, the malloc/free pair
// would look to the compiler like new paired with free.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace qkmps::mps {
namespace {

struct StatePair {
  Mps mps;
  circuit::Statevector sv;
  StatePair(idx m, std::uint64_t seed, idx d = 2)
      : mps(m), sv(m) {
    Rng rng(seed);
    const circuit::AnsatzParams p{.num_features = m, .layers = 2, .distance = d,
                                  .gamma = 0.8};
    const circuit::Circuit c =
        circuit::feature_map_circuit(p, qkmps::testing::random_features(m, rng));
    MpsSimulator sim;
    mps = sim.simulate(c).state;
    sv.apply(c);
  }
};

TEST(InnerProduct, SelfOverlapIsOne) {
  const StatePair a(6, 1);
  const cplx ip = inner_product(a.mps, a.mps);
  EXPECT_NEAR(ip.real(), 1.0, 1e-10);
  EXPECT_NEAR(ip.imag(), 0.0, 1e-10);
}

TEST(InnerProduct, MatchesStatevector) {
  const StatePair a(7, 2), b(7, 3);
  const cplx expect = a.sv.inner_product(b.sv);
  const cplx got = inner_product(a.mps, b.mps);
  EXPECT_NEAR(std::abs(expect - got), 0.0, 1e-8);
}

TEST(InnerProduct, ConjugateSymmetry) {
  const StatePair a(5, 4), b(5, 5);
  const cplx ab = inner_product(a.mps, b.mps);
  const cplx ba = inner_product(b.mps, a.mps);
  EXPECT_NEAR(std::abs(ab - std::conj(ba)), 0.0, 1e-12);
}

TEST(InnerProduct, OverlapSquaredIsAbsSquare) {
  const StatePair a(5, 6), b(5, 7);
  const cplx ip = inner_product(a.mps, b.mps);
  EXPECT_NEAR(overlap_squared(a.mps, b.mps), std::norm(ip), 1e-14);
}

TEST(InnerProduct, OrthogonalProductStates) {
  Mps zero(3);
  Mps one(3);
  // |111>.
  for (idx q = 0; q < 3; ++q)
    apply_single_qubit_gate(one, circuit::make_x(q).matrix(), q);
  EXPECT_NEAR(std::abs(inner_product(zero, one)), 0.0, 1e-15);
}

TEST(InnerProduct, PoliciesAgree) {
  const StatePair a(6, 8), b(6, 9);
  const cplx r = inner_product(a.mps, b.mps, linalg::ExecPolicy::Reference);
  const cplx acc = inner_product(a.mps, b.mps, linalg::ExecPolicy::Accelerated);
  EXPECT_NEAR(std::abs(r - acc), 0.0, 1e-12);
}

TEST(InnerProduct, MismatchedSitesThrow) {
  Mps a(3), b(4);
  EXPECT_THROW(inner_product(a, b), Error);
}

TEST(InnerProduct, KernelEntryInZeroOneRange) {
  // |<a|b>|^2 of normalized states is a valid kernel entry in [0, 1].
  for (std::uint64_t s = 0; s < 6; ++s) {
    const StatePair a(5, 100 + s), b(5, 200 + s);
    const double k = overlap_squared(a.mps, b.mps);
    EXPECT_GE(k, 0.0);
    EXPECT_LE(k, 1.0 + 1e-12);
  }
}

/// A feature-map state too wide for the statevector oracle.
Mps ansatz_state(idx m, idx d, double gamma, std::uint64_t seed) {
  Rng rng(seed);
  const circuit::AnsatzParams p{.num_features = m, .layers = 2, .distance = d,
                                .gamma = gamma};
  return MpsSimulator()
      .simulate(circuit::feature_map_circuit(p, qkmps::testing::random_features(m, rng)))
      .state;
}

std::int64_t overlap_allocations(const Mps& a, const Mps& b,
                                 linalg::ExecPolicy policy) {
  g_allocations = 0;
  g_counting = true;
  const double v = overlap_squared(a, b, policy);
  g_counting = false;
  EXPECT_TRUE(std::isfinite(v));
  return g_allocations.load();
}

TEST(InnerProduct, AllocationsDoNotGrowWithSites) {
  // The sweep reads both states in place and keeps its environment in one
  // workspace, so the allocation count is the same at 12 sites and at the
  // paper's 165, and small.
  const Mps a12 = ansatz_state(12, 2, 0.8, 31), b12 = ansatz_state(12, 2, 0.8, 32);
  const Mps a165 = ansatz_state(165, 1, 0.1, 33), b165 = ansatz_state(165, 1, 0.1, 34);
  ASSERT_GT(a12.max_bond(), 1);
  ASSERT_GT(a165.max_bond(), 1);
  for (const linalg::ExecPolicy policy :
       {linalg::ExecPolicy::Reference, linalg::ExecPolicy::Accelerated}) {
    SCOPED_TRACE(linalg::to_string(policy));
    overlap_squared(a12, b12, policy);  // warm-up
    const std::int64_t small = overlap_allocations(a12, b12, policy);
    const std::int64_t large = overlap_allocations(a165, b165, policy);
    EXPECT_EQ(small, large);
    EXPECT_LE(large, 4);
  }
}

}  // namespace
}  // namespace qkmps::mps
