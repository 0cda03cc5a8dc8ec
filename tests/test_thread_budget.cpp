/// Thread-budget suite for the dense kernels (linalg/policy.hpp). A
/// KernelThreadScope caps the OpenMP team a kernel on the calling thread
/// may fork, and the concurrency probe counts the threads inside kernel
/// regions — together they are the oversubscription regression gate.

#include <gtest/gtest.h>

#include <cstring>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "linalg/gemm.hpp"
#include "linalg/policy.hpp"
#include "test_helpers.hpp"

namespace qkmps {
namespace {

using linalg::ExecPolicy;
using linalg::Matrix;

#ifdef _OPENMP

bool bitwise_equal(const Matrix& x, const Matrix& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  const std::size_t n = static_cast<std::size_t>(x.rows() * x.cols());
  return std::memcmp(x.data(), y.data(), n * sizeof(cplx)) == 0;
}

TEST(ThreadBudget, KernelThreadScopeClampsTeamWidth) {
  // An accelerated gemm above the parallel threshold forks a full team;
  // the omp-for barrier keeps every member inside the probed region until
  // all arrive, so the observed peak equals the team width
  // deterministically. A scope of 1 must pin the same call to a single
  // thread — and must not change the bits.
  omp_set_dynamic(0);
  const int saved = omp_get_max_threads();
  omp_set_num_threads(4);
  Rng rng(41);
  const Matrix a = testing::random_matrix(70, 70, rng);
  const Matrix b = testing::random_matrix(70, 70, rng);

  linalg::kernel_probe_reset();
  const Matrix wide_team = linalg::gemm(a, b, ExecPolicy::Accelerated);
  EXPECT_EQ(linalg::kernel_probe_peak(), 4);

  {
    linalg::KernelThreadScope scope(1);
    EXPECT_EQ(linalg::KernelThreadScope::current(), 1);
    linalg::kernel_probe_reset();
    const Matrix pinned = linalg::gemm(a, b, ExecPolicy::Accelerated);
    EXPECT_EQ(linalg::kernel_probe_peak(), 1);
    EXPECT_TRUE(bitwise_equal(pinned, wide_team));
  }
  EXPECT_EQ(linalg::KernelThreadScope::current(), 0);
  omp_set_num_threads(saved);
}

#endif  // _OPENMP

TEST(ThreadBudget, ScopesNestAndRestore) {
  linalg::KernelThreadScope outer(3);
  EXPECT_EQ(linalg::KernelThreadScope::current(), 3);
  {
    linalg::KernelThreadScope inner(1);
    EXPECT_EQ(linalg::KernelThreadScope::current(), 1);
  }
  EXPECT_EQ(linalg::KernelThreadScope::current(), 3);
}

}  // namespace
}  // namespace qkmps
