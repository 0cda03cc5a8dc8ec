#include "mps/inner_product.hpp"

#include <vector>

#include "linalg/gemm.hpp"
#include "util/error.hpp"

namespace qkmps::mps {

cplx inner_product(const Mps& a, const Mps& b, linalg::ExecPolicy policy) {
  QKMPS_CHECK(a.num_sites() == b.num_sites());
  const idx m = a.num_sites();

  // One workspace for the whole sweep, sized by the widest bonds: the
  // environment E (chi_a x chi_b) and T (chi_a x 2 chi_b). Both states'
  // sites are read in place from their buffers.
  const idx wa = a.max_bond(), wb = b.max_bond();
  std::vector<cplx> work(static_cast<std::size_t>(wa * wb + wa * 2 * wb));
  cplx* const env = work.data();
  cplx* const t = env + wa * wb;

  // E starts as the trivial 1x1 environment.
  env[0] = 1.0;
  idx rows = 1, cols = 1;
  for (idx i = 0; i < m; ++i) {
    const SiteView sa = a.site(i);
    const SiteView sb = b.site(i);
    QKMPS_CHECK(sa.left == rows && sb.left == cols);

    // T[ia, (s jb')] = sum_jb E[ia, jb] B[jb, (s jb')]
    linalg::gemm_into({t, sa.left, 2 * sb.right}, {env, rows, cols},
                      sb.right_matrix(), policy);
    // env'[ia', jb'] = sum_{ia, s} conj(A[(ia s), ia']) T[(ia s), jb']
    // where T reinterpreted as ((ia s), jb') — row-major makes this free.
    linalg::gemm_into({env, sa.right, sb.right}, sa.left_matrix(),
                      {t, sa.left * 2, sb.right}, policy, linalg::Op::ConjT);
    rows = sa.right;
    cols = sb.right;
  }

  QKMPS_CHECK(rows == 1 && cols == 1);
  return env[0];
}

double overlap_squared(const Mps& a, const Mps& b, linalg::ExecPolicy policy) {
  const cplx ip = inner_product(a, b, policy);
  return ip.real() * ip.real() + ip.imag() * ip.imag();
}

}  // namespace qkmps::mps
