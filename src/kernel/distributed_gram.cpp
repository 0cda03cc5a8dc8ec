#include "kernel/distributed_gram.hpp"

#include <cmath>
#include <vector>

#include "mps/inner_product.hpp"
#include "parallel/partition.hpp"
#include "parallel/rank_runtime.hpp"
#include "util/error.hpp"
#include "util/sync.hpp"
#include "util/timer.hpp"

namespace qkmps::kernel {

namespace {

using parallel::Comm;
using parallel::Range;
using parallel::RankRuntime;

/// One computed tile travelling to the gather rank.
struct TileResult {
  idx r0 = 0, r1 = 0, c0 = 0, c1 = 0;
  std::vector<double> values;  ///< row-major (r1-r0) x (c1-c0)
};

RealMatrix slice_rows(const RealMatrix& x, Range r) {
  RealMatrix out(r.size(), x.cols());
  for (idx i = 0; i < r.size(); ++i)
    for (idx j = 0; j < x.cols(); ++j) out(i, j) = x(r.begin + i, j);
  return out;
}

std::vector<mps::Mps> simulate_block(const QuantumKernelConfig& config,
                                     const RealMatrix& x, Range r,
                                     GramStats& stats) {
  const RealMatrix block = slice_rows(x, r);
  return simulate_states(config, block, &stats);
}

/// Sums one rank's phase times and counts into `into` (a rank's stats
/// into the merged record, and that into the caller's).
void accumulate(GramStats& into, const GramStats& from) {
  into.simulation_seconds += from.simulation_seconds;
  into.inner_product_seconds += from.inner_product_seconds;
  into.communication_seconds += from.communication_seconds;
  into.circuits_simulated += from.circuits_simulated;
  into.inner_products += from.inner_products;
}

TileResult compute_tile(const std::vector<mps::Mps>& rows, Range rr,
                        const std::vector<mps::Mps>& cols, Range cr,
                        bool diagonal, linalg::ExecPolicy policy,
                        GramStats& stats) {
  TileResult t;
  t.r0 = rr.begin;
  t.r1 = rr.end;
  t.c0 = cr.begin;
  t.c1 = cr.end;
  t.values.assign(static_cast<std::size_t>(rr.size() * cr.size()), 0.0);
  // Thread-CPU time: stays meaningful when ranks oversubscribe the cores.
  ThreadCpuTimer timer;
  idx count = 0;
  for (idx i = 0; i < rr.size(); ++i) {
    for (idx j = 0; j < cr.size(); ++j) {
      if (diagonal && j < i) continue;  // symmetric: mirror at assembly
      double v;
      if (diagonal && i == j) {
        v = 1.0;
      } else {
        v = mps::overlap_squared(rows[static_cast<std::size_t>(i)],
                                 cols[static_cast<std::size_t>(j)], policy);
        ++count;
      }
      t.values[static_cast<std::size_t>(i * cr.size() + j)] = v;
    }
  }
  stats.inner_product_seconds += timer.seconds();
  stats.inner_products += count;
  return t;
}

void assemble(RealMatrix& k, const TileResult& t, bool mirror) {
  for (idx i = t.r0; i < t.r1; ++i)
    for (idx j = t.c0; j < t.c1; ++j) {
      const double v =
          t.values[static_cast<std::size_t>((i - t.r0) * (t.c1 - t.c0) + (j - t.c0))];
      if (mirror && t.r0 == t.c0 && j < i) continue;  // lower half unset
      k(i, j) = v;
      if (mirror) k(j, i) = v;
    }
}

RealMatrix no_messaging_gram(const QuantumKernelConfig& config,
                             const RealMatrix& x, int num_ranks,
                             GramStats* stats) {
  const idx n = x.rows();
  // Upper-triangular tiles of a g x g grid, dealt round-robin to ranks
  // (Fig. 4a, plus the symmetric halving described in Sec. II-D).
  idx g = 1;
  while (g * (g + 1) / 2 < num_ranks) ++g;
  const auto ranges = parallel::split_evenly(n, g);

  struct TileCoord {
    idx r, c;
  };
  std::vector<std::vector<TileCoord>> owned(static_cast<std::size_t>(num_ranks));
  {
    idx next = 0;
    for (idx r = 0; r < g; ++r)
      for (idx c = r; c < g; ++c) {
        owned[static_cast<std::size_t>(next % num_ranks)].push_back({r, c});
        ++next;
      }
  }

  RealMatrix k(n, n);
  util::Mutex merge_mu;
  GramStats merged;

  RankRuntime rt(num_ranks);
  rt.run([&](Comm& comm) {
    GramStats local;
    std::vector<TileResult> results;
    for (const TileCoord tc : owned[static_cast<std::size_t>(comm.rank())]) {
      const Range rr = ranges[static_cast<std::size_t>(tc.r)];
      const Range cr = ranges[static_cast<std::size_t>(tc.c)];
      if (rr.size() == 0 || cr.size() == 0) continue;
      // Simulate every state this tile touches — the strategy's signature
      // duplication cost: row AND column states, locally.
      const auto row_states = simulate_block(config, x, rr, local);
      const bool diagonal = tc.r == tc.c;
      if (diagonal) {
        results.push_back(compute_tile(row_states, rr, row_states, cr, true,
                                       config.sim.policy, local));
      } else {
        const auto col_states = simulate_block(config, x, cr, local);
        results.push_back(compute_tile(row_states, rr, col_states, cr, false,
                                       config.sim.policy, local));
      }
    }
    {
      util::MutexLock lock(merge_mu);
      for (const auto& t : results) assemble(k, t, /*mirror=*/true);
      accumulate(merged, local);
    }
  });

  if (stats != nullptr) accumulate(*stats, merged);
  return k;
}

RealMatrix round_robin_gram(const QuantumKernelConfig& config,
                            const RealMatrix& x, int num_ranks,
                            GramStats* stats) {
  const idx n = x.rows();
  const auto blocks = parallel::split_evenly(n, num_ranks);
  const int k = num_ranks;

  RealMatrix km(n, n);
  util::Mutex merge_mu;
  GramStats merged;

  RankRuntime rt(num_ranks);
  rt.run([&](Comm& comm) {
    const int p = comm.rank();
    GramStats local;
    const Range my_range = blocks[static_cast<std::size_t>(p)];

    // Phase 1: each circuit simulated exactly once (Fig. 4b, step 1).
    std::vector<mps::Mps> resident =
        simulate_block(config, x, my_range, local);

    std::vector<TileResult> results;
    // Diagonal tile from local states.
    results.push_back(compute_tile(resident, my_range, resident, my_range,
                                   true, config.sim.policy, local));

    // Ring steps: the travelling block moves to the left neighbour; after
    // step s, rank p holds block (p+s) mod k. Symmetry lets the ring stop
    // after floor(k/2) steps (the paper's "send half of its states" trade).
    std::vector<mps::Mps> travelling = resident;
    Range trav_range = my_range;
    const int steps = k / 2;
    for (int s = 1; s <= steps; ++s) {
      const int dst = (p - 1 + k) % k;
      const int src = (p + 1) % k;
      Timer comm_timer;
      comm.send(dst, std::pair<std::pair<idx, idx>, std::vector<mps::Mps>>(
                         {trav_range.begin, trav_range.end}, std::move(travelling)));
      auto msg =
          comm.recv<std::pair<std::pair<idx, idx>, std::vector<mps::Mps>>>(src);
      local.communication_seconds += comm_timer.seconds();
      trav_range = Range{msg.first.first, msg.first.second};
      travelling = std::move(msg.second);

      // For even k the final step pairs each block with its antipode; only
      // the lower-index rank of each pair computes it.
      const bool duplicate_final = (k % 2 == 0) && (s == steps) && (p >= k / 2);
      if (!duplicate_final && trav_range.size() > 0 && my_range.size() > 0) {
        results.push_back(compute_tile(resident, my_range, travelling,
                                       trav_range, false, config.sim.policy,
                                       local));
      }
    }

    {
      util::MutexLock lock(merge_mu);
      for (const auto& t : results) assemble(km, t, /*mirror=*/true);
      accumulate(merged, local);
    }
  });

  if (stats != nullptr) accumulate(*stats, merged);
  return km;
}

}  // namespace

RealMatrix distributed_gram_matrix(const QuantumKernelConfig& config,
                                   const RealMatrix& x, int num_ranks,
                                   DistributionStrategy strategy,
                                   GramStats* stats) {
  QKMPS_CHECK(num_ranks >= 1);
  if (strategy == DistributionStrategy::NoMessaging)
    return no_messaging_gram(config, x, num_ranks, stats);
  return round_robin_gram(config, x, num_ranks, stats);
}

RealMatrix distributed_cross_kernel(const QuantumKernelConfig& config,
                                    const RealMatrix& x_test,
                                    const RealMatrix& x_train, int num_ranks,
                                    GramStats* stats) {
  QKMPS_CHECK(num_ranks >= 1);
  const idx nt = x_test.rows();
  const idx nr = x_train.rows();
  const auto test_blocks = parallel::split_evenly(nt, num_ranks);
  const auto train_blocks = parallel::split_evenly(nr, num_ranks);
  const int k = num_ranks;

  RealMatrix km(nt, nr);
  util::Mutex merge_mu;
  GramStats merged;

  RankRuntime rt(num_ranks);
  rt.run([&](Comm& comm) {
    const int p = comm.rank();
    GramStats local;
    const Range my_rows = test_blocks[static_cast<std::size_t>(p)];
    const Range my_cols = train_blocks[static_cast<std::size_t>(p)];

    std::vector<mps::Mps> test_states =
        simulate_block(config, x_test, my_rows, local);
    std::vector<mps::Mps> travelling =
        simulate_block(config, x_train, my_cols, local);
    Range trav_range = my_cols;

    std::vector<TileResult> results;
    for (int s = 0; s < k; ++s) {
      if (my_rows.size() > 0 && trav_range.size() > 0) {
        results.push_back(compute_tile(test_states, my_rows, travelling,
                                       trav_range, false, config.sim.policy,
                                       local));
      }
      if (s + 1 == k) break;
      const int dst = (p - 1 + k) % k;
      const int src = (p + 1) % k;
      Timer comm_timer;
      comm.send(dst, std::pair<std::pair<idx, idx>, std::vector<mps::Mps>>(
                         {trav_range.begin, trav_range.end}, std::move(travelling)));
      auto msg =
          comm.recv<std::pair<std::pair<idx, idx>, std::vector<mps::Mps>>>(src);
      local.communication_seconds += comm_timer.seconds();
      trav_range = Range{msg.first.first, msg.first.second};
      travelling = std::move(msg.second);
    }

    {
      util::MutexLock lock(merge_mu);
      for (const auto& t : results) assemble(km, t, /*mirror=*/false);
      accumulate(merged, local);
    }
  });

  if (stats != nullptr) accumulate(*stats, merged);
  return km;
}

}  // namespace qkmps::kernel
