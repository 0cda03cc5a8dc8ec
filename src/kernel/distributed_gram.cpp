#include "kernel/distributed_gram.hpp"

#include <chrono>
#include <exception>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "mps/inner_product.hpp"
#include "mps/serialization.hpp"
#include "parallel/partition.hpp"
#include "parallel/socket_transport.hpp"
#include "util/error.hpp"
#include "util/sync.hpp"
#include "util/timer.hpp"

namespace qkmps::kernel {

namespace {

using parallel::Range;
using parallel::SocketTransport;

/// Runs body(p, own[p]) for every rank p on a thread of its own, joins
/// them all, and rethrows the first rank failure. Each rank's thread owns
/// own[p], so what a rank holds, such as its ring ends, is released when
/// the rank ends, whether it returns or throws.
template <typename Own, typename Body>
void run_ranks(std::vector<Own> own, const Body& body) {
  std::vector<std::exception_ptr> errors(own.size());
  std::vector<std::thread> threads;
  threads.reserve(own.size());
  try {
    for (std::size_t p = 0; p < own.size(); ++p)
      threads.emplace_back(
          [&body, &errors, p, mine = std::move(own[p])]() mutable {
            try {
              body(static_cast<int>(p), mine);
            } catch (...) {
              errors[p] = std::current_exception();
            }
          });
  } catch (...) {
    // A rank that never started must not keep its ring ends open: the
    // started ranks would wait on them forever.
    own.clear();
    for (auto& t : threads) t.join();
    throw;
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

/// One rank's ends of the ring: travelling states leave through `left`
/// (to rank p-1) and arrive through `right` (from rank p+1). A rank that
/// throws closes both, so its neighbours fail on the dead link instead of
/// waiting in recv.
struct RingEnds {
  std::unique_ptr<SocketTransport> left, right;
};

/// The ends of a ring of k SocketTransport::pair() links, link p joining
/// rank p to rank p+1 (mod k).
std::vector<RingEnds> make_ring(int k) {
  std::vector<RingEnds> ring(static_cast<std::size_t>(k));
  for (int p = 0; p < k; ++p) {
    auto link = SocketTransport::pair();
    ring[static_cast<std::size_t>(p)].right = std::move(link.first);
    ring[static_cast<std::size_t>((p + 1) % k)].left = std::move(link.second);
  }
  return ring;
}

/// Waits for the next frame from a live neighbour; a dead one reads as
/// EOF and throws.
std::vector<std::uint8_t> recv_frame(SocketTransport& link) {
  for (;;)
    if (auto frame = link.recv_for(std::chrono::seconds(60)))
      return std::move(*frame);
}

/// MPI_Sendrecv on the ring: sends `out` to rank p-1, one save_mps frame
/// per state, while receiving `count` states from rank p+1 (the caller
/// knows which block arrives from the step, so no block header travels).
/// load_mps bounds every allocation by the frame's bytes and refuses a
/// frame that holds more than one state.
/// The send runs on a second thread: if every rank sent first, a block
/// larger than the socket buffer would leave each rank stalled on a
/// neighbour that is itself still sending. And it starts only once rank
/// p-1 has said, with an empty frame, that it is receiving, as MPI's
/// rendezvous protocol does, so it never waits on a neighbour that is
/// still computing (send_all fails a send that makes no progress for 30 s).
std::vector<mps::Mps> sendrecv(RingEnds& ends,
                               const std::vector<mps::Mps>& out, idx count) {
  ends.right->send({});
  auto sent = std::async(std::launch::async, [&] {
    QKMPS_CHECK_MSG(recv_frame(*ends.left).empty(),
                    "ring ready frame carries a payload");
    for (const mps::Mps& psi : out) ends.left->send(mps::save_mps(psi));
  });
  std::vector<mps::Mps> in;
  in.reserve(static_cast<std::size_t>(count));
  while (static_cast<idx>(in.size()) < count)
    in.push_back(mps::load_mps(recv_frame(*ends.right)));
  sent.get();
  return in;
}

/// One computed tile, assembled into the result under the merge lock.
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
  into.max_bond_sum += from.max_bond_sum;
  into.mps_bytes_sum += from.mps_bytes_sum;
  into.total_discarded_weight += from.total_discarded_weight;
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

  run_ranks(std::move(owned), [&](int, const std::vector<TileCoord>& tiles) {
    GramStats local;
    std::vector<TileResult> results;
    for (const TileCoord tc : tiles) {
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

  run_ranks(make_ring(k), [&](int p, RingEnds& ends) {
    GramStats local;
    const Range my_range = blocks[static_cast<std::size_t>(p)];

    // Phase 1: each circuit simulated exactly once (Fig. 4b, step 1).
    const std::vector<mps::Mps> resident =
        simulate_block(config, x, my_range, local);

    std::vector<TileResult> results;
    // Diagonal tile from local states.
    results.push_back(compute_tile(resident, my_range, resident, my_range,
                                   true, config.sim.policy, local));

    // Ring steps: the travelling block moves to the left neighbour; after
    // step s, rank p holds block (p+s) mod k. Symmetry lets the ring stop
    // after floor(k/2) steps (the paper's "send half of its states" trade).
    std::vector<mps::Mps> travelling;
    const int steps = k / 2;
    for (int s = 1; s <= steps; ++s) {
      const Range trav_range = blocks[static_cast<std::size_t>((p + s) % k)];
      Timer comm_timer;
      travelling = sendrecv(ends, s == 1 ? resident : travelling,
                            trav_range.size());
      local.communication_seconds += comm_timer.seconds();

      // For even k the final step pairs each block with its antipode; only
      // the lower-index rank of each pair computes it.
      const bool duplicate_final = (k % 2 == 0) && (s == steps) && (p >= k / 2);
      if (!duplicate_final && trav_range.size() > 0 && my_range.size() > 0) {
        // The lower-index block is the tile's rows, so every pair is
        // evaluated as overlap_squared(lower, higher), the order
        // gram_matrix uses: the overlap is not bitwise symmetric.
        results.push_back(
            trav_range.begin < my_range.begin
                ? compute_tile(travelling, trav_range, resident, my_range,
                               false, config.sim.policy, local)
                : compute_tile(resident, my_range, travelling, trav_range,
                               false, config.sim.policy, local));
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

  run_ranks(make_ring(k), [&](int p, RingEnds& ends) {
    GramStats local;
    const Range my_rows = test_blocks[static_cast<std::size_t>(p)];

    const std::vector<mps::Mps> test_states =
        simulate_block(config, x_test, my_rows, local);
    // After step s, rank p holds train block (p+s) mod k.
    const auto train_block = [&](int s) {
      return train_blocks[static_cast<std::size_t>((p + s) % k)];
    };
    std::vector<mps::Mps> travelling =
        simulate_block(config, x_train, train_block(0), local);

    std::vector<TileResult> results;
    for (int s = 0; s < k; ++s) {
      const Range trav_range = train_block(s);
      if (my_rows.size() > 0 && trav_range.size() > 0) {
        results.push_back(compute_tile(test_states, my_rows, travelling,
                                       trav_range, false, config.sim.policy,
                                       local));
      }
      if (s + 1 == k) break;
      Timer comm_timer;
      travelling = sendrecv(ends, travelling, train_block(s + 1).size());
      local.communication_seconds += comm_timer.seconds();
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
