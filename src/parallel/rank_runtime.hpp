#pragma once

#include <any>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "util/error.hpp"
#include "util/sync.hpp"

namespace qkmps::parallel {

/// Thread-backed message-passing runtime standing in for MPI (see the
/// substitution table in DESIGN.md). Each "rank" runs a user callback on
/// its own thread; ranks exchange typed messages over per-pair channels
/// with Send/Recv/Barrier semantics. The distributed Gram strategies of
/// Fig. 4 (kernel/distributed_gram.cpp) are written against this
/// interface exactly as the paper writes them against mpi4py; it carries
/// nothing else.
class RankRuntime;

/// Per-rank communicator handle passed to the rank body.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Blocking typed send/recv. The payload is moved through a shared
  /// queue; cross-thread transport cost is what the communication phase of
  /// Fig. 8 measures (cheap here, like the paper's intra-node MPI).
  template <typename T>
  void send(int dest, T payload);

  template <typename T>
  T recv(int src);

  /// Synchronizes all ranks.
  void barrier();

 private:
  friend class RankRuntime;
  Comm(RankRuntime* rt, int rank) : rt_(rt), rank_(rank) {}
  RankRuntime* rt_;
  int rank_;
};

class RankRuntime {
 public:
  explicit RankRuntime(int num_ranks);

  int size() const { return num_ranks_; }

  /// Runs `body(comm)` on every rank concurrently and joins. Exceptions
  /// thrown by any rank are rethrown (first one wins).
  void run(const std::function<void(Comm&)>& body);

 private:
  friend class Comm;

  struct Channel {
    util::Mutex mu;
    util::CondVar cv;
    std::deque<std::any> queue QKMPS_GUARDED_BY(mu);
  };

  Channel& channel(int src, int dst) {
    return *channels_[static_cast<std::size_t>(src * num_ranks_ + dst)];
  }

  void push(int src, int dst, std::any payload);
  std::any pop(int src, int dst);
  void barrier_wait();

  int num_ranks_;
  std::vector<std::unique_ptr<Channel>> channels_;

  util::Mutex barrier_mu_;
  util::CondVar barrier_cv_;
  int barrier_count_ QKMPS_GUARDED_BY(barrier_mu_) = 0;
  long long barrier_generation_ QKMPS_GUARDED_BY(barrier_mu_) = 0;
};

template <typename T>
void Comm::send(int dest, T payload) {
  QKMPS_CHECK(dest >= 0 && dest < size() && dest != rank_);
  rt_->push(rank_, dest, std::any(std::move(payload)));
}

template <typename T>
T Comm::recv(int src) {
  QKMPS_CHECK(src >= 0 && src < size() && src != rank_);
  std::any payload = rt_->pop(src, rank_);
  QKMPS_CHECK_MSG(payload.type() == typeid(T), "message type mismatch on recv");
  return std::any_cast<T>(std::move(payload));
}

}  // namespace qkmps::parallel
