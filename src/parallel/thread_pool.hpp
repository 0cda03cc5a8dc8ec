#pragma once

#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/sync.hpp"

namespace qkmps::parallel {

/// Fixed-size thread pool for embarrassingly-parallel loops, without the
/// full rank-runtime machinery. Its users: the serving lanes
/// (serve::InferenceEngine runs a batch's uncached circuit simulations
/// and its kernel entries on it) and the synthetic Elliptic pool generator
/// (data::generate_elliptic_synthetic draws its row blocks on it).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; returns a future for its completion.
  std::future<void> submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  util::Mutex mu_;
  util::CondVar cv_;
  std::queue<std::packaged_task<void()>> tasks_ QKMPS_GUARDED_BY(mu_);
  bool stop_ QKMPS_GUARDED_BY(mu_) = false;
};

}  // namespace qkmps::parallel
