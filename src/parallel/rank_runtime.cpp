#include "parallel/rank_runtime.hpp"

#include <exception>
#include <thread>

namespace qkmps::parallel {

int Comm::size() const { return rt_->size(); }

void Comm::barrier() { rt_->barrier_wait(); }

RankRuntime::RankRuntime(int num_ranks) : num_ranks_(num_ranks) {
  QKMPS_CHECK(num_ranks >= 1);
  channels_.resize(static_cast<std::size_t>(num_ranks) *
                   static_cast<std::size_t>(num_ranks));
  for (auto& c : channels_) c = std::make_unique<Channel>();
}

void RankRuntime::push(int src, int dst, std::any payload) {
  Channel& ch = channel(src, dst);
  {
    util::MutexLock lock(ch.mu);
    ch.queue.push_back(std::move(payload));
  }
  ch.cv.notify_one();
}

std::any RankRuntime::pop(int src, int dst) {
  Channel& ch = channel(src, dst);
  util::UniqueLock lock(ch.mu);
  while (ch.queue.empty()) ch.cv.wait(lock);
  std::any payload = std::move(ch.queue.front());
  ch.queue.pop_front();
  return payload;
}

void RankRuntime::barrier_wait() {
  util::UniqueLock lock(barrier_mu_);
  const long long gen = barrier_generation_;
  if (++barrier_count_ == num_ranks_) {
    barrier_count_ = 0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
    return;
  }
  while (barrier_generation_ == gen) barrier_cv_.wait(lock);
}

void RankRuntime::run(const std::function<void(Comm&)>& body) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(num_ranks_));
  threads.reserve(static_cast<std::size_t>(num_ranks_));

  for (int r = 0; r < num_ranks_; ++r) {
    threads.emplace_back([this, r, &body, &errors] {
      Comm comm(this, r);
      try {
        body(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace qkmps::parallel
