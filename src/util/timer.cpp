#include "util/timer.hpp"

#include <ctime>

namespace qkmps {

namespace {
double thread_cpu_seconds_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

void ThreadCpuTimer::reset() { start_ = thread_cpu_seconds_now(); }

double ThreadCpuTimer::seconds() const {
  return thread_cpu_seconds_now() - start_;
}

}  // namespace qkmps
