#include "host.hpp"

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

double host_probe_seconds() {
  // A serial multiply-add chain: its speed depends only on the core's
  // clock and how much of the core this process gets.
  volatile double seed = 1.0;
  double x = seed;
  const auto start = std::chrono::steady_clock::now();
  for (long i = 0; i < 30'000'000; ++i) x = x * 1.0000001 + 1e-9;
  const auto stop = std::chrono::steady_clock::now();
  seed = x;
  return std::chrono::duration<double>(stop - start).count();
}

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kib = 0.0;
    fields >> kib;
    return kib / 1024.0;
  }
  return 0.0;
}

}  // namespace perfbench
