#pragma once

// The benchmark's own statistics and output format. They deliberately do
// not reuse qkmps' util/stats or JsonWriter: a change to the code under
// test must not change how its numbers are computed or printed.

#include <string>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the middle pair for an even count); 0 if empty.
double median(std::vector<double> v);

/// Type-7 (linear interpolation) sample quantile, q in [0, 1]; 0 if empty.
double quantile(std::vector<double> v, double q);

/// The highest quantile level, at most 0.99, that leaves at least ten of
/// `n` samples beyond it: 0.99 from 1000 samples up, 1 - 10/n below.
double tail_level(std::size_t n);

/// One named measurement with its unit.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Every measurement a run made, in insertion order; a name appears once.
class MetricSet {
 public:
  void set(const std::string& name, const std::string& unit, double value);
  const Metric* find(const std::string& name) const;
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Minimal single-line JSON object writer for the benchmark's output.
/// Non-finite numbers are written as null.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v);
  JsonObject& str(const std::string& key, const std::string& v);
  JsonObject& boolean(const std::string& key, bool v);
  /// Inserts an already-serialized JSON value.
  JsonObject& raw(const std::string& key, const std::string& json);
  JsonObject& nums(const std::string& key, const std::vector<double>& v);
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

/// `{"name": {"value": v, "unit": u}, ...}` for the given metrics.
std::string metrics_json(const std::vector<Metric>& metrics);

}  // namespace perfbench
