#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double tail_level(std::size_t n) {
  if (n < 20) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

void MetricSet::set(const std::string& name, const std::string& unit,
                    double value) {
  if (find(name) != nullptr)
    throw std::logic_error("metric recorded twice: " + name);
  metrics_.push_back({name, unit, value});
}

const Metric* MetricSet::find(const std::string& name) const {
  for (const Metric& m : metrics_)
    if (m.name == name) return &m;
  return nullptr;
}

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += quoted(k) + ": ";
}

JsonObject& JsonObject::num(const std::string& k, double v) {
  key(k);
  body_ += number(v);
  return *this;
}

JsonObject& JsonObject::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += quoted(v);
  return *this;
}

JsonObject& JsonObject::boolean(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

JsonObject& JsonObject::nums(const std::string& k,
                             const std::vector<double>& v) {
  std::string arr = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    arr += (i == 0 ? "" : ", ") + number(v[i]);
  return raw(k, arr + "]");
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  JsonObject out;
  for (const Metric& m : metrics)
    out.raw(m.name, JsonObject().num("value", m.value).str("unit", m.unit).dump());
  return out.dump();
}

}  // namespace perfbench
