#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.hpp"
#include "util/json_writer.hpp"

namespace qkmps::obs {

namespace {

/// Bucket bounds precomputed once: bound[i] is the inclusive lower edge
/// of bucket i, bound[kBuckets] the exclusive top of the covered range.
const std::array<double, Histogram::kBuckets + 1>& bucket_bounds() {
  static const std::array<double, Histogram::kBuckets + 1> bounds = [] {
    std::array<double, Histogram::kBuckets + 1> b{};
    const double g = Histogram::growth();
    double edge = Histogram::kLowest;
    for (std::size_t i = 0; i <= Histogram::kBuckets; ++i) {
      b[i] = edge;
      edge *= g;
    }
    return b;
  }();
  return bounds;
}

/// The value a bucket "stands for" in quantile math: the geometric
/// midpoint of its edges (log-scale buckets, so the geometric mean is the
/// unbiased center).
double bucket_mid(std::size_t i) {
  const auto& b = bucket_bounds();
  return std::sqrt(b[i] * b[i + 1]);
}

void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

}  // namespace

double Histogram::growth() {
  static const double g = std::cbrt(2.0);
  return g;
}

double Histogram::bucket_lower(std::size_t i) { return bucket_bounds()[i]; }

void Histogram::observe(double seconds) {
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, seconds);
  // NaN compares false everywhere below and would otherwise fall through
  // to a bucket via the log; park it in underflow with the negatives.
  if (!(seconds >= kLowest)) {
    underflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const auto& bounds = bucket_bounds();
  if (seconds >= bounds[kBuckets]) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Log-index then nudge: the float log can land one bucket off at an
  // edge, so correct against the exact precomputed bounds.
  double li = std::log(seconds / kLowest) / std::log(growth());
  std::size_t i = static_cast<std::size_t>(std::max(0.0, li));
  i = std::min(i, kBuckets - 1);
  while (i > 0 && seconds < bounds[i]) --i;
  while (i + 1 < kBuckets && seconds >= bounds[i + 1]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum_seconds = sum_.load(std::memory_order_relaxed);
  s.underflow = underflow_.load(std::memory_order_relaxed);
  s.overflow = overflow_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kBuckets; ++i)
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  return s;
}

double Histogram::Snapshot::quantile(double q) const {
  // Bucketed samples are always "sorted"; the binned population the
  // snapshot actually holds is authoritative (count_ may be momentarily
  // ahead of the bins under concurrent observes).
  std::uint64_t n = underflow + overflow;
  for (std::uint64_t b : buckets) n += b;
  if (n == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));

  // Representative value of the sample at sorted rank r.
  const auto value_at = [this](std::uint64_t r) -> double {
    if (r < underflow) return kLowest / 2.0;
    std::uint64_t seen = underflow;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += buckets[i];
      if (r < seen) return bucket_mid(i);
    }
    return bucket_bounds()[kBuckets];  // overflow ranks
  };

  // Type-7 position, matching util/stats quantile() on raw samples.
  const double pos = q * static_cast<double>(n - 1);
  const std::uint64_t lo = static_cast<std::uint64_t>(std::floor(pos));
  const std::uint64_t hi = static_cast<std::uint64_t>(std::ceil(pos));
  const double vlo = value_at(lo);
  if (hi == lo) return vlo;
  const double vhi = value_at(hi);
  const double frac = pos - static_cast<double>(lo);
  return vlo + (vhi - vlo) * frac;
}

WindowedRate::WindowedRate(double slot_seconds, std::size_t slots)
    : slot_seconds_(slot_seconds), ring_(std::max<std::size_t>(2, slots)) {
  QKMPS_CHECK(slot_seconds > 0.0);
}

void WindowedRate::record(double t_seconds, std::uint64_t n) {
  total_.fetch_add(n, std::memory_order_relaxed);
  if (!(t_seconds >= 0.0)) return;  // negative/NaN clocks don't take slots
  const std::int64_t epoch =
      static_cast<std::int64_t>(t_seconds / slot_seconds_);
  Slot& slot = ring_[static_cast<std::size_t>(epoch) % ring_.size()];
  if (slot.epoch.load(std::memory_order_relaxed) != epoch) {
    slot.count.store(0, std::memory_order_relaxed);
    slot.epoch.store(epoch, std::memory_order_relaxed);
  }
  slot.count.fetch_add(n, std::memory_order_relaxed);
}

double WindowedRate::rate(double now_seconds, double window_seconds) const {
  if (!(now_seconds >= 0.0) || !(window_seconds > 0.0)) return 0.0;
  // Clamp to the retained span minus the current (partial) slot's lap
  // margin so one ring lap can never alias into the window.
  const double retained =
      slot_seconds_ * static_cast<double>(ring_.size() - 1);
  const double window = std::min(window_seconds, retained);
  const std::int64_t now_epoch =
      static_cast<std::int64_t>(now_seconds / slot_seconds_);
  const std::int64_t first_epoch = std::max<std::int64_t>(
      0, now_epoch - static_cast<std::int64_t>(window / slot_seconds_));
  std::uint64_t events = 0;
  for (const Slot& slot : ring_) {
    const std::int64_t e = slot.epoch.load(std::memory_order_relaxed);
    if (e >= first_epoch && e <= now_epoch)
      events += slot.count.load(std::memory_order_relaxed);
  }
  // The counted slots cover [first_epoch * slot, now]: the current slot
  // only up to `now`, so a run shorter than one slot is not divided by a
  // whole slot. A zero-length span (now at t = 0) has no rate.
  const double span =
      now_seconds - static_cast<double>(first_epoch) * slot_seconds_;
  if (!(span > 0.0)) return 0.0;
  return static_cast<double>(events) / span;
}

Registry& Registry::global() {
  // Leaked singleton: handles outlive static teardown, so the registry
  // must never run its destructor. lint: allow(naked-new)
  static Registry* instance = new Registry();
  return *instance;
}

Counter& Registry::counter(const std::string& name) {
  util::MutexLock lock(mu_);
  QKMPS_CHECK_MSG(histograms_.count(name) == 0,
                  "metric '" << name << "' already registered as another kind");
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  util::MutexLock lock(mu_);
  QKMPS_CHECK_MSG(counters_.count(name) == 0,
                  "metric '" << name << "' already registered as another kind");
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

void Registry::render_json(JsonWriter& w) const {
  util::MutexLock lock(mu_);
  w.begin_object("counters");
  for (const auto& [name, c] : counters_)
    w.field(name, static_cast<long long>(c->value()));
  w.end_object();
  w.begin_object("histograms");
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot s = h->snapshot();
    w.begin_object(name);
    w.field("count", static_cast<long long>(s.count));
    w.field("sum_seconds", s.sum_seconds);
    w.field("mean_seconds", s.mean_seconds());
    w.field("p50_seconds", s.quantile(0.50));
    w.field("p99_seconds", s.quantile(0.99));
    w.field("p999_seconds", s.quantile(0.999));
    w.field("underflow", static_cast<long long>(s.underflow));
    w.field("overflow", static_cast<long long>(s.overflow));
    // Sparse exposition: only occupied buckets, as [lower_bound, count]
    // pairs — 96 mostly-zero entries per histogram would drown the
    // artifact.
    w.begin_array("buckets");
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (s.buckets[i] == 0) continue;
      w.begin_array_object();
      w.field("le", Histogram::bucket_lower(i) * Histogram::growth());
      w.field("count", static_cast<long long>(s.buckets[i]));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
}

std::string Registry::render_json() const {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  render_json(w);
  w.end_object();
  return os.str();
}

}  // namespace qkmps::obs
