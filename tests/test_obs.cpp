// src/obs/: the observability subsystem — trace contexts and spans,
// metrics registry (counters/log-scale histograms), and the
// flight recorder's bounded rings. The serving stack reports through
// these on its hot paths, so the contracts pinned here (bounded quantile
// error, ring wrap order, stable handles, 0-as-untraced) are what the
// bench gates and postmortem dumps stand on.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/json_writer.hpp"
#include "util/stats.hpp"

namespace qkmps::obs {
namespace {

using std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Tracing.

TEST(Trace, IdsAreUniqueAndNeverZero) {
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t id = next_trace_id();
    EXPECT_NE(id, 0u);  // 0 is the wire's "untraced" sentinel
    EXPECT_TRUE(seen.insert(id).second) << "duplicate trace id";
  }
}

TEST(Trace, SpansAreRelativeToTheEpoch) {
  TraceContext ctx = TraceContext::begin();
  const auto t0 = ctx.epoch + std::chrono::microseconds(10);
  const auto t1 = ctx.epoch + std::chrono::microseconds(35);
  ctx.add_span("wait", ctx.epoch, t0);
  ctx.add_span("work", t0, t1, SpanOrigin::kWorker);
  const TraceSummary summary =
      std::move(ctx).finish(ctx.epoch + std::chrono::microseconds(40));
  EXPECT_NE(summary.trace_id, 0u);
  EXPECT_NEAR(summary.total_seconds, 40e-6, 1e-12);
  ASSERT_EQ(summary.spans.size(), 2u);
  EXPECT_EQ(summary.spans[0].name, "wait");
  EXPECT_EQ(summary.spans[0].start_ns, 0u);
  EXPECT_EQ(summary.spans[0].duration_ns, 10'000u);
  EXPECT_EQ(summary.spans[0].origin, SpanOrigin::kRouter);
  EXPECT_EQ(summary.spans[1].start_ns, 10'000u);
  EXPECT_EQ(summary.spans[1].duration_ns, 25'000u);
  EXPECT_EQ(summary.spans[1].origin, SpanOrigin::kWorker);
}

TEST(Trace, BackwardsIntervalsClampToZeroNotWrap) {
  TraceContext ctx = TraceContext::begin();
  // A caller bug (end before start) must clamp, never wrap to ~2^64 ns.
  ctx.add_span("backwards", ctx.epoch + std::chrono::seconds(1), ctx.epoch);
  const TraceSummary summary = std::move(ctx).finish(ctx.epoch);
  ASSERT_EQ(summary.spans.size(), 1u);
  EXPECT_EQ(summary.spans[0].duration_ns, 0u);
  EXPECT_DOUBLE_EQ(summary.total_seconds, 0.0);
}

TEST(Trace, JsonUsesFullWidthHexIds) {
  // Ids use all 64 bits; doubles carry 53 — so the JSON field must be a
  // 16-char hex string, not a number.
  TraceSummary trace;
  trace.trace_id = 0x00ABCDEF12345678ull;
  trace.total_seconds = 1.5;
  trace.spans = {{"wire", 5, 7, SpanOrigin::kRouter}};
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  write_trace_json(w, trace);
  w.end_object();
  const std::string json = os.str();
  EXPECT_NE(json.find("\"trace_id\": \"00abcdef12345678\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\": \"wire\""), std::string::npos);
  EXPECT_NE(json.find("\"origin\": \"router\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Metrics.

TEST(Metrics, CounterBasics) {
  Counter c;
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Metrics, HistogramQuantileWithinOneBucketOfExact) {
  // The advertised error bound: a reported quantile is the geometric
  // midpoint of the right bucket, so it is within a factor of growth()
  // of the exact order statistic. Check it against util/stats quantile
  // on the same samples — the two share the type-7 rank convention.
  Histogram h;
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) {
    const double v = 1e-4 * (1.0 + 0.01 * i);  // 101 µs .. 1.1 ms
    samples.push_back(v);
    h.observe(v);
  }
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_NEAR(s.mean_seconds(), mean(samples), 1e-12);
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = quantile(samples, q);
    const double binned = s.quantile(q);
    const double factor = binned > exact ? binned / exact : exact / binned;
    EXPECT_LT(factor, Histogram::growth() * Histogram::growth())
        << "q=" << q << " exact=" << exact << " binned=" << binned;
  }
}

TEST(Metrics, HistogramSingleSample) {
  Histogram h;
  h.observe(3.3e-3);
  const Histogram::Snapshot s = h.snapshot();
  // Every quantile of a single sample is that sample (its bucket mid).
  const double p0 = s.quantile(0.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), p0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), p0);
  const double factor = p0 > 3.3e-3 ? p0 / 3.3e-3 : 3.3e-3 / p0;
  EXPECT_LT(factor, Histogram::growth());
}

TEST(Metrics, HistogramUnderOverflowAndEmpty) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), 0.0);  // empty -> 0
  h.observe(0.0);
  h.observe(-5.0);
  h.observe(std::nan(""));
  h.observe(1e9);  // ~31 years: over the top bucket
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.underflow, 3u);
  EXPECT_EQ(s.overflow, 1u);
  // All-underflow ranks report below the covered range, overflow ranks
  // its top: quantiles stay ordered even with no real buckets occupied.
  EXPECT_LE(s.quantile(0.1), s.quantile(0.9));
}

TEST(Metrics, HistogramBucketEdgesAreExact) {
  // A sample exactly on a bucket's lower edge lands in that bucket, not
  // its neighbour (the log-index nudge in observe()).
  for (const std::size_t i : {std::size_t{0}, std::size_t{10},
                              std::size_t{47}, Histogram::kBuckets - 1}) {
    Histogram h;
    h.observe(Histogram::bucket_lower(i));
    const Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.buckets[i], 1u) << "edge of bucket " << i;
  }
}

TEST(Metrics, RegistryHandlesAreStableAndKindsAreExclusive) {
  Registry reg;
  Counter& c1 = reg.counter("a.b.count");
  Counter& c2 = reg.counter("a.b.count");
  EXPECT_EQ(&c1, &c2);  // same name -> same instrument, forever
  c1.add(7);
  EXPECT_EQ(c2.value(), 7u);
  reg.histogram("a.b.hist");
  EXPECT_THROW(reg.histogram("a.b.count"), Error);
  EXPECT_THROW(reg.counter("a.b.hist"), Error);
}

TEST(Metrics, RegistryRendersJson) {
  Registry reg;
  reg.counter("requests").add(3);
  reg.histogram("latency_seconds").observe(1e-3);
  const std::string json = reg.render_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"requests\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"latency_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"p50_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Flight recorder.

TEST(FlightRecorder, EventRingWrapsOldestFirst) {
  FlightRecorder rec(/*trace_capacity=*/4, /*event_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    // Appended, not `"e" + std::to_string(i)`: at -O3 GCC 12 reports a
    // false -Wrestrict overlap inside the prepending operator+.
    std::string detail = "e";
    detail += std::to_string(i);
    rec.record_event(EventKind::kShed, i, 0, std::move(detail));
  }
  EXPECT_EQ(rec.events_recorded(), 10u);
  const std::vector<LifecycleEvent> events = rec.events();
  ASSERT_EQ(events.size(), 4u);  // ring kept only the newest 4
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 6 + i);  // oldest-first, seq survives wrap
    EXPECT_EQ(events[i].shard, static_cast<int>(6 + i));
    EXPECT_GE(events[i].uptime_seconds, 0.0);
  }
}

TEST(FlightRecorder, TraceRingWrapsIndependently) {
  FlightRecorder rec(/*trace_capacity=*/2, /*event_capacity=*/8);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    TraceSummary t;
    t.trace_id = i;
    rec.record_trace(std::move(t));
  }
  rec.record_event(EventKind::kDemotion, 0, 3, "after the trace flood");
  EXPECT_EQ(rec.traces_recorded(), 5u);
  const std::vector<TraceSummary> traces = rec.traces();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].trace_id, 4u);
  EXPECT_EQ(traces[1].trace_id, 5u);
  // The point of two rings: a trace flood cannot evict lifecycle events.
  ASSERT_EQ(rec.events().size(), 1u);
  EXPECT_EQ(rec.events()[0].kind, EventKind::kDemotion);
}

TEST(FlightRecorder, DumpJsonCarriesTheIncidentStory) {
  FlightRecorder rec;
  rec.record_event(EventKind::kSpawn, 0, 0, "pid 1234");
  rec.record_event(EventKind::kWorkerDeath, 0, 0, "peer closed");
  rec.record_event(EventKind::kRespawnFailed, 0, 1, "attempt 1 of 3");
  rec.record_event(EventKind::kDemotion, 0, 1, "respawn budget exhausted");
  TraceSummary t;
  t.trace_id = 0xBEEF;
  t.spans = {{"wire", 0, 10, SpanOrigin::kRouter}};
  rec.record_trace(std::move(t));
  const std::string json = rec.dump_json();
  for (const char* needle :
       {"\"events_recorded\": 4", "\"traces_recorded\": 1", "\"spawn\"",
        "\"worker_death\"", "\"respawn_failed\"", "\"demotion\"",
        "\"000000000000beef\""})
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n" << json;
}

TEST(FlightRecorder, DumpToFileWritesADocument) {
  FlightRecorder rec;
  rec.record_event(EventKind::kSpawn, 1, 0, "pid 99");
  const std::string path = ::testing::TempDir() + "qkmps_flight_dump.json";
  rec.dump_to_file(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qkmps::obs
