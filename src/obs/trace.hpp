#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace qkmps {
class JsonWriter;
}

namespace qkmps::obs {

/// Request tracing for the serving stack (DESIGN.md §8). A request gets a
/// process-unique 64-bit trace id at submit(); every stage it crosses —
/// admission queue, router, wire, worker gather/simulate/kernel — appends
/// a Span, and the router stitches worker-side spans (built from the stage
/// durations every scored ShardReply carries) into one cross-process
/// timeline under that id.
///
/// Timestamps are steady-clock nanoseconds relative to the trace's epoch
/// (the submit instant on the router's clock). Worker-side durations are
/// measured on the worker's clock and laid end to end by the router from
/// the start of its wire span, so a stitched timeline is coherent without
/// any cross-process clock agreement.

/// Which side of the wire measured a span.
enum class SpanOrigin : std::uint8_t {
  kRouter = 0,  ///< router/frontend process (or the in-process engine)
  kWorker = 1,  ///< shard worker (serving_rankd process or worker thread)
};

const char* to_string(SpanOrigin origin);

/// One timed stage of a request. `start_ns` is relative to the trace
/// epoch (see file comment); a span never nests other spans structurally
/// — nesting is implied by containment of [start, start+duration).
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  SpanOrigin origin = SpanOrigin::kRouter;
};

/// The finished, stitched record of one request: what RoutedPrediction
/// carries back to the caller and what the flight recorder rings.
struct TraceSummary {
  std::uint64_t trace_id = 0;  ///< 0 = request was never traced
  double total_seconds = 0.0;  ///< submit -> resolution
  std::vector<Span> spans;
};

/// Process-unique 64-bit trace ids: splitmix64 of an atomic counter, so
/// ids are well-mixed (usable as hash keys) and never 0 — 0 is reserved
/// to mean "untraced" (a request rejected before admission).
std::uint64_t next_trace_id();

/// Mutable per-request trace under construction: an epoch plus the spans
/// recorded so far. Single-threaded by design — a TraceContext belongs to
/// whichever loop currently owns the request (submitter, router thread,
/// worker loop), mirroring how the request itself is handed off.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::chrono::steady_clock::time_point epoch{};
  std::vector<Span> spans;

  /// Starts a trace: fresh id, epoch = now.
  static TraceContext begin();

  /// Records [start, end) as `name`; clamps a backwards interval to zero
  /// duration rather than wrapping (the monotonic clock makes that a
  /// caller bug, not an NTP artifact, but a trace must never lie big).
  void add_span(std::string name, std::chrono::steady_clock::time_point start,
                std::chrono::steady_clock::time_point end,
                SpanOrigin origin = SpanOrigin::kRouter);

  /// Records a span from pre-computed offsets (the re-basing stitcher).
  void add_span_ns(std::string name, std::uint64_t start_ns,
                   std::uint64_t duration_ns, SpanOrigin origin);

  TraceSummary finish(std::chrono::steady_clock::time_point end) &&;
};

/// Emits `trace` as a JSON object ({trace_id, total_seconds, spans: [...]})
/// into an already-open writer context (the caller owns begin/end of the
/// enclosing object/array).
void write_trace_json(JsonWriter& w, const TraceSummary& trace);

}  // namespace qkmps::obs
