#pragma once

#include "serve/lru_map.hpp"

namespace qkmps::serve {

/// Memoization counters; snapshot semantics as LruStats (atomic,
/// lock-free to read while lookups and insertions are in flight).
using MemoStats = LruStats;

/// The memoized payload: exactly the parts of a Prediction that are a
/// pure function of the scaled feature bits (label + decision value).
/// Latency and hit provenance are per-request and never memoized.
struct MemoizedPrediction {
  int label = 0;
  double decision_value = 0.0;
};

/// Tiny thread-safe LRU of *final* decision values, keyed by the bit
/// pattern of the scaled feature vector — an LruMap instance (see
/// lru_map.hpp), and the engine's default cross-request cache: an entry
/// is its key plus ~130 B, where a StateCache entry is a whole MPS. Sits
/// in front of the whole simulation path and is asked at admission
/// (InferenceEngine::submit, or predict_batch): an exact repeat of a
/// previously scored request skips scaling-downstream work entirely (no
/// batch window, no circuit simulation, no StateCache traffic, no SV
/// kernel row, no SVC accumulation), returning the identical bits it
/// returned the first time. A row that missed is asked about again,
/// uncounted (find_uncounted), when its batch is scored: a duplicate
/// admitted while its first occurrence was still queued or running then
/// replays that answer the same way. Where the StateCache amortizes the
/// simulation of a repeated *point*, the memo amortizes the entire
/// request.
///
/// capacity == 0 disables memoization: every lookup misses and insert()
/// stores nothing.
using PredictionMemo = LruMap<MemoizedPrediction>;

}  // namespace qkmps::serve
