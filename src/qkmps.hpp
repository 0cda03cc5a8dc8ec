#pragma once

/// Umbrella header for the qkmps library: quantum kernel models at scale
/// via Matrix Product State simulation (reproduction of Metcalf et al.,
/// SC 2024). Include this to get the full public API; individual headers
/// can be included for faster builds.

#include "circuit/ansatz.hpp"        // IWYU pragma: export
#include "circuit/circuit.hpp"       // IWYU pragma: export
#include "circuit/gate.hpp"          // IWYU pragma: export
#include "circuit/interaction_graph.hpp"  // IWYU pragma: export
#include "circuit/routing.hpp"       // IWYU pragma: export
#include "circuit/scheduling.hpp"    // IWYU pragma: export
#include "circuit/statevector.hpp"   // IWYU pragma: export
#include "data/csv.hpp"              // IWYU pragma: export
#include "data/dataset.hpp"          // IWYU pragma: export
#include "data/elliptic_synthetic.hpp"  // IWYU pragma: export
#include "data/preprocess.hpp"       // IWYU pragma: export
#include "data/splits.hpp"           // IWYU pragma: export
#include "kernel/distributed_gram.hpp"  // IWYU pragma: export
#include "kernel/diagnostics.hpp"    // IWYU pragma: export
#include "kernel/gaussian.hpp"       // IWYU pragma: export
#include "kernel/gram.hpp"           // IWYU pragma: export
#include "kernel/kernel_matrix.hpp"  // IWYU pragma: export
#include "kernel/projected.hpp"      // IWYU pragma: export
#include "kernel/shot_kernel.hpp"    // IWYU pragma: export
#include "linalg/bidiag.hpp"         // IWYU pragma: export
#include "linalg/gemm.hpp"           // IWYU pragma: export
#include "linalg/householder.hpp"    // IWYU pragma: export
#include "linalg/jacobi_svd.hpp"     // IWYU pragma: export
#include "linalg/matrix.hpp"         // IWYU pragma: export
#include "linalg/norms.hpp"          // IWYU pragma: export
#include "linalg/policy.hpp"         // IWYU pragma: export
#include "linalg/qr.hpp"             // IWYU pragma: export
#include "linalg/svd.hpp"            // IWYU pragma: export
#include "linalg/symeig.hpp"         // IWYU pragma: export
#include "mps/canonical.hpp"         // IWYU pragma: export
#include "mps/gate_application.hpp"  // IWYU pragma: export
#include "mps/inner_product.hpp"     // IWYU pragma: export
#include "mps/memory_tracker.hpp"    // IWYU pragma: export
#include "mps/mps.hpp"               // IWYU pragma: export
#include "mps/observables.hpp"       // IWYU pragma: export
#include "mps/serialization.hpp"     // IWYU pragma: export
#include "mps/simulator.hpp"         // IWYU pragma: export
#include "mps/truncation.hpp"        // IWYU pragma: export
#include "parallel/partition.hpp"    // IWYU pragma: export
#include "parallel/rank_runtime.hpp" // IWYU pragma: export
#include "parallel/thread_pool.hpp"  // IWYU pragma: export
#include "serve/feature_key.hpp"     // IWYU pragma: export
#include "serve/inference_engine.hpp"  // IWYU pragma: export
#include "serve/lru_map.hpp"         // IWYU pragma: export
#include "serve/model_bundle.hpp"    // IWYU pragma: export
#include "serve/prediction_memo.hpp" // IWYU pragma: export
#include "serve/rank_sharded_engine.hpp"  // IWYU pragma: export
#include "serve/router.hpp"          // IWYU pragma: export
#include "serve/state_cache.hpp"     // IWYU pragma: export
#include "serve/workload.hpp"        // IWYU pragma: export
#include "svm/metrics.hpp"           // IWYU pragma: export
#include "svm/model_selection.hpp"   // IWYU pragma: export
#include "svm/svm.hpp"               // IWYU pragma: export
#include "util/cli.hpp"              // IWYU pragma: export
#include "util/error.hpp"            // IWYU pragma: export
#include "util/json_writer.hpp"      // IWYU pragma: export
#include "util/rng.hpp"              // IWYU pragma: export
#include "util/stats.hpp"            // IWYU pragma: export
#include "util/timer.hpp"            // IWYU pragma: export
#include "util/types.hpp"            // IWYU pragma: export
