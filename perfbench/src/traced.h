#pragma once
// The traced decomposition: decides a task by calling each layer's public
// entry points from outside the library, in the order the sequential
// (kLadder) pipeline schedule calls them, and times every call.
//
// All layer times are exclusive: no two timed regions nest, so their sum is
// the traced share of a verdict and the rest of run_pipeline's wall time
// (lane cloning, engine bookkeeping, report assembly) is unattributed.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "solver/engine.h"
#include "solver/pipeline.h"
#include "tasks/task.h"

namespace perfbench {

enum Layer : int {
  kFingerprint,      // tasks.fingerprint: fingerprint_task
  kStoreLoad,        // io.store.load: load_verdict, sibling scan, artifacts
  kCanonicalize,     // tasks.canonicalize: canonicalize (T -> T*)
  kBetti,            // topology.betti: component_count + betti_numbers
  kLapScan,          // core.lap_scan: first_lap scans + link check
  kSplitLoop,        // core.split_loop: split_lap deformations
  kCorollaries,      // core.corollaries: corollary_5_5 + corollary_5_6
  kConnectivityCsp,  // core.connectivity_csp: connectivity_csp
  kHomologyCheck,    // core.homology_check: homology_boundary_check
  kDeltaImages,      // solver.delta_images: DeltaImageCache::populate
  kLadder,           // topology.ladder: SubdivisionLadder::share
  kMapSearch,        // solver.map_search: find_decision_map
  kStorePublish,     // io.store.publish: records + artifacts
  kLayerCount
};

/// "<module>.<layer>" metric prefix of a layer.
const char* layer_prefix(Layer layer);

/// Per-layer time and work counts, summed over traced verdicts.
struct LayerTotals {
  std::array<double, kLayerCount> ms{};
  std::uint64_t fingerprint_leaves = 0;
  std::uint64_t canonical_out_facets = 0;
  std::uint64_t splits = 0;
  std::uint64_t split_copies = 0;
  std::uint64_t lap_scans = 0;
  std::uint64_t corollaries_fired = 0;
  std::uint64_t csp_nodes = 0;
  std::uint64_t homology_nodes = 0;
  std::uint64_t ladder_facets = 0;
  std::uint64_t images = 0;
  std::uint64_t search_nodes = 0;
  std::uint64_t rungs_searched = 0;
  std::uint64_t rungs_found = 0;
  std::uint64_t rungs_capped = 0;
  std::uint64_t store_consults = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t store_bytes = 0;

  double sum_ms() const;
};

enum class DecidedBy {
  kStore,           // verdict store hit
  kExact,           // two-process Proposition 5.4 CSP
  kObstruction,     // Corollary 5.5/5.6, post-split CSP or homology
  kChromaticProbe,  // chromatic decision map on Ch^r(I)
  kAgnosticProbe,   // color-agnostic map into T'
  kUndecided,
};

const char* to_string(DecidedBy by);

struct TracedOutcome {
  trichroma::Verdict verdict = trichroma::Verdict::Unknown;
  int radius = -1;
  DecidedBy decided_by = DecidedBy::kUndecided;
  std::size_t splits = 0;
  /// Highest chromatic-probe rung climbed; -1 when the probe never ran.
  int radius_reached = -1;
  /// Facets of Ch^r(I) per chromatic-probe rung climbed.
  std::vector<std::uint64_t> level_facets;
  /// Facets of Ch^1 of one top-dimensional input simplex (13 for a
  /// triangle, 3 for an edge) when the input complex is pure, else 0.
  std::uint64_t level_growth = 0;
};

/// Decides `task` layer by layer under `options` (threads = 1). With a
/// non-empty `store_dir` it consults and publishes like the pipeline, and
/// publishes `publish_report` — run_pipeline's report for the same task —
/// as the verdict record. Adds every layer's time and counts to `totals`.
TracedOutcome traced_decide(const trichroma::Task& task,
                            const trichroma::SolvabilityOptions& options,
                            const std::string& store_dir,
                            const trichroma::PipelineReport& publish_report,
                            LayerTotals& totals);

}  // namespace perfbench
