#pragma once
// The verdict pipeline: schedules AnalysisEngine units over a task and
// merges their reports into one deterministic verdict.
//
// Schedule. One fixed sequence, Theorem 5.1's decision procedure in order:
// the impossibility chain (characterize → Corollaries 5.5/5.6 → post-split
// CSP → homology), then the chromatic probe ladder, then the T'-agnostic
// probe on T' — all on the task itself and its pool, each skipped as soon
// as an earlier engine concludes. Tasks of four or more
// processes run the generic connectivity CSP, then the chromatic probe;
// two-process tasks run Proposition 5.4's exact engine alone.
//
// Determinism. Engines are sound, so possibility and impossibility can
// never both conclude; a fixed precedence order selects the reported
// verdict and reason. Every field of the report except wall clocks is a
// pure function of the task and budget.
// The only parallelism is whole tasks side by side (batch `--jobs`,
// solver/batch.h).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "solver/engine.h"
#include "tasks/task.h"

namespace trichroma {

struct SolvabilityOptions {
  int max_radius = 2;
  std::size_t node_cap = 20'000'000;
  /// Also try the characterization route (split + color-agnostic search)
  /// when the direct chromatic search fails.
  bool use_characterization = true;
  int threads = 0;  ///< Inert; kept only for perfbench/src/workload.cpp.
  /// Memoize Ch^r across the radius ladder (SubdivisionLadder) instead of
  /// recomputing every round from scratch at each radius. Off is only
  /// useful for benchmarking the cold path.
  bool reuse_subdivisions = true;
  /// Share Δ-image complexes across radii and probe modes (DeltaImageCache).
  bool reuse_images = true;
  /// Root directory of the content-addressed verdict store (io/store.h).
  /// Empty = caching off. When set, the pipeline fingerprints the task,
  /// consults the store before scheduling any engine, and publishes
  /// conclusive verdicts (plus ladder/Δ-image artifacts) after cold runs.
  /// NOT part of the cache key and never rendered into reports (store
  /// locations are machine-specific; reports must compare across machines).
  std::string cache_dir;
};

/// The whole pipeline run, serializable via io::to_json (schema
/// trichroma.pipeline-report/11).
struct PipelineReport {
  std::string task_name;
  int num_processes = 3;
  std::size_t input_facets = 0;
  std::size_t output_facets = 0;
  SolvabilityOptions options;
  /// "exact" (two-process branch) or "ladder" (everything else).
  std::string schedule = "ladder";
  Verdict verdict = Verdict::Unknown;
  std::string reason;
  /// Radius of the found decision map (when Solvable via map search).
  int radius = -1;
  bool via_characterization = false;
  /// Whether the characterization engine ran and produced a
  /// CharacterizationResult (three-process tasks with the route enabled).
  /// Reports render it as an explicit "characterization": "computed" |
  /// "not-computed" marker so consumers never have to guess what an absent
  /// payload means.
  bool characterization_computed = false;
  double total_wall_ms = 0.0;
  /// Phase latency breakdown for the run record (schema v9's "run" object):
  /// store consult + warm-start seeding, engine execution, publication.
  /// Wall-clock quantities — zeroed under redact_timings exactly like
  /// total_wall_ms. Phases a run never entered stay 0 (e.g. engines on a
  /// cache hit).
  double phase_consult_ms = 0.0;
  double phase_engines_ms = 0.0;
  double phase_publish_ms = 0.0;
  /// Verdict-store outcome: "off" (no cache_dir), "hit" (replayed from the
  /// store — or from an isomorphic twin earlier in the same batch),
  /// "artifacts" (warm-started on a budget-only miss: either a sibling
  /// record replayed verbatim, or stored ladder/Δ-image artifacts seeded
  /// the probe engines), "miss" (cold run, store consulted). Everything but
  /// the cache markers is byte-identical between "artifacts" and a cold
  /// run; reports render this and the cache metrics on lines containing
  /// `"cache":` so byte-comparisons can filter them.
  std::string cache = "off";
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// Ladder levels materialized from a stored artifact (counting Ch^0);
  /// 0 on cold runs and record replays. Cache telemetry only.
  int cache_seeded_levels = 0;
  /// Bytes published to the store by this run (record + artifacts).
  std::uint64_t cache_store_bytes = 0;
  /// One entry per schedulable engine, in canonical pipeline order (engines
  /// the schedule never started appear with status "skipped").
  std::vector<EngineReport> engines;
};

/// Pipeline output: the merged report plus the witness payload the
/// decide_solvability façade re-exposes.
struct PipelineResult {
  PipelineReport report;

  /// When Solvable via the direct chromatic probe: the witness map and its
  /// domain (shared with the probe's subdivision ladder; vertex ids live in
  /// the original task's pool).
  bool has_chromatic_witness = false;
  std::shared_ptr<const SubdividedComplex> witness_domain;
  VertexMap witness;

  /// The characterization engine's output, when it ran. The contained
  /// tasks share the original task's pool.
  std::shared_ptr<CharacterizationResult> characterization;
  CorollaryResult cor55;
  CorollaryResult cor56;
};

/// Runs the full engine pipeline on `task`. decide_solvability is a thin
/// façade over this; call it directly to get the structured report.
PipelineResult run_pipeline(const Task& task,
                            const SolvabilityOptions& options = {});

}  // namespace trichroma
