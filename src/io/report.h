#pragma once
// Structured JSON rendering of a pipeline run (solver/pipeline.h).
//
// The schema is versioned: every document carries
//   "schema": "trichroma.pipeline-report/11"
// and consumers should dispatch on it. Version 11 dropped the metrics
// "executor" sub-object: pipelines never run on the batch pool, so the
// per-run deltas were always zero. Version 10 dropped the metrics
// "ladder" sub-object (parallel ladder-build telemetry, gone with the
// parallel build) and the lane-race schedule value: the pipeline always
// runs the sequential ladder, so every engine status is a pure function of
// the task and budget. Version 9 added per-run
// attribution (Telemetry v2): each engine carries its deterministic
// "domain_sizes" histogram (base-2 bucketed CSP candidate-domain sizes,
// rendered `{ "count", "sum", "buckets": [..] }` on one line) and
// "level_facets" ladder profile (top-dimensional facet count of Ch^r per
// level climbed), and a top-level "run" object carries the phase latency
// breakdown ("phases": consult/engines/publish wall clocks, zeroed under
// redact_timings), the cache tier + seeded levels (a single `"cache":`
// line, same grep contract as below), and deterministic rollups of the
// per-engine distributions. Version 6 added the verdict-store
// surface: a top-level "cache": "off" | "hit" | "miss" marker and a
// "cache" rollup inside "metrics" ({ "hits", "misses", "store_bytes" }).
// Both render on single lines containing the token `"cache":` — and no
// other key produces that token — so warm-vs-cold byte comparisons can
// strip every cache-dependent field with `grep -v '"cache":'`. A cache-hit
// report is byte-identical to the cold run it replays apart from those
// lines (wall clocks are zero in the record; redact_timings zeroes them in
// cold runs). Version 5 added the per-engine
// "domain_overflow" array (probe rungs whose CSP exceeded the 64-value
// word-parallel domain width — a representation limit distinct from a
// budget cap) and the executor's "help_runs" counter (tasks drained inline
// by a blocked wait()). Version 4 added the "metrics"
// section: deterministic rollups over the engines (node and cache totals,
// identical at every thread count) plus the shared executor's scheduling
// telemetry (zeroed under `redact_timings`; dropped in v11). Version 3
// dropped the options' "threads"/"threads_resolved" fields (every solver
// quantity in the report is thread-count independent since the canonical
// prefix accounting; the worker count only produced spurious diffs) and
// added the resolved lane "schedule". Version 2 was v1 + the explicit
// "characterization" marker — previously an absent payload was
// indistinguishable from a lane that never ran:
//
//   {
//     "schema": "trichroma.pipeline-report/11",
//     "task": { "name", "num_processes", "input_facets", "output_facets" },
//     "options": { "max_radius", "node_cap", "use_characterization",
//                  "reuse_subdivisions", "reuse_images" },
//     "schedule": "exact" | "ladder",
//     "cache": "off" | "hit" | "miss",
//     "verdict": "SOLVABLE" | "UNSOLVABLE" | "UNKNOWN",
//     "reason": string,
//     "radius": int,                  // -1 when no map search witness
//     "via_characterization": bool,
//     "characterization": "computed" | "not-computed",
//         // whether the characterization engine ran; "not-computed"
//         // when the route is disabled or the task is not three-process
//     "total_wall_ms": number,
//     "run": {
//       "phases": { "consult_ms", "engines_ms", "publish_ms" },
//           // wall clocks, zeroed under redact_timings; phases a run
//           // never entered stay 0 (e.g. engines on a cache hit)
//       "cache": { "tier": "off"|"hit"|"artifacts"|"miss",
//                  "seeded_levels": int },   // one `"cache":` line
//       "domain_sizes": { "count", "sum", "buckets": [..] },
//           // merged over engines; deterministic
//       "ladder_levels": [ int ]
//           // Ch^r top-facet counts from the first engine that climbed
//     },
//     "metrics": {
//       "nodes_explored_total": int,   // sum over engines (deterministic)
//       "image_cache": { "hits", "misses" },   // sums over engines
//       "edge_masks": { "hits", "misses" },    // sums over engines
//       "cache": { "hits", "misses", "store_bytes" }
//           // verdict-store rollup, rendered on one line (see above)
//     },
//     "engines": [ {
//       "name", "side", "status", "precedence",
//           // status: "conclusive" | "inconclusive" | "completed" |
//           //         "skipped"
//       "verdict": string | null,     // only conclusive engines
//       "reason", "detail",
//       "radius_reached", "witness_radius",
//       "nodes_explored",
//       "image_cache": { "hits", "misses" },
//       "edge_masks": { "hits", "misses" },
//       "capped": [ string ],
//       "domain_overflow": [ string ],
//       "domain_sizes": { "count", "sum", "buckets": [..] },  // one line
//       "level_facets": [ int ],                              // one line
//       "wall_ms": number
//     } ]
//   }
//
// The emitter is hand-rolled (no third-party JSON dependency) and produces
// deterministic, stably ordered output — with `redact_timings` the document
// is byte-for-byte reproducible at every `--jobs` value (the batch driver
// relies on this, and the golden test pins it).

#include <string>

#include "solver/pipeline.h"

namespace trichroma::io {

struct ReportJsonOptions {
  /// Zero every wall-clock field, for golden-file comparisons.
  bool redact_timings = false;
};

/// The schema identifier emitted by (this version of) to_json.
const char* report_schema();

/// Renders `report` as pretty-printed JSON (2-space indent, trailing
/// newline).
std::string to_json(const PipelineReport& report,
                    const ReportJsonOptions& options = {});

/// Escapes a string for embedding in JSON (without the surrounding quotes).
std::string json_escape(const std::string& s);

/// Writes `content` to `path`, throwing std::runtime_error on failure.
void write_text_file(const std::string& path, const std::string& content);

}  // namespace trichroma::io
