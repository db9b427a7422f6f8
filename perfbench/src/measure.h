#pragma once
// The three measurement phases of a run. All load comes from this one
// process in a closed loop: one task at a time (sequential), then whole-task
// pipelines at jobs = nproc (parallel), then the traced decomposition.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "runtime/executor.h"
#include "traced.h"
#include "workload.h"

namespace perfbench {

struct SequentialPhase {
  /// Wall time of every run_pipeline call, measured outside the call.
  std::vector<double> verdict_ms;
  /// Verdicts per second of loop time (cloning the task plus run_pipeline)
  /// in each block of whole passes holding at least 20 verdicts.
  std::vector<double> block_rates;
  /// Verdicts whose chromatic probe stopped on the node cap, and their time.
  std::size_t capped = 0;
  double capped_ms = 0.0;
  /// The block still being filled.
  std::size_t block_verdicts = 0;
  double block_ms = 0.0;
};

/// Adds whole passes to `out` until `budget_s` of wall time has passed and
/// `out` holds at least `min_verdicts` verdicts, or `cap_s` has passed.
void run_sequential(Workload& workload, Checker& checker, double budget_s,
                    std::size_t min_verdicts, double cap_s, SequentialPhase& out);

struct ParallelPhase {
  std::size_t tasks = 0;
  std::size_t rounds = 0;
  /// Tasks per second of each round (one run_batch call or one round of
  /// whole-task pipelines).
  std::vector<double> round_rates;
  /// Executor::global().stats() deltas summed over the rounds.
  trichroma::ExecutorStats exec;
};

/// Adds rounds to `out` until `budget_s` has passed (at least one round).
/// Catalog workloads: one run_batch over the catalog at `jobs`. Others: the
/// same shape (jobs - 1 task loops on the shared executor plus the caller)
/// over one of the workload's parallel rounds.
void run_parallel(Workload& workload, Checker& checker, double budget_s,
                  int jobs, ParallelPhase& out);

/// Deterministic input profile of one traced pass.
struct Profile {
  std::size_t tasks = 0;
  std::map<std::string, std::size_t> decided_by;
  std::size_t splits = 0;
  std::size_t tasks_with_splits = 0;
  std::size_t max_splits = 0;
  /// radius_reached[r + 1] = tasks whose chromatic probe climbed to Ch^r;
  /// index 0 counts tasks the probe never ran on.
  std::vector<std::size_t> radius_reached;
  /// Ch^r(I) facets per level, summed over chromatic probes.
  std::vector<std::uint64_t> level_facets;
  /// Probes whose level sizes broke F(r+1) = growth * F(r) on a pure input.
  std::size_t growth_violations = 0;

  std::string to_json() const;
};

struct TracedPhase {
  /// Layer totals over `verdicts`: every traced verdict except those whose
  /// chromatic probe stopped on the node cap (about one random draw in
  /// 1200, 1-2 s each), which would otherwise swamp every mean. Those are
  /// counted in `capped_verdicts`, with their layer time in `capped_ms`.
  LayerTotals totals;
  std::size_t verdicts = 0;
  std::size_t capped_verdicts = 0;
  double capped_ms = 0.0;
  /// Σ run_pipeline wall time and Σ traced_decide wall time, same tasks.
  double pipeline_ms = 0.0;
  double traced_ms = 0.0;
  /// Rendering run_pipeline's report with io::to_json.
  double report_ms = 0.0;
  std::uint64_t report_bytes = 0;
  /// The first pass only.
  Profile profile;
};

/// Per task: run_pipeline (timed), then traced_decide on a fresh clone
/// (timed per layer), then report rendering. Checks the pipeline's verdict
/// and that the traced verdict and radius equal it. Whole passes until
/// `budget_s` has passed; with `first_pass_only`, exactly one pass.
TracedPhase run_traced(Workload& workload, Checker& checker, double budget_s,
                       bool first_pass_only);

/// Nearest-rank percentile (q in (0, 1]) of `samples`.
double percentile(std::vector<double> samples, double q);

}  // namespace perfbench
