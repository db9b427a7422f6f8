// perfbench: end-to-end and per-layer benchmark of the trichroma verdict
// pipeline. Normally driven by perfbench/run.py, which builds this binary,
// repeats set-up, and prints the result line; see perfbench/README.md.
//
//   perfbench --mode run|trace|profile|setup --workload NAME --seed N
//             --seconds S --work-dir DIR
//
// Prints one JSON object on the last line of stdout. Exits 1 when any
// verdict is wrong, 2 on bad arguments.

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>

#include "checks.h"
#include "measure.h"
#include "solver/batch.h"
#include "traced.h"
#include "workload.h"

namespace {

using perfbench::Checker;
using Clock = std::chrono::steady_clock;

// Shares of --seconds per phase. The end-to-end run alternates sequential
// and parallel slices, so each metric samples the whole run rather than one
// stretch of it; the host's background load drifts over tens of seconds.
constexpr double kRunSequentialShare = 0.65;
constexpr double kRunParallelShare = 0.35;
constexpr int kRunSlices = 10;
constexpr double kTraceTracedShare = 0.6;
constexpr double kTraceSequentialShare = 0.25;
constexpr double kTraceParallelShare = 0.15;
// p99 needs at least 10 samples beyond it.
constexpr std::size_t kMinVerdicts = 1000;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::string work_dir;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--mode") {
        args.mode = value;
      } else if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--work-dir") {
        args.work_dir = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || args.work_dir.empty() || args.seconds <= 0.0 ||
      (args.mode != "run" && args.mode != "trace" && args.mode != "profile" &&
       args.mode != "setup")) {
    return std::nullopt;
  }
  return args;
}

/// Accumulates the metrics object of the result line.
class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    body_ += (body_.empty() ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + unit + "\"}";
  }
  std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double per(double total, std::size_t n) {
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void add_layer_metrics(Metrics& m, const perfbench::TracedPhase& t,
                       const perfbench::SequentialPhase& seq,
                       const perfbench::ParallelPhase& par, int jobs) {
  using perfbench::Layer;
  const perfbench::LayerTotals& l = t.totals;
  const std::size_t n = t.verdicts;
  const auto ms = [&](Layer layer) {
    m.add(std::string(perfbench::layer_prefix(layer)) + ".ms", per(l.ms[layer], n),
          "ms");
  };
  const auto count = [&](const char* name, std::uint64_t total) {
    m.add(name, per(static_cast<double>(total), n), "count");
  };
  ms(perfbench::kFingerprint);
  count("tasks.fingerprint.leaves", l.fingerprint_leaves);
  ms(perfbench::kCanonicalize);
  count("tasks.canonicalize.out_facets", l.canonical_out_facets);
  ms(perfbench::kSplitLoop);
  count("core.split_loop.splits", l.splits);
  count("core.split_loop.copies", l.split_copies);
  ms(perfbench::kLapScan);
  count("core.lap_scan.laps", l.lap_scans);
  ms(perfbench::kCorollaries);
  count("core.corollaries.fired", l.corollaries_fired);
  ms(perfbench::kConnectivityCsp);
  count("core.connectivity_csp.nodes", l.csp_nodes);
  ms(perfbench::kHomologyCheck);
  count("core.homology_check.nodes", l.homology_nodes);
  ms(perfbench::kBetti);
  ms(perfbench::kLadder);
  count("topology.ladder.facets", l.ladder_facets);
  ms(perfbench::kDeltaImages);
  count("solver.delta_images.images", l.images);
  ms(perfbench::kMapSearch);
  count("solver.map_search.nodes", l.search_nodes);
  m.add("solver.map_search.found_ratio",
        l.rungs_searched == 0 ? 0.0
                              : static_cast<double>(l.rungs_found) /
                                    static_cast<double>(l.rungs_searched),
        "ratio");
  m.add("solver.map_search.capped",
        per(static_cast<double>(l.rungs_capped + t.capped_verdicts),
            n + t.capped_verdicts),
        "count");
  m.add("solver.pipeline.unattributed_ms", per(t.pipeline_ms - l.sum_ms(), n), "ms");
  m.add("solver.pipeline.coverage",
        t.pipeline_ms > 0.0 ? l.sum_ms() / t.pipeline_ms : 0.0, "ratio");
  const double seq_rate = perfbench::percentile(seq.block_rates, 0.5);
  const double par_rate = perfbench::percentile(par.round_rates, 0.5);
  m.add("solver.batch.efficiency",
        seq_rate > 0.0 ? par_rate / (static_cast<double>(jobs) * seq_rate) : 0.0,
        "ratio");
  ms(perfbench::kStoreLoad);
  m.add("io.store.hit_ratio",
        l.store_consults == 0 ? 0.0
                              : static_cast<double>(l.store_hits) /
                                    static_cast<double>(l.store_consults),
        "ratio");
  ms(perfbench::kStorePublish);
  m.add("io.store.bytes_written", per(static_cast<double>(l.store_bytes), n),
        "bytes");
  m.add("io.report.ms", per(t.report_ms, n), "ms");
  m.add("io.report.bytes", per(static_cast<double>(t.report_bytes), n), "bytes");
  m.add("runtime.executor.jobs_run",
        per(static_cast<double>(par.exec.jobs_run), par.rounds), "count");
  m.add("runtime.executor.steals", per(static_cast<double>(par.exec.steals), par.rounds),
        "count");
  m.add("runtime.executor.help_runs",
        per(static_cast<double>(par.exec.help_runs), par.rounds), "count");
  m.add("trace_overhead",
        t.pipeline_ms > 0.0 ? (t.traced_ms - t.pipeline_ms) / t.pipeline_ms : 0.0,
        "ratio");
  std::printf("# traced: %zu verdicts; %zu node-capped verdicts excluded (%.1f ms)\n",
              n, t.capped_verdicts, t.capped_ms);
  std::printf(
      "# batch efficiency bases: tasks_per_s_nproc %.3f (%zu tasks, %zu rounds), "
      "tasks_per_s %.3f (%zu verdicts), jobs %d\n",
      par_rate, par.tasks, par.rounds, seq_rate, seq.verdict_ms.size(), jobs);
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  const std::optional<Args> args = parse_args(argc, argv);
  const std::optional<perfbench::WorkloadKind> kind =
      args.has_value() ? perfbench::parse_workload(args->workload) : std::nullopt;
  if (!kind.has_value()) {
    std::fprintf(stderr,
                 "usage: perfbench --mode run|trace|profile|setup --workload "
                 "catalog_cold|catalog_warm|random_split|deep_probe --seed N "
                 "--seconds S --work-dir DIR\n");
    return 2;
  }
  const int jobs = trichroma::resolve_batch_jobs(0);
  perfbench::Workload workload(*kind, args->seed, args->work_dir);
  workload.set_up(jobs);
  const double setup_s =
      std::chrono::duration<double>(Clock::now() - process_start).count();

  Checker checker;
  Metrics metrics;
  std::size_t attempted = 0;
  std::string profile = "null";
  const double s = args->seconds;

  if (args->mode == "run") {
    perfbench::SequentialPhase seq;
    perfbench::ParallelPhase par;
    for (int slice = 0; slice < kRunSlices; ++slice) {
      perfbench::run_sequential(workload, checker, kRunSequentialShare * s / kRunSlices,
                                0, s, seq);
      perfbench::run_parallel(workload, checker, kRunParallelShare * s / kRunSlices,
                              jobs, par);
    }
    // Top up to the p99 sample minimum on slow hosts.
    perfbench::run_sequential(workload, checker, 0.0, kMinVerdicts, s, seq);
    attempted = seq.verdict_ms.size() + par.tasks;
    metrics.add("verdict_ms_p50", perfbench::percentile(seq.verdict_ms, 0.50), "ms");
    metrics.add("verdict_ms_p99", perfbench::percentile(seq.verdict_ms, 0.99), "ms");
    metrics.add("tasks_per_s", perfbench::percentile(seq.block_rates, 0.5), "tasks/s");
    metrics.add("tasks_per_s_nproc", perfbench::percentile(par.round_rates, 0.5),
                "tasks/s");
    metrics.add("decided_share",
                1.0 - static_cast<double>(checker.undecided()) /
                          static_cast<double>(attempted),
                "ratio");
    metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
    metrics.add("setup_s", setup_s, "s");
    std::printf(
        "# samples: %zu sequential verdicts in %zu blocks, %zu parallel tasks in %zu "
        "rounds\n",
        seq.verdict_ms.size(), seq.block_rates.size(), par.tasks, par.rounds);
    std::printf("# node-capped chromatic probes: %zu verdicts, %.1f ms in total\n",
                seq.capped, seq.capped_ms);
  } else if (args->mode == "trace" || args->mode == "profile") {
    // Traced pass first, so its first pass sees the same draws as a
    // profile-only process.
    const bool profile_only = args->mode == "profile";
    const perfbench::TracedPhase traced =
        perfbench::run_traced(workload, checker, kTraceTracedShare * s, profile_only);
    attempted = traced.verdicts + traced.capped_verdicts;
    profile = traced.profile.to_json();
    if (traced.profile.growth_violations != 0) {
      checker.fail("Ch^r facet counts break the Kozlov growth law");
    }
    if (!profile_only) {
      perfbench::SequentialPhase seq;
      perfbench::ParallelPhase par;
      perfbench::run_sequential(workload, checker, kTraceSequentialShare * s, 0, s, seq);
      perfbench::run_parallel(workload, checker, kTraceParallelShare * s, jobs, par);
      attempted += seq.verdict_ms.size() + par.tasks;
      add_layer_metrics(metrics, traced, seq, par, jobs);
    }
  } else {
    metrics.add("setup_s", setup_s, "s");
  }

  std::printf(
      "{\"attempted\": %zu, \"failed\": %zu, \"undecided\": %zu, "
      "\"witnesses_verified\": %zu, \"draws\": %zu, \"dedup_skips\": %zu, "
      "\"jobs\": %d, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"profile\": %s, \"metrics\": %s}\n",
      attempted, checker.wrong(), checker.undecided(), checker.witnesses_verified(),
      workload.draws(), workload.dedup_skips(), jobs, PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, profile.c_str(), metrics.json().c_str());
  return checker.wrong() == 0 ? 0 : 1;
}
