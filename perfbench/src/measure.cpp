#include "measure.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <optional>
#include <utility>

#include "io/report.h"
#include "solver/batch.h"
#include "solver/pipeline.h"

namespace perfbench {

using trichroma::PipelineResult;
using trichroma::Task;
using trichroma::Verdict;
using Clock = std::chrono::steady_clock;

namespace {

// Random draws per traced pass (the profile covers the first pass).
constexpr std::size_t kRandomTracedPass = 100;
// Verdicts per sequential throughput block (whole passes are kept whole).
constexpr std::size_t kBlockVerdicts = 20;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_since(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

trichroma::ExecutorStats stats_delta(const trichroma::ExecutorStats& before,
                                     const trichroma::ExecutorStats& after) {
  trichroma::ExecutorStats d;
  d.jobs_run = after.jobs_run - before.jobs_run;
  d.steals = after.steals - before.steals;
  d.injections = after.injections - before.injections;
  d.help_runs = after.help_runs - before.help_runs;
  d.max_queue_depth = after.max_queue_depth;
  return d;
}

void add_stats(trichroma::ExecutorStats& sum, const trichroma::ExecutorStats& d) {
  sum.jobs_run += d.jobs_run;
  sum.steals += d.steals;
  sum.injections += d.injections;
  sum.help_runs += d.help_runs;
  sum.max_queue_depth = std::max(sum.max_queue_depth, d.max_queue_depth);
}

/// True when the chromatic probe stopped on its node cap at some rung.
bool probe_capped(const trichroma::PipelineReport& report) {
  for (const trichroma::EngineReport& e : report.engines) {
    if (e.name == "chromatic-probe" && !e.capped.empty()) return true;
  }
  return false;
}

/// Checks one verdict outside the timed region; Unknown counts undecided.
void check_result(Checker& checker, const std::string& name, const Task& task,
                  const std::optional<PipelineResult>& result) {
  if (!result.has_value()) {
    checker.count_undecided();
    return;
  }
  checker.check(name, task, *result);
}

/// Whole-task pipelines over `tasks` on the shared executor: jobs - 1
/// submitted task loops plus the caller's, as run_batch schedules them.
std::vector<std::optional<PipelineResult>> decide_parallel(
    const std::vector<Task>& tasks, const trichroma::SolvabilityOptions& options,
    int jobs) {
  std::vector<std::optional<PipelineResult>> results(tasks.size());
  std::atomic<std::size_t> next{0};
  const auto drive = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks.size()) return;
      try {
        results[i] = trichroma::run_pipeline(tasks[i], options);
      } catch (const std::exception&) {
        // Left empty: counted as undecided by the caller.
      }
    }
  };
  trichroma::Executor& executor = trichroma::Executor::global();
  const std::size_t extra = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(jobs, 1)) - 1,
      tasks.empty() ? 0 : tasks.size() - 1);
  executor.ensure_workers(static_cast<int>(extra));
  trichroma::JobGroup group(executor);
  for (std::size_t w = 0; w < extra; ++w) group.submit(drive);
  drive();
  group.wait();
  return results;
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(samples.size(), static_cast<std::size_t>(rank)) - 1;
  return samples[index];
}

void run_sequential(Workload& workload, Checker& checker, double budget_s,
                    std::size_t min_verdicts, double cap_s, SequentialPhase& out) {
  const Clock::time_point start = Clock::now();
  while (true) {
    const double elapsed = seconds_since(start);
    if ((elapsed >= budget_s && out.verdict_ms.size() >= min_verdicts) ||
        elapsed >= cap_s) {
      break;
    }
    for (const Item& item : workload.next_pass()) {
      const Clock::time_point t0 = Clock::now();
      const Task task = trichroma::clone_task(*item.proto);
      std::optional<PipelineResult> result;
      const Clock::time_point t1 = Clock::now();
      try {
        result = trichroma::run_pipeline(task, workload.options());
      } catch (const std::exception&) {
      }
      const Clock::time_point t2 = Clock::now();
      out.verdict_ms.push_back(ms_between(t1, t2));
      ++out.block_verdicts;
      out.block_ms += ms_between(t0, t2);
      if (result.has_value() && probe_capped(result->report)) {
        ++out.capped;
        out.capped_ms += ms_between(t1, t2);
      }
      check_result(checker, item.name, task, result);
    }
    if (out.block_verdicts >= kBlockVerdicts) {
      out.block_rates.push_back(1000.0 * static_cast<double>(out.block_verdicts) /
                                out.block_ms);
      out.block_verdicts = 0;
      out.block_ms = 0.0;
    }
  }
}

void run_parallel(Workload& workload, Checker& checker, double budget_s,
                  int jobs, ParallelPhase& out) {
  const Clock::time_point start = Clock::now();
  for (bool first = true; first || seconds_since(start) < budget_s; first = false) {
    const trichroma::ExecutorStats before = trichroma::Executor::global().stats();
    if (workload.is_catalog()) {
      trichroma::BatchOptions batch;
      batch.solve = workload.options();
      batch.jobs = jobs;
      const Clock::time_point t0 = Clock::now();
      const trichroma::BatchResult result = trichroma::run_batch(batch);
      out.round_rates.push_back(1000.0 * static_cast<double>(result.tasks.size()) /
                                ms_between(t0, Clock::now()));
      add_stats(out.exec, stats_delta(before, trichroma::Executor::global().stats()));
      out.tasks += result.tasks.size();
      for (const trichroma::BatchTaskResult& t : result.tasks) {
        checker.check_report(t.name, t.report);
      }
    } else {
      const std::vector<Item> round = workload.parallel_round(jobs);
      std::vector<Task> tasks;
      tasks.reserve(round.size());
      for (const Item& item : round) tasks.push_back(trichroma::clone_task(*item.proto));
      const Clock::time_point t0 = Clock::now();
      const std::vector<std::optional<PipelineResult>> results =
          decide_parallel(tasks, workload.options(), jobs);
      out.round_rates.push_back(1000.0 * static_cast<double>(tasks.size()) /
                                ms_between(t0, Clock::now()));
      add_stats(out.exec, stats_delta(before, trichroma::Executor::global().stats()));
      out.tasks += tasks.size();
      for (std::size_t i = 0; i < round.size(); ++i) {
        check_result(checker, round[i].name, tasks[i], results[i]);
      }
    }
    ++out.rounds;
  }
}

std::string Profile::to_json() const {
  std::string s = "{\"tasks\": " + std::to_string(tasks) + ", \"decided_by\": {";
  const char* sep = "";
  for (const auto& [by, n] : decided_by) {
    s.append(sep).append("\"").append(by).append("\": ").append(std::to_string(n));
    sep = ", ";
  }
  s.append("}, \"splits\": ").append(std::to_string(splits));
  s.append(", \"tasks_with_splits\": ").append(std::to_string(tasks_with_splits));
  s.append(", \"max_splits\": ").append(std::to_string(max_splits));
  s.append(", \"radius_reached\": {");
  sep = "";
  for (std::size_t i = 0; i < radius_reached.size(); ++i) {
    s.append(sep).append("\"");
    if (i == 0) {
      s.append("none");
    } else {
      s.append("r").append(std::to_string(i - 1));
    }
    s.append("\": ");
    s.append(std::to_string(radius_reached[i]));
    sep = ", ";
  }
  s.append("}, \"ch_facets_per_level\": [");
  sep = "";
  for (std::uint64_t facets : level_facets) {
    s.append(sep).append(std::to_string(facets));
    sep = ", ";
  }
  s.append("], \"growth_violations\": ").append(std::to_string(growth_violations));
  return s + "}";
}

TracedPhase run_traced(Workload& workload, Checker& checker, double budget_s,
                       bool first_pass_only) {
  TracedPhase out;
  const std::string& store = workload.traced_store();
  const Clock::time_point start = Clock::now();
  for (bool first = true; first || (!first_pass_only && seconds_since(start) < budget_s);
       first = false) {
    for (const Item& item : workload.next_pass(kRandomTracedPass)) {
      const Task reference_task = trichroma::clone_task(*item.proto);
      const Clock::time_point t0 = Clock::now();
      const PipelineResult reference =
          trichroma::run_pipeline(reference_task, workload.options());
      const Clock::time_point t1 = Clock::now();

      const Task task = trichroma::clone_task(*item.proto);
      const LayerTotals before = out.totals;
      const Clock::time_point t2 = Clock::now();
      const TracedOutcome traced = traced_decide(
          task, workload.options(), store, reference.report, out.totals);
      const Clock::time_point t3 = Clock::now();

      const std::string json = trichroma::io::to_json(reference.report);
      const Clock::time_point t4 = Clock::now();

      if (probe_capped(reference.report)) {
        ++out.capped_verdicts;
        out.capped_ms += out.totals.sum_ms() - before.sum_ms();
        out.totals = before;
      } else {
        ++out.verdicts;
        out.pipeline_ms += ms_between(t0, t1);
        out.traced_ms += ms_between(t2, t3);
        out.report_ms += ms_between(t3, t4);
        out.report_bytes += json.size();
      }

      check_result(checker, item.name, reference_task, reference);
      const bool radius_matters = reference.report.verdict == Verdict::Solvable;
      if (traced.verdict != reference.report.verdict ||
          (radius_matters && traced.radius != reference.report.radius)) {
        checker.fail(item.name + ": traced verdict " +
                     trichroma::to_string(traced.verdict) + " radius " +
                     std::to_string(traced.radius) + ", run_pipeline " +
                     trichroma::to_string(reference.report.verdict) + " radius " +
                     std::to_string(reference.report.radius));
      }

      if (!first) continue;
      Profile& p = out.profile;
      ++p.tasks;
      ++p.decided_by[to_string(traced.decided_by)];
      p.splits += traced.splits;
      p.tasks_with_splits += traced.splits > 0 ? 1 : 0;
      p.max_splits = std::max(p.max_splits, traced.splits);
      const std::size_t r_slot = static_cast<std::size_t>(traced.radius_reached + 1);
      if (p.radius_reached.size() <= r_slot) p.radius_reached.resize(r_slot + 1, 0);
      ++p.radius_reached[r_slot];
      for (std::size_t r = 0; r < traced.level_facets.size(); ++r) {
        if (p.level_facets.size() <= r) p.level_facets.resize(r + 1, 0);
        p.level_facets[r] += traced.level_facets[r];
        if (r > 0 && traced.level_growth != 0 &&
            traced.level_facets[r] !=
                traced.level_growth * traced.level_facets[r - 1]) {
          ++p.growth_violations;
        }
      }
    }
  }
  return out;
}

}  // namespace perfbench
