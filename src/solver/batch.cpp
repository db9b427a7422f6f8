#include "solver/batch.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/executor.h"
#include "tasks/fingerprint.h"
#include "tasks/zoo.h"

namespace trichroma {

namespace {

std::size_t top_facet_count(const SimplicialComplex& k) {
  const int top = k.dimension();
  return top < 0 ? 0 : k.count(top);
}

/// Calls `body(i)` for every slot i < n, at most `jobs` at once: the caller
/// and up to `jobs - 1` pool jobs each run a loop that claims the next
/// unclaimed slot, so a slow slot never holds up the others.
template <typename Body>
void for_each_slot(int jobs, std::size_t n, const Body& body) {
  std::atomic<std::size_t> next{0};
  const auto loop = [&] {
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      body(i);
    }
  };
  if (jobs <= 1 || n <= 1) {
    loop();
    return;
  }
  Executor& executor = Executor::global();
  executor.ensure_workers(jobs - 1);
  JobGroup group(executor);
  const std::size_t extra =
      std::min<std::size_t>(static_cast<std::size_t>(jobs) - 1, n - 1);
  for (std::size_t w = 0; w < extra; ++w) group.submit(loop);
  loop();
  group.wait();
}

}  // namespace

int resolve_batch_jobs(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

BatchResult run_batch(const BatchOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const std::vector<zoo::CatalogEntry>& all = zoo::catalog();

  std::vector<const zoo::CatalogEntry*> selected;
  if (options.only.empty()) {
    selected.reserve(all.size());
    for (const zoo::CatalogEntry& e : all) selected.push_back(&e);
  } else {
    // Catalog order, not request order: the output contract is positional.
    for (const std::string& name : options.only) {
      bool known = false;
      for (const zoo::CatalogEntry& e : all) known |= name == e.name;
      if (!known) throw std::invalid_argument("unknown catalog task: " + name);
    }
    for (const zoo::CatalogEntry& e : all) {
      for (const std::string& name : options.only) {
        if (name == e.name) {
          selected.push_back(&e);
          break;
        }
      }
    }
  }

  const SolvabilityOptions& per_task = options.solve;

  BatchResult out;
  out.tasks.resize(selected.size());
  const int jobs = resolve_batch_jobs(options.jobs);

  // Cache mode: fingerprint pre-pass for intra-batch dedup (see the header
  // comment — isomorphic twins must not race to publish one store entry).
  // Each slot builds its own task (fresh pool, race-free) and fills only its
  // own row, so the builds fan out as pool jobs; the first_slot dedup
  // stays a sequential slot-order pass afterwards, which is what keeps
  // `dup_of` (and therefore every replayed report) independent of the job
  // count. A slot that fails to fingerprint simply runs cold like everyone
  // else.
  std::vector<int> dup_of(selected.size(), -1);
  std::vector<std::string> task_names(selected.size());
  std::vector<std::size_t> in_facets(selected.size(), 0);
  std::vector<std::size_t> out_facets(selected.size(), 0);
  if (!per_task.cache_dir.empty()) {
    TRI_SPAN("batch/fingerprint-prepass");
    std::vector<std::string> fp_hex(selected.size());
    for_each_slot(jobs, selected.size(), [&](std::size_t i) {
      try {
        const Task task = selected[i]->build();
        task_names[i] = task.name;
        in_facets[i] = top_facet_count(task.input);
        out_facets[i] = top_facet_count(task.output);
        fp_hex[i] = fingerprint_of(task).hex();
      } catch (...) {
      }
    });
    std::unordered_map<std::string, std::size_t> first_slot;
    for (std::size_t i = 0; i < selected.size(); ++i) {
      if (fp_hex[i].empty()) continue;  // build threw: no dedup for this slot
      const auto [it, inserted] = first_slot.emplace(fp_hex[i], i);
      if (!inserted) dup_of[i] = static_cast<int>(it->second);
    }
  }

  // Heartbeat: liveness snapshots for long runs. `completed` counts slots
  // whose work is finished — dup slots count as soon as the drive loop skips
  // them (their replay is a post-join copy, not work). The writer spans the
  // whole drive phase and flushes a final snapshot when reset below.
  std::atomic<std::uint64_t> completed{0};
  std::unique_ptr<obs::HeartbeatWriter> heartbeat;
  if (!options.heartbeat_file.empty()) {
    heartbeat = std::make_unique<obs::HeartbeatWriter>(
        options.heartbeat_file, options.heartbeat_interval_s,
        [&completed, total = selected.size()] {
          return obs::HeartbeatProgress{
              completed.load(std::memory_order_relaxed),
              static_cast<std::uint64_t>(total)};
        });
  }

  // At most `jobs` pipelines run at once. Tasks are built inside the loop —
  // each owns a fresh pool, so the builds are race-free — and each writes
  // only its own slot.
  static obs::Counter& tasks_done =
      obs::MetricsRegistry::global().counter("batch.tasks");
  for_each_slot(jobs, selected.size(), [&](std::size_t i) {
    if (dup_of[i] >= 0) {  // replayed from its twin after the join
      completed.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    TRI_SPAN("batch/", selected[i]->name);
    const Task task = selected[i]->build();
    out.tasks[i].name = selected[i]->name;
    out.tasks[i].report = run_pipeline(task, per_task).report;
    tasks_done.add();
    completed.fetch_add(1, std::memory_order_relaxed);
  });

  // Isomorphic-twin replays: the dedup pre-pass runs in slot order, so a
  // dup's twin always has a lower index and its report is final here. The
  // replay keeps the twin's verdict-relevant slice (byte-identical contract)
  // and the dup's own display identity.
  for (std::size_t i = 0; i < selected.size(); ++i) {
    if (dup_of[i] < 0) continue;
    PipelineReport replay = out.tasks[static_cast<std::size_t>(dup_of[i])].report;
    // The built task's own name, exactly as a cold pipeline run would have
    // reported it (catalog keys and task names differ, e.g. "consensus3"
    // builds "consensus-3").
    replay.task_name = task_names[i];
    replay.input_facets = in_facets[i];
    replay.output_facets = out_facets[i];
    replay.cache = "hit";
    replay.cache_hits = 1;
    replay.cache_misses = 0;
    replay.cache_seeded_levels = 0;
    replay.cache_store_bytes = 0;
    replay.total_wall_ms = 0.0;
    // A twin replay did no consult/engine/publish work of its own; zero the
    // phase clocks like total_wall_ms (they are redacted in report files
    // anyway, but keep the in-memory report honest).
    replay.phase_consult_ms = 0.0;
    replay.phase_engines_ms = 0.0;
    replay.phase_publish_ms = 0.0;
    out.tasks[i].name = selected[i]->name;
    out.tasks[i].report = std::move(replay);
    obs::MetricsRegistry::global().counter("cache.hit").add();
  }

  // Final heartbeat flush (progress now reads done == total) and thread
  // join before the result is returned.
  heartbeat.reset();

  for (const BatchTaskResult& t : out.tasks) {
    out.unknown += t.report.verdict == Verdict::Unknown ? 1 : 0;
    out.cache_hits += t.report.cache_hits > 0 ? 1 : 0;
    out.cache_misses += t.report.cache_misses > 0 ? 1 : 0;
    out.cache_artifacts += t.report.cache == "artifacts" ? 1 : 0;
  }
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return out;
}

}  // namespace trichroma
