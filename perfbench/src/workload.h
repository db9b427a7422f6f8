#pragma once
// The four benchmark workloads. Each one is a source of task passes plus the
// verdict-store policy the pipeline runs under; see perfbench/README.md for
// why each was chosen and which layer it stresses.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "solver/pipeline.h"
#include "tasks/task.h"
#include "tasks/zoo.h"

namespace perfbench {

enum class WorkloadKind { kCatalogCold, kCatalogWarm, kRandomSplit, kDeepProbe };

std::optional<WorkloadKind> parse_workload(const std::string& name);

/// One task of a workload. `proto` is never handed to the pipeline: every
/// verdict runs on a clone_task copy, so each run starts from a pristine
/// vertex pool exactly like a freshly built task.
struct Item {
  std::string name;
  std::shared_ptr<const trichroma::Task> proto;
};

class Workload {
 public:
  /// `work_dir` holds this process's verdict stores; it must be empty.
  Workload(WorkloadKind kind, std::uint64_t seed, std::string work_dir);

  bool is_catalog() const {
    return kind_ == WorkloadKind::kCatalogCold ||
           kind_ == WorkloadKind::kCatalogWarm;
  }

  /// The per-verdict budget: the pipeline defaults at threads = 1 (the
  /// sequential kLadder schedule), with the workload's store, if any.
  const trichroma::SolvabilityOptions& options() const { return options_; }

  /// Store the traced decomposition consults and publishes to. It starts in
  /// the same state as options().cache_dir: the filled store on
  /// catalog_warm (read only), a second empty store on random_split.
  const std::string& traced_store() const { return traced_store_; }

  /// Builds or draws the tasks, fills the store (catalog_warm) and runs a
  /// warm-up pass that fills lazy library state (Ch templates, executor
  /// workers, store directories).
  void set_up(int jobs);

  /// The next sequential pass: the 21 catalog tasks, the two deep-probe
  /// tasks, or `random_draws` fresh random draws.
  std::vector<Item> next_pass(std::size_t random_draws = 1);

  /// Tasks for one parallel round on the non-catalog workloads (the catalog
  /// workloads go through run_batch instead).
  std::vector<Item> parallel_round(int jobs);

  /// Random draws skipped as duplicates of earlier draws, and draws emitted.
  std::size_t dedup_skips() const;
  std::size_t draws() const;

 private:
  WorkloadKind kind_;
  std::uint64_t seed_;
  std::string work_dir_;
  std::string traced_store_;
  trichroma::SolvabilityOptions options_;
  std::vector<Item> fixed_;  // catalog or deep-probe tasks
  std::unique_ptr<trichroma::zoo::RandomTaskStream> stream_;
  std::size_t draws_ = 0;
};

}  // namespace perfbench
