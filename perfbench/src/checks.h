#pragma once
// Verdict checks, applied outside every timed region.
//
//  - A hand-written table of known answers (known_answer), taken from the
//    paper and the classical results, never from a run of this program.
//  - Every chromatic witness is model-checked against every IIS execution
//    by protocols::verify_decision_map. A witness equal to one already
//    verified for the same task (same prototype, hence the same vertex ids)
//    is accepted by that equality instead of being re-run.
//
// random_split has no oracle: its Unsolvable verdicts are checked only for
// agreement between the traced decomposition and run_pipeline until the
// pipeline emits checkable certificates.

#include <cstddef>
#include <map>
#include <optional>
#include <string>

#include "solver/engine.h"
#include "solver/pipeline.h"
#include "tasks/task.h"
#include "topology/chromatic.h"

namespace perfbench {

/// The known verdict of a named benchmark task, if the table has one.
std::optional<trichroma::Verdict> known_answer(const std::string& name);

class Checker {
 public:
  /// Checks one run_pipeline result on `task` (the clone it ran on, whose
  /// pool the witness refers to). Returns false on a wrong verdict or a
  /// failed witness.
  bool check(const std::string& name, const trichroma::Task& task,
             const trichroma::PipelineResult& result);

  /// Verdict-only check, for run_batch reports (they carry no witness).
  bool check_report(const std::string& name,
                    const trichroma::PipelineReport& report);

  /// Records an Unknown verdict or a thrown exception.
  void count_undecided() { ++undecided_; }

  /// Records a failure found by another check (e.g. a traced verdict that
  /// differs from run_pipeline's).
  void fail(const std::string& what);

  std::size_t wrong() const { return wrong_; }
  std::size_t undecided() const { return undecided_; }
  std::size_t witnesses_verified() const { return verified_runs_; }

 private:
  std::map<std::string, trichroma::VertexMap> verified_;
  std::size_t wrong_ = 0;
  std::size_t undecided_ = 0;
  std::size_t verified_runs_ = 0;
};

}  // namespace perfbench
