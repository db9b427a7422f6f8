#include "checks.h"

#include <cstdio>
#include <utility>

#include "protocols/verify.h"

namespace perfbench {

using trichroma::Verdict;

std::optional<Verdict> known_answer(const std::string& name) {
  static const std::map<std::string, Verdict> table = {
      // Zero communication suffices: every process decides from its own
      // input (identity), its known id (index renaming with 5 >= 3 names,
      // weak symmetry breaking with known ids), or the one output facet
      // every input facet shares (fig3's green facet, subdivision0).
      {"identity", Verdict::Solvable},
      {"renaming5", Verdict::Solvable},
      {"subdivision0", Verdict::Solvable},
      {"fig3", Verdict::Solvable},
      {"wsb3", Verdict::Solvable},
      // Ch^1(I) as the output complex: one IIS round is the protocol.
      {"subdivision1", Verdict::Solvable},
      // Approximate agreement is wait-free solvable for every span
      // (iterated midpoint rounds); two processes likewise.
      {"approx_agreement", Verdict::Solvable},
      {"approx_agreement_2", Verdict::Solvable},
      {"approx_agreement_3", Verdict::Solvable},
      {"approx_agreement_4", Verdict::Solvable},
      // Link-connected and contractible output: solvable by Theorem 5.1.
      {"fan6", Verdict::Solvable},
      // Loop agreement is solvable exactly when the loop is contractible
      // in the output complex (Herlihy–Rajsbaum).
      {"loop_filled", Verdict::Solvable},
      {"loop_hollow", Verdict::Unsolvable},
      {"loop_torus", Verdict::Unsolvable},
      {"loop_rp2", Verdict::Unsolvable},
      // Consensus (FLP, Herlihy; two processes by Proposition 5.4) and
      // (3,2)-set agreement (Borowsky–Gafni, Herlihy–Shavit,
      // Saks–Zaharoglou) are wait-free unsolvable; test-and-set has
      // consensus number 2, so 3-process test-and-set is too.
      {"consensus3", Verdict::Unsolvable},
      {"consensus_2", Verdict::Unsolvable},
      {"set_agreement_32", Verdict::Unsolvable},
      {"test_and_set3", Verdict::Unsolvable},
      // The paper: Fig. 1 majority consensus, the §6.1 hourglass (and its
      // twisted variant, refuted over GF(3)) and the §6.2 pinwheel.
      {"majority_consensus", Verdict::Unsolvable},
      {"hourglass", Verdict::Unsolvable},
      {"twisted_hourglass", Verdict::Unsolvable},
      {"pinwheel", Verdict::Unsolvable},
  };
  const auto it = table.find(name);
  if (it == table.end()) return std::nullopt;
  return it->second;
}

void Checker::fail(const std::string& what) {
  ++wrong_;
  if (wrong_ <= 10) std::fprintf(stderr, "perfbench: WRONG: %s\n", what.c_str());
}

bool Checker::check_report(const std::string& name,
                           const trichroma::PipelineReport& report) {
  if (report.verdict == Verdict::Unknown) count_undecided();
  const std::optional<Verdict> expected = known_answer(name);
  if (!expected.has_value() || report.verdict == Verdict::Unknown ||
      report.verdict == *expected) {
    return true;
  }
  fail(name + ": verdict " + trichroma::to_string(report.verdict) +
       ", known answer " + trichroma::to_string(*expected));
  return false;
}

bool Checker::check(const std::string& name, const trichroma::Task& task,
                    const trichroma::PipelineResult& result) {
  if (!check_report(name, result.report)) return false;
  if (!result.has_chromatic_witness) return true;
  const auto seen = verified_.find(name);
  if (seen != verified_.end() &&
      seen->second.entries() == result.witness.entries()) {
    return true;
  }
  ++verified_runs_;
  const trichroma::protocols::VerificationResult v =
      trichroma::protocols::verify_decision_map(task, result.witness,
                                                result.report.radius);
  if (!v.ok) {
    fail(name + ": witness fails IIS model check: " + v.first_failure);
    return false;
  }
  // Only fixed tasks recur; a random draw's witness is never seen again.
  if (known_answer(name).has_value()) {
    verified_.insert_or_assign(name, result.witness);
  }
  return true;
}

}  // namespace perfbench
