#include "traced.h"

#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/characterization.h"
#include "core/lap.h"
#include "core/obstructions.h"
#include "core/splitting.h"
#include "io/store.h"
#include "solver/map_search.h"
#include "tasks/canonical.h"
#include "tasks/fingerprint.h"
#include "topology/graph.h"
#include "topology/homology.h"
#include "topology/subdivision.h"

namespace perfbench {

using trichroma::Task;
using trichroma::Verdict;
using Clock = std::chrono::steady_clock;

namespace {

/// Adds the wall time of its scope to one layer's total.
class Span {
 public:
  explicit Span(double& total) : total_(total), start_(Clock::now()) {}
  ~Span() {
    total_ += std::chrono::duration<double, std::milli>(Clock::now() - start_)
                  .count();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double& total_;
  Clock::time_point start_;
};

std::uint64_t top_facets(const trichroma::SimplicialComplex& k) {
  const int top = k.dimension();
  return top < 0 ? 0 : k.count(top);
}

struct ProbeOutcome {
  bool found = false;
  int radius = -1;
  std::vector<std::uint64_t> level_facets;
  std::vector<std::shared_ptr<const trichroma::SubdividedComplex>> levels;
};

/// ProbeEngine::execute, unrolled: Δ-image population, then one ladder
/// level and one decision-map search per rung.
ProbeOutcome probe(const Task& task, bool chromatic,
                   const trichroma::SolvabilityOptions& options,
                   LayerTotals& totals) {
  trichroma::MapSearchOptions search;
  search.chromatic = chromatic;
  search.node_cap = options.node_cap;
  search.threads = 1;
  trichroma::DeltaImageCache images;
  search.image_cache = &images;
  trichroma::SubdivisionLadder ladder(*task.pool, task.input);
  ladder.set_threads(1);
  {
    Span span(totals.ms[kDeltaImages]);
    images.populate(task.delta, task.input.all_simplices(), 1);
  }
  totals.images += images.size();

  ProbeOutcome out;
  for (int r = 0; r <= options.max_radius; ++r) {
    std::shared_ptr<const trichroma::SubdividedComplex> domain;
    {
      Span span(totals.ms[kLadder]);
      domain = ladder.share(r);
    }
    const std::uint64_t facets = top_facets(domain->complex);
    totals.ladder_facets += facets;
    out.level_facets.push_back(facets);
    out.levels.push_back(domain);
    trichroma::MapSearchResult result;
    {
      Span span(totals.ms[kMapSearch]);
      result = trichroma::find_decision_map(*task.pool, *domain, task, search);
    }
    totals.search_nodes += result.nodes_explored;
    ++totals.rungs_searched;
    if (result.found) {
      ++totals.rungs_found;
      out.found = true;
      out.radius = r;
      break;
    }
    if (!result.domain_overflow && !result.exhausted) ++totals.rungs_capped;
  }
  return out;
}

/// Ch^1 facets of one top simplex of a pure input complex, else 0.
std::uint64_t level_growth(const trichroma::SimplicialComplex& input) {
  if (!input.is_pure()) return 0;
  switch (input.dimension()) {
    case 0:
      return 1;
    case 1:
      return 3;
    case 2:
      return 13;
    default:
      return 0;
  }
}

}  // namespace

const char* layer_prefix(Layer layer) {
  switch (layer) {
    case kFingerprint:
      return "tasks.fingerprint";
    case kStoreLoad:
      return "io.store.load";
    case kCanonicalize:
      return "tasks.canonicalize";
    case kBetti:
      return "topology.betti";
    case kLapScan:
      return "core.lap_scan";
    case kSplitLoop:
      return "core.split_loop";
    case kCorollaries:
      return "core.corollaries";
    case kConnectivityCsp:
      return "core.connectivity_csp";
    case kHomologyCheck:
      return "core.homology_check";
    case kDeltaImages:
      return "solver.delta_images";
    case kLadder:
      return "topology.ladder";
    case kMapSearch:
      return "solver.map_search";
    case kStorePublish:
      return "io.store.publish";
    case kLayerCount:
      break;
  }
  return "?";
}

double LayerTotals::sum_ms() const {
  double sum = 0.0;
  for (double v : ms) sum += v;
  return sum;
}

const char* to_string(DecidedBy by) {
  switch (by) {
    case DecidedBy::kStore:
      return "store_hit";
    case DecidedBy::kExact:
      return "exact";
    case DecidedBy::kObstruction:
      return "obstruction";
    case DecidedBy::kChromaticProbe:
      return "chromatic_probe";
    case DecidedBy::kAgnosticProbe:
      return "agnostic_probe";
    case DecidedBy::kUndecided:
      return "undecided";
  }
  return "?";
}

TracedOutcome traced_decide(const Task& task,
                            const trichroma::SolvabilityOptions& options,
                            const std::string& store_dir,
                            const trichroma::PipelineReport& publish_report,
                            LayerTotals& totals) {
  if (task.num_processes != 2 && task.num_processes != 3) {
    throw std::invalid_argument("traced_decide: only 2- and 3-process tasks");
  }
  TracedOutcome out;
  out.level_growth = level_growth(task.input);
  const std::string schedule = task.num_processes == 2 ? "exact" : "ladder";

  // Store consult (pipeline.cpp: fingerprint, exact-key load, sibling scan,
  // artifact loads). A failure degrades to store-off, as in the pipeline.
  // The benchmark's stores never hold budget siblings or artifacts without
  // a record, so the warm-start tiers never fire and are not replayed.
  std::unique_ptr<trichroma::io::VerdictStore> store;
  trichroma::FingerprintResult fp;
  std::string digest;
  if (!store_dir.empty()) {
    try {
      {
        Span span(totals.ms[kFingerprint]);
        fp = trichroma::fingerprint_task(task);
      }
      totals.fingerprint_leaves += fp.stats.leaves;
      trichroma::PipelineReport stored;
      bool hit = false;
      {
        Span span(totals.ms[kStoreLoad]);
        digest = trichroma::io::options_digest(options, schedule);
        store = std::make_unique<trichroma::io::VerdictStore>(store_dir);
        hit = store->load_verdict(fp.fingerprint, digest, &stored);
        if (!hit) {
          store->scan_siblings(fp.fingerprint);
          if (schedule == "ladder") {
            std::string body;
            store->load_artifact(fp.fingerprint, "ladder.levels", &body);
            store->load_artifact(fp.fingerprint, "delta.images", &body);
          }
        }
      }
      ++totals.store_consults;
      if (hit) {
        ++totals.store_hits;
        out.verdict = stored.verdict;
        out.radius = stored.radius;
        out.decided_by = DecidedBy::kStore;
        return out;
      }
    } catch (...) {
      store.reset();
    }
  }

  // Publication (pipeline.cpp's publish lambda): the verdict record when
  // conclusive, plus the ladder artifact when the chromatic probe climbed
  // past Ch^0, plus the Δ-image artifact.
  const auto publish = [&](const ProbeOutcome* chromatic) {
    if (store == nullptr) return;
    const bool conclusive = out.verdict != Verdict::Unknown;
    const bool climbed = chromatic != nullptr && chromatic->levels.size() >= 2;
    if (!conclusive && !climbed) return;
    const std::uint64_t before = store->bytes_written();
    {
      Span span(totals.ms[kStorePublish]);
      const trichroma::io::VerdictRecordBudget budget{
          options.max_radius, options.node_cap, options.use_characterization,
          options.reuse_subdivisions, options.reuse_images};
      if (conclusive) {
        store->store_verdict(fp.fingerprint, digest, publish_report, budget);
      }
      if (climbed) {
        const std::string body = trichroma::io::serialize_ladder_levels(
            task, fp.labeling, chromatic->levels);
        std::string existing;
        const std::size_t existing_depth =
            store->load_artifact(fp.fingerprint, "ladder.levels", &existing)
                ? trichroma::io::ladder_levels_count(existing)
                : 0;
        if (trichroma::io::ladder_levels_count(body) > existing_depth) {
          store->store_artifact(fp.fingerprint, "ladder.levels", body);
        }
      }
      store->store_artifact(fp.fingerprint, "delta.images",
                            trichroma::io::serialize_delta_images(task, fp.labeling));
    }
    totals.store_bytes += store->bytes_written() - before;
  };

  // Two processes: Proposition 5.4's exact CSP.
  if (task.num_processes == 2) {
    trichroma::ConnectivityCsp csp;
    {
      Span span(totals.ms[kConnectivityCsp]);
      csp = trichroma::connectivity_csp(task, options.node_cap);
    }
    totals.csp_nodes += csp.nodes_explored;
    if (csp.feasible) {
      out.verdict = Verdict::Solvable;
    } else if (csp.exhausted) {
      out.verdict = Verdict::Unsolvable;
    }
    if (out.verdict != Verdict::Unknown) out.decided_by = DecidedBy::kExact;
    publish(nullptr);
    return out;
  }

  // Impossibility chain on a lane clone (characterize interns into it).
  const Task lane = trichroma::clone_task(task);
  trichroma::CharacterizationResult cr;
  {
    Span span(totals.ms[kCanonicalize]);
    cr.canonical = trichroma::canonicalize(lane);
  }
  totals.canonical_out_facets += top_facets(cr.canonical.output);
  {
    Span span(totals.ms[kBetti]);
    cr.output_components_before = trichroma::component_count(cr.canonical.output);
    cr.output_betti_before = trichroma::betti_numbers(cr.canonical.output);
  }

  // make_link_connected, unrolled: per input facet, scan for the first LAP
  // and split it until none is left.
  Task current;
  {
    Span span(totals.ms[kSplitLoop]);
    if (!cr.canonical.is_canonical()) {
      throw std::logic_error("traced_decide: canonicalize output not canonical");
    }
    current = cr.canonical;
  }
  const std::vector<trichroma::Simplex> facets =
      current.input.simplices(current.input.dimension());
  for (const trichroma::Simplex& sigma : facets) {
    while (true) {
      std::optional<trichroma::LapRecord> lap;
      {
        Span span(totals.ms[kLapScan]);
        lap = trichroma::first_lap(current, sigma);
      }
      ++totals.lap_scans;
      if (!lap.has_value()) break;
      Span span(totals.ms[kSplitLoop]);
      trichroma::SplitResult split = trichroma::split_lap(current, *lap);
      totals.split_copies += split.copies.size();
      cr.splits.push_back(trichroma::SplitEvent{
          lap->facet, lap->vertex, lap->link_components.size(), split.copies});
      current = std::move(split.task);
    }
  }
  cr.link_connected = std::move(current);
  out.splits = cr.splits.size();
  totals.splits += cr.splits.size();
  {
    Span span(totals.ms[kBetti]);
    cr.output_components_after = trichroma::component_count(cr.link_connected.output);
    cr.output_betti_after = trichroma::betti_numbers(cr.link_connected.output);
  }
  {
    // CharacterizeEngine renders this summary; it re-checks link
    // connectivity over every input facet.
    Span span(totals.ms[kLapScan]);
    cr.report(*lane.pool);
  }
  const Task& tstar = cr.canonical;
  const Task& tp = cr.link_connected;

  bool impossible = false;
  {
    Span span(totals.ms[kCorollaries]);
    const trichroma::CorollaryResult c55 = trichroma::corollary_5_5(tstar);
    const trichroma::CorollaryResult c56 = trichroma::corollary_5_6(tstar);
    totals.corollaries_fired += (c55.fires ? 1 : 0) + (c56.fires ? 1 : 0);
    impossible = c55.fires || c56.fires;
  }
  trichroma::ConnectivityCsp csp;
  {
    Span span(totals.ms[kConnectivityCsp]);
    csp = trichroma::connectivity_csp(tp, options.node_cap);
  }
  totals.csp_nodes += csp.nodes_explored;
  if (!csp.feasible && csp.exhausted) {
    impossible = true;
  } else {
    trichroma::HomologyObstruction hom;
    {
      Span span(totals.ms[kHomologyCheck]);
      hom = trichroma::homology_boundary_check(tp, {2, 3}, options.node_cap);
    }
    totals.homology_nodes += hom.nodes_explored;
    impossible = impossible || (!hom.feasible && hom.exhausted);
  }
  if (impossible) {
    out.verdict = Verdict::Unsolvable;
    out.decided_by = DecidedBy::kObstruction;
    publish(nullptr);
    return out;
  }

  // Possibility side: the chromatic probe on the task itself, then the
  // color-agnostic probe on T'.
  const ProbeOutcome chromatic = probe(task, true, options, totals);
  out.level_facets = chromatic.level_facets;
  out.radius_reached = static_cast<int>(out.level_facets.size()) - 1;
  if (chromatic.found) {
    out.verdict = Verdict::Solvable;
    out.radius = chromatic.radius;
    out.decided_by = DecidedBy::kChromaticProbe;
  } else {
    const ProbeOutcome agnostic = probe(tp, false, options, totals);
    if (agnostic.found) {
      out.verdict = Verdict::Solvable;
      out.radius = agnostic.radius;
      out.decided_by = DecidedBy::kAgnosticProbe;
    }
  }
  publish(&chromatic);
  return out;
}

}  // namespace perfbench
