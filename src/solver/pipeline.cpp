#include "solver/pipeline.h"

#include <chrono>
#include <memory>
#include <utility>

#include "io/store.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tasks/fingerprint.h"

namespace trichroma {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

EngineBudget budget_from(const SolvabilityOptions& options) {
  EngineBudget budget;
  budget.max_radius = options.max_radius;
  budget.node_cap = options.node_cap;
  budget.reuse_subdivisions = options.reuse_subdivisions;
  budget.reuse_images = options.reuse_images;
  return budget;
}

EngineReport make_skipped(const char* name, EngineSide side, int precedence) {
  EngineReport report;
  report.name = name;
  report.side = side;
  report.precedence = precedence;
  report.status = EngineStatus::Skipped;
  return report;
}

std::size_t facet_count(const SimplicialComplex& k) {
  const int top = k.dimension();
  return top < 0 ? 0 : k.count(top);
}

// Everything the impossibility lane produces.
struct ImpossibilityLane {
  EngineReport characterize =
      make_skipped("characterize", EngineSide::Support, 1);
  EngineReport cor55 = make_skipped("corollary-5.5", EngineSide::Impossibility,
                                    engine_precedence::kCorollary55);
  EngineReport cor56 = make_skipped("corollary-5.6", EngineSide::Impossibility,
                                    engine_precedence::kCorollary56);
  EngineReport csp =
      make_skipped("post-split-connectivity-csp", EngineSide::Impossibility,
                   engine_precedence::kPostSplitCsp);
  EngineReport homology =
      make_skipped("post-split-homology", EngineSide::Impossibility,
                   engine_precedence::kHomology);
  EngineReport agnostic =
      make_skipped("tp-agnostic-probe", EngineSide::Possibility,
                   engine_precedence::kAgnosticProbe);
  EngineReport generic =
      make_skipped("generic-connectivity-csp", EngineSide::Impossibility,
                   engine_precedence::kGenericConnectivity);

  std::shared_ptr<CharacterizationResult> characterization;
  CorollaryResult cor55_result;
  CorollaryResult cor56_result;
  int agnostic_radius = -1;
  bool concluded_impossible = false;
};

/// The n > 3 impossibility lane: just the generic pre-split CSP.
void run_generic_chain(const Task& task, const EngineBudget& budget,
                       ImpossibilityLane& lane) {
  GenericConnectivityEngine engine(task);
  lane.generic = engine.run(budget);
  lane.concluded_impossible = lane.generic.status == EngineStatus::Conclusive;
}

/// The three-process impossibility chain: characterize, then the obstruction
/// engines on T*/T'. Corollaries are evaluated before the CSPs (they feed
/// the result payload either way) but rank *after* them in precedence,
/// mirroring the pre-refactor ladder's check order; the homology engine is
/// skipped once the CSP already concluded, as the ladder returned early.
void run_impossibility_chain(const Task& task, const EngineBudget& budget,
                             ImpossibilityLane& lane) {
  CharacterizeEngine characterize(task);
  lane.characterize = characterize.run(budget);
  if (lane.characterize.status != EngineStatus::Completed) return;
  lane.characterization = characterize.result();
  const Task& tstar = lane.characterization->canonical;
  const Task& tp = lane.characterization->link_connected;

  Corollary55Engine cor55(tstar);
  lane.cor55 = cor55.run(budget);
  lane.cor55_result = cor55.result();

  Corollary56Engine cor56(tstar);
  lane.cor56 = cor56.run(budget);
  lane.cor56_result = cor56.result();

  PostSplitCspEngine csp(tp);
  lane.csp = csp.run(budget);
  if (lane.csp.status == EngineStatus::Conclusive) {
    lane.concluded_impossible = true;
    lane.homology = HomologyEngine(tp).skipped();
    return;
  }

  HomologyEngine homology(tp);
  lane.homology = homology.run(budget);
  lane.concluded_impossible =
      lane.cor55.status == EngineStatus::Conclusive ||
      lane.cor56.status == EngineStatus::Conclusive ||
      lane.homology.status == EngineStatus::Conclusive;
}

/// The color-agnostic probe on T' — the characterization's possibility
/// engine, run after the chromatic probe came up empty.
void run_agnostic_probe(const EngineBudget& budget, ImpossibilityLane& lane) {
  if (lane.characterization == nullptr) return;
  ProbeEngine probe(lane.characterization->link_connected,
                    ProbeKind::LinkConnectedAgnostic);
  lane.agnostic = probe.run(budget);
  if (lane.agnostic.status == EngineStatus::Conclusive) {
    lane.agnostic_radius = probe.found_radius();
  }
}

/// Deterministic merge: among conclusive engines the lowest precedence wins.
const EngineReport* best_conclusive(const std::vector<EngineReport>& engines) {
  const EngineReport* best = nullptr;
  for (const EngineReport& e : engines) {
    if (e.status != EngineStatus::Conclusive) continue;
    if (best == nullptr || e.precedence < best->precedence) best = &e;
  }
  return best;
}

void merge_unknown_reason(const SolvabilityOptions& options,
                          PipelineReport& report) {
  // Budget truncations and domain overflows, in classic ladder order:
  // chromatic rungs first, then the T'-agnostic rungs.
  std::vector<std::string> capped;
  std::vector<std::string> overflowed;
  for (const char* name : {"chromatic-probe", "tp-agnostic-probe"}) {
    for (const EngineReport& e : report.engines) {
      if (e.name != name) continue;
      capped.insert(capped.end(), e.capped.begin(), e.capped.end());
      overflowed.insert(overflowed.end(), e.overflowed.begin(),
                        e.overflowed.end());
    }
  }
  if (capped.empty() && overflowed.empty()) {
    report.reason = "no decision map up to radius " +
                    std::to_string(options.max_radius) +
                    " and no obstruction found";
    return;
  }
  auto join = [](const std::vector<std::string>& probes) {
    std::string which;
    for (const std::string& probe : probes) {
      which += (which.empty() ? "" : "; ") + probe;
    }
    return which;
  };
  std::string reason;
  if (!overflowed.empty()) {
    reason = "decision-map domain wider than 64 values (word-parallel CSP "
             "limit) for: " +
             join(overflowed);
  }
  if (!capped.empty()) {
    if (!reason.empty()) reason += "; ";
    reason += "search budget exhausted before a conclusion (node cap " +
              std::to_string(options.node_cap) + " hit by: " + join(capped) +
              ")";
  }
  report.reason = reason;
}

}  // namespace

PipelineResult run_pipeline(const Task& task, const SolvabilityOptions& options) {
  TRI_SPAN("pipeline/run");
  obs::MetricsRegistry::global().counter("pipeline.runs").add();
  const Clock::time_point start = Clock::now();
  PipelineResult out;
  PipelineReport& report = out.report;
  // Latency distributions across runs (observability only — wall clocks
  // never enter the deterministic report slice). Recorded on every exit.
  const auto record_latencies = [&report] {
    static obs::Histogram& wall =
        obs::MetricsRegistry::global().histogram("pipeline.wall_us");
    wall.record(static_cast<std::uint64_t>(report.total_wall_ms * 1000.0));
    static obs::Histogram& engine_wall =
        obs::MetricsRegistry::global().histogram("pipeline.engine_wall_us");
    for (const EngineReport& e : report.engines) {
      if (e.status != EngineStatus::Skipped)
        engine_wall.record(static_cast<std::uint64_t>(e.wall_ms * 1000.0));
    }
  };
  report.task_name = task.name;
  report.num_processes = task.num_processes;
  report.input_facets = facet_count(task.input);
  report.output_facets = facet_count(task.output);
  report.options = options;
  const EngineBudget budget = budget_from(options);

  // The schedule is part of the verdict-store key: "exact" (two processes)
  // and "ladder" reports have different engine lists.
  const bool characterize_route =
      options.use_characterization && task.num_processes == 3;
  const bool generic_route = task.num_processes > 3;
  const std::string schedule_str = task.num_processes == 2 ? "exact" : "ladder";

  // Verdict-store consult. Fingerprinting failure (or any store anomaly)
  // degrades to cache-off — the cache is an accelerator, never a gate.
  bool cache_enabled = !options.cache_dir.empty();
  TaskFingerprint fp;
  CanonicalLabeling labeling;
  std::string opt_digest;
  std::unique_ptr<io::VerdictStore> store;
  const io::VerdictRecordBudget record_budget{
      options.max_radius, options.node_cap, options.use_characterization,
      options.reuse_subdivisions, options.reuse_images};
  std::shared_ptr<const ProbeSeed> probe_seed;  // warm start, tier B
  if (cache_enabled) {
    try {
      FingerprintResult fr = fingerprint_task(task);
      fp = fr.fingerprint;
      labeling = std::move(fr.labeling);
      opt_digest = io::options_digest(options, schedule_str);
      store = std::make_unique<io::VerdictStore>(options.cache_dir);
      report.cache = "miss";
      if (store->load_verdict(fp, opt_digest, &report)) {
        // Hit: the record carries the verdict-relevant slice; display
        // metadata (name, shape) comes from the live task so isomorphic
        // twins replaying one record keep their own identity.
        report.task_name = task.name;
        report.num_processes = task.num_processes;
        report.input_facets = facet_count(task.input);
        report.output_facets = facet_count(task.output);
        report.cache = "hit";
        report.cache_hits = 1;
        obs::MetricsRegistry::global().counter("cache.hit").add();
        report.phase_consult_ms = ms_since(start);
        report.total_wall_ms = ms_since(start);
        record_latencies();
        return out;
      }
      report.cache_misses = 1;
      obs::MetricsRegistry::global().counter("cache.miss").add();

      // Warm start, tier A: sibling record replay. A stored run whose
      // budget differs from the live one in `max_radius` ALONE is
      // byte-identical to the live cold run whenever the stored outcome is
      // provably radius-invariant: the two-process engine never reads
      // max_radius, an Unsolvable verdict means the probe ladder was
      // skipped, and a chromatic-probe Solvable at radius k replays the
      // exact rungs 0..k any budget with max_radius >= k would climb.
      for (const io::SiblingVerdict& sibling : store->scan_siblings(fp)) {
        if (sibling.opt_digest == opt_digest) continue;
        if (sibling.report.schedule != schedule_str) continue;
        const io::VerdictRecordBudget& b = sibling.budget;
        if (b.max_radius == record_budget.max_radius ||
            b.node_cap != record_budget.node_cap ||
            b.use_characterization != record_budget.use_characterization ||
            b.reuse_subdivisions != record_budget.reuse_subdivisions ||
            b.reuse_images != record_budget.reuse_images) {
          continue;
        }
        bool replay_safe = schedule_str == "exact" ||
                           sibling.report.verdict == Verdict::Unsolvable;
        if (!replay_safe && sibling.report.verdict == Verdict::Solvable) {
          for (const EngineReport& e : sibling.report.engines) {
            if (e.precedence == engine_precedence::kChromaticProbe &&
                e.status == EngineStatus::Conclusive &&
                e.witness_radius >= 0 &&
                e.witness_radius <= options.max_radius) {
              replay_safe = true;
              break;
            }
          }
        }
        if (!replay_safe) continue;
        report.schedule = sibling.report.schedule;
        report.verdict = sibling.report.verdict;
        report.reason = sibling.report.reason;
        report.radius = sibling.report.radius;
        report.via_characterization = sibling.report.via_characterization;
        report.characterization_computed =
            sibling.report.characterization_computed;
        report.engines = sibling.report.engines;
        report.cache = "artifacts";
        obs::MetricsRegistry::global().counter("cache.artifacts").add();
        // Re-key under the live digest so the next identical run is an
        // exact hit.
        store->store_verdict(fp, opt_digest, report, record_budget);
        report.cache_store_bytes = store->bytes_written();
        obs::MetricsRegistry::global()
            .counter("cache.store_bytes")
            .add(store->bytes_written());
        report.phase_consult_ms = ms_since(start);
        report.total_wall_ms = ms_since(start);
        record_latencies();
        return out;
      }

      // Warm start, tier B: stored artifacts seed the chromatic probe. The
      // engine materializes them under the live identity inside execute()
      // and still climbs every rung, so verdict, reason, radius — and every
      // counter — match a cold run; only the ladder/Δ-image construction
      // work is saved.
      if (schedule_str == "ladder") {
        auto seed = std::make_shared<ProbeSeed>();
        std::string body;
        if (options.reuse_subdivisions &&
            store->load_artifact(fp, "ladder.levels", &body)) {
          seed->ladder_body = std::move(body);
        }
        body.clear();
        if (options.reuse_images &&
            store->load_artifact(fp, "delta.images", &body)) {
          seed->images_body = std::move(body);
        }
        if (!seed->ladder_body.empty() || !seed->images_body.empty()) {
          seed->labeling = labeling;
          probe_seed = std::move(seed);
        }
      }
    } catch (...) {
      cache_enabled = false;
      store.reset();
      probe_seed.reset();
      report.cache = "off";
      report.cache_misses = 0;
    }
  }
  report.phase_consult_ms = ms_since(start);
  const Clock::time_point engines_start = Clock::now();

  // Publishes a conclusive verdict plus reusable artifacts. Best effort: a
  // failed write leaves the report's store_bytes at whatever landed. Only
  // conclusive verdicts are stored as records — an Unknown is a budget
  // statement, not a property of the task — but a probe that climbed to
  // Ch^1 or beyond publishes its ladder/Δ-image artifacts EVEN on Unknown,
  // so a later deeper sweep resumes the tower instead of rebuilding it.
  // The ladder artifact ratchets: it is only overwritten by a strictly
  // deeper tower, so sweeps never regress the stored prefix.
  const auto publish = [&](const ProbeEngine* chromatic_probe) {
    if (!cache_enabled) return;
    const bool conclusive = report.verdict != Verdict::Unknown;
    const bool climbed = chromatic_probe != nullptr &&
                         chromatic_probe->computed_levels().size() >= 2;
    if (!conclusive && !climbed) return;
    if (conclusive) {
      store->store_verdict(fp, opt_digest, report, record_budget);
    }
    if (climbed) {
      const std::string body = io::serialize_ladder_levels(
          task, labeling, chromatic_probe->computed_levels());
      std::string existing;
      const std::size_t existing_depth =
          store->load_artifact(fp, "ladder.levels", &existing)
              ? io::ladder_levels_count(existing)
              : 0;
      if (io::ladder_levels_count(body) > existing_depth) {
        store->store_artifact(fp, "ladder.levels", body);
      }
    }
    store->store_artifact(fp, "delta.images",
                          io::serialize_delta_images(task, labeling));
    report.cache_store_bytes = store->bytes_written();
    obs::MetricsRegistry::global()
        .counter("cache.store_bytes")
        .add(store->bytes_written());
  };

  // Two processes: Proposition 5.4 decides exactly.
  if (task.num_processes == 2) {
    report.schedule = "exact";
    TwoProcessEngine engine(task);
    const EngineReport r = engine.run(budget);
    report.engines.push_back(r);
    if (r.status == EngineStatus::Conclusive) {
      report.verdict = r.verdict;
      report.reason = r.reason;
    } else {
      report.verdict = Verdict::Unknown;
      report.reason = r.detail;
    }
    report.phase_engines_ms = ms_since(engines_start);
    const Clock::time_point publish_start = Clock::now();
    publish(nullptr);
    report.phase_publish_ms = ms_since(publish_start);
    report.total_wall_ms = ms_since(start);
    record_latencies();
    return out;
  }

  report.schedule = schedule_str;
  obs::trace_instant("pipeline/schedule/", report.schedule.c_str());

  ProbeEngine chromatic(task, ProbeKind::DirectChromatic);
  if (probe_seed != nullptr) chromatic.set_seed(probe_seed);
  EngineReport chromatic_report = chromatic.skipped();
  ImpossibilityLane lane;

  // The ladder: impossibility chain, chromatic probe, T'-agnostic probe,
  // each side skipped once an earlier engine concluded. Every engine interns
  // into the task's own pool; characterize finishes before the chromatic
  // probe starts, and the probe's subdivision vertices keep their relative
  // id order, so the CSP variable order is the same as on a fresh pool.
  if (generic_route) {
    run_generic_chain(task, budget, lane);
    if (!lane.concluded_impossible) chromatic_report = chromatic.run(budget);
  } else if (characterize_route) {
    run_impossibility_chain(task, budget, lane);
    if (!lane.concluded_impossible) {
      chromatic_report = chromatic.run(budget);
      if (chromatic_report.status != EngineStatus::Conclusive) {
        run_agnostic_probe(budget, lane);
      }
    }
  } else {
    chromatic_report = chromatic.run(budget);
  }

  // Canonical engine order for the report.
  if (generic_route) {
    report.engines.push_back(std::move(lane.generic));
    report.engines.push_back(std::move(chromatic_report));
  } else if (characterize_route) {
    report.engines.push_back(std::move(lane.characterize));
    report.engines.push_back(std::move(lane.cor55));
    report.engines.push_back(std::move(lane.cor56));
    report.engines.push_back(std::move(lane.csp));
    report.engines.push_back(std::move(lane.homology));
    report.engines.push_back(std::move(chromatic_report));
    report.engines.push_back(std::move(lane.agnostic));
  } else {
    report.engines.push_back(std::move(chromatic_report));
  }

  // Lane payload, independent of the merge outcome.
  out.characterization = lane.characterization;
  out.cor55 = lane.cor55_result;
  out.cor56 = lane.cor56_result;
  report.characterization_computed = lane.characterization != nullptr;

  const EngineReport* best = best_conclusive(report.engines);
  if (best == nullptr) {
    report.verdict = Verdict::Unknown;
    merge_unknown_reason(options, report);
  } else {
    report.verdict = best->verdict;
    report.reason = best->reason;
    if (best->precedence == engine_precedence::kChromaticProbe) {
      report.radius = best->witness_radius;
      out.has_chromatic_witness = true;
      out.witness = chromatic.witness();
      out.witness_domain = chromatic.witness_domain();
    } else if (best->precedence == engine_precedence::kAgnosticProbe) {
      report.radius = lane.agnostic_radius;
      report.via_characterization = true;
    } else if (best->verdict == Verdict::Unsolvable &&
               best->precedence != engine_precedence::kGenericConnectivity) {
      report.via_characterization = true;
    }
  }

  // The probe consumed stored artifacts: declare the warm start. Every
  // non-cache field is still byte-identical to a cold run — the probe
  // climbed the same rungs with as-cold counters; only construction work
  // was saved. (If the seed failed to parse or the probe never ran, this
  // stays "miss" — a corrupted artifact degrades to a cold rebuild.)
  if (chromatic.seeded_levels() > 0 || chromatic.seeded_images() > 0) {
    report.cache = "artifacts";
    report.cache_seeded_levels = chromatic.seeded_levels();
    obs::MetricsRegistry::global().counter("cache.artifacts").add();
  }

  report.phase_engines_ms = ms_since(engines_start);
  const Clock::time_point publish_start = Clock::now();
  publish(&chromatic);
  report.phase_publish_ms = ms_since(publish_start);
  report.total_wall_ms = ms_since(start);
  record_latencies();
  return out;
}

}  // namespace trichroma
