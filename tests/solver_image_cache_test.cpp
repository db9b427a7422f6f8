// The cross-call Δ-image / edge-mask cache (solver/map_search.h): cached
// searches match uncached ones, eager population keeps the lazy path's
// hit/miss accounting, and decide_solvability's verdict does not depend on
// the caching strategy.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "solver/map_search.h"
#include "solver/solvability.h"
#include "tasks/zoo.h"
#include "topology/subdivision.h"

namespace trichroma {
namespace {

struct ZooCase {
  std::string name;
  std::function<Task()> make;
};

// Every three-process zoo task (four-process ones exercise the n-ary path
// elsewhere; two-process tasks never reach the map search).
const std::vector<ZooCase>& zoo_cases() {
  static const std::vector<ZooCase> cases = {
      {"identity", [] { return zoo::identity_task(); }},
      {"renaming3", [] { return zoo::renaming(3); }},
      {"renaming5", [] { return zoo::renaming(5); }},
      {"consensus3", [] { return zoo::consensus(3); }},
      {"set_agreement_32", [] { return zoo::set_agreement_32(); }},
      {"majority_consensus", [] { return zoo::majority_consensus(); }},
      {"hourglass", [] { return zoo::hourglass(); }},
      {"twisted_hourglass", [] { return zoo::twisted_hourglass(); }},
      {"pinwheel", [] { return zoo::pinwheel(); }},
      {"fig3", [] { return zoo::fig3_running_example(); }},
      {"subdivision0", [] { return zoo::subdivision_task(0); }},
      {"subdivision1", [] { return zoo::subdivision_task(1); }},
      {"approx_agreement", [] { return zoo::approximate_agreement(2); }},
      {"fan6", [] { return zoo::fan_task(6); }},
      {"test_and_set", [] { return zoo::test_and_set(3); }},
      {"weak_symmetry_breaking", [] { return zoo::weak_symmetry_breaking(3); }},
      {"loop_hollow", [] { return zoo::loop_agreement_hollow_triangle(); }},
      {"loop_filled", [] { return zoo::loop_agreement_filled_triangle(); }},
  };
  return cases;
}

TEST(DeltaImageCacheTest, ReusedAcrossRadiiAndModes) {
  const Task task = zoo::subdivision_task(1);
  DeltaImageCache cache;
  MapSearchOptions options;
  options.image_cache = &cache;
  SubdivisionLadder ladder(*task.pool, task.input);

  find_decision_map(*task.pool, ladder.at(0), task, options);
  const std::size_t after_r0 = cache.size();
  EXPECT_GT(after_r0, 0u);
  find_decision_map(*task.pool, ladder.at(1), task, options);
  // The carriers at radius 1 are still simplices of the base complex, so
  // the image memo does not grow — every lookup hits.
  EXPECT_EQ(cache.size(), after_r0);
  EXPECT_GT(cache.hits(), 0u);
  // Color-agnostic probe on the same task shares Δ, hence the cache.
  options.chromatic = false;
  const std::size_t hits_before = cache.hits();
  find_decision_map(*task.pool, ladder.at(1), task, options);
  EXPECT_EQ(cache.size(), after_r0);
  EXPECT_GT(cache.hits(), hits_before);
}

TEST(DeltaImageCacheTest, CachedSearchMatchesUncached) {
  for (const ZooCase& c : zoo_cases()) {
    const Task task = c.make();
    DeltaImageCache cache;
    SubdivisionLadder ladder(*task.pool, task.input);
    for (int radius = 0; radius <= 1; ++radius) {
      MapSearchOptions cached;
      cached.image_cache = &cache;
      MapSearchOptions uncached;
      const MapSearchResult a =
          find_decision_map(*task.pool, ladder.at(radius), task, cached);
      const MapSearchResult b =
          find_decision_map(*task.pool, ladder.at(radius), task, uncached);
      EXPECT_EQ(a.found, b.found) << c.name << " r=" << radius;
      EXPECT_EQ(a.exhausted, b.exhausted) << c.name << " r=" << radius;
      EXPECT_EQ(a.nodes_explored, b.nodes_explored) << c.name << " r=" << radius;
    }
  }
}

TEST(DeltaImageCacheTest, EdgeMaskClassesCollapse) {
  // The distinct carriers are faces of the *base* complex, so as the
  // subdivision grows (here Ch^2: hundreds of edges) the edge population
  // collapses onto a bounded set of (image, color) mask classes.
  const Task task = zoo::subdivision_task(1);
  const SubdividedComplex domain =
      chromatic_subdivision(*task.pool, task.input, 2);
  std::size_t edges = 0;
  domain.complex.for_each([&](const Simplex& s) {
    if (s.dim() == 1) ++edges;
  });
  DeltaImageCache cache;
  MapSearchOptions options;
  options.image_cache = &cache;
  find_decision_map(*task.pool, domain, task, options);
  EXPECT_GT(edges, cache.edge_mask_misses());
  EXPECT_EQ(cache.edge_mask_hits() + cache.edge_mask_misses(), edges);
}

// ---------------------------------------------------------------------------
// Eager Δ-image population
// ---------------------------------------------------------------------------

/// Compiled-image equality, row for row.
void expect_same_image(const CompiledComplex* a, const CompiledComplex* b) {
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(a->num_vertices(), b->num_vertices());
  for (std::size_t i = 0; i < a->num_vertices(); ++i) {
    const auto l = static_cast<CompiledComplex::Local>(i);
    EXPECT_EQ(a->vertex(l), b->vertex(l));
  }
  ASSERT_EQ(a->num_edges(), b->num_edges());
  for (std::size_t e = 0; e < a->num_edges(); ++e) {
    EXPECT_EQ(a->edge(e), b->edge(e));
  }
  ASSERT_EQ(a->num_triangles(), b->num_triangles());
  for (std::size_t t = 0; t < a->num_triangles(); ++t) {
    EXPECT_EQ(a->triangle(t), b->triangle(t));
  }
}

/// The shared access script both runs replay: touch every other carrier
/// twice (so hits exist), leave the rest untouched (so eager entries that
/// are never asked for must not count).
void run_access_script(DeltaImageCache& cache, const Task& task,
                       const std::vector<Simplex>& carriers,
                       std::vector<const CompiledComplex*>* images) {
  for (std::size_t i = 0; i < carriers.size(); i += 2) {
    const CompiledComplex* first = cache.image_of(task.delta, carriers[i]);
    const CompiledComplex* second = cache.image_of(task.delta, carriers[i]);
    EXPECT_EQ(first, second);
    images->push_back(first);
  }
}

std::vector<Simplex> nonempty_carriers(const Task& task) {
  std::vector<Simplex> carriers;
  for (const Simplex& s : task.input.all_simplices()) {
    if (!s.empty()) carriers.push_back(s);
  }
  return carriers;
}

void expect_populate_matches_lazy(const Task& task) {
  const std::vector<Simplex> carriers = nonempty_carriers(task);
  ASSERT_FALSE(carriers.empty());

  DeltaImageCache lazy;
  std::vector<const CompiledComplex*> lazy_images;
  run_access_script(lazy, task, carriers, &lazy_images);

  DeltaImageCache eager;
  eager.populate(task.delta, carriers);
  EXPECT_EQ(eager.size(), carriers.size());
  EXPECT_EQ(eager.warm_remaining(), carriers.size());
  // Eager compilation itself charges nothing.
  EXPECT_EQ(eager.hits(), 0u);
  EXPECT_EQ(eager.misses(), 0u);

  std::vector<const CompiledComplex*> eager_images;
  run_access_script(eager, task, carriers, &eager_images);
  // Identical accounting to the lazy cold path: first touch of a populated
  // entry is the miss a lazy run would have paid, repeat touches hit,
  // untouched entries never count.
  EXPECT_EQ(eager.hits(), lazy.hits());
  EXPECT_EQ(eager.misses(), lazy.misses());
  EXPECT_EQ(eager.warm_remaining(), carriers.size() - (carriers.size() + 1) / 2);
  ASSERT_EQ(eager_images.size(), lazy_images.size());
  for (std::size_t i = 0; i < eager_images.size(); ++i) {
    expect_same_image(eager_images[i], lazy_images[i]);
  }
}

TEST(DeltaImagePopulate, AccountingMatchesLazyPath) {
  expect_populate_matches_lazy(zoo::hourglass());
  zoo::RandomTaskParams params;
  params.seed = 29;
  expect_populate_matches_lazy(zoo::random_task(params));
}

TEST(DeltaImagePopulate, SkipsExistingEntriesAndIsIdempotent) {
  const Task task = zoo::hourglass();
  const std::vector<Simplex> carriers = nonempty_carriers(task);
  DeltaImageCache cache;
  // Fault one entry in the ordinary lazy way first; populate must leave it
  // (and its already-charged miss) alone.
  const CompiledComplex* before = cache.image_of(task.delta, carriers.front());
  EXPECT_EQ(cache.misses(), 1u);
  cache.populate(task.delta, carriers);
  cache.populate(task.delta, carriers);  // second call: all cached, no-op
  EXPECT_EQ(cache.size(), carriers.size());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.image_of(task.delta, carriers.front()), before);
  EXPECT_EQ(cache.hits(), 1u);
}

// ---------------------------------------------------------------------------
// decide_solvability over the caches
// ---------------------------------------------------------------------------

TEST(ParallelSolvability, ColdAndLadderProbesAgree) {
  // reuse_subdivisions / reuse_images off reproduces the seed engine; the
  // verdict and radius must not depend on the caching strategy.
  for (const ZooCase& c : zoo_cases()) {
    SolvabilityOptions cached;
    SolvabilityOptions cold;
    cold.reuse_subdivisions = false;
    cold.reuse_images = false;
    const SolvabilityResult a = decide_solvability(c.make(), cached);
    const SolvabilityResult b = decide_solvability(c.make(), cold);
    EXPECT_EQ(a.verdict, b.verdict) << c.name;
    EXPECT_EQ(a.radius, b.radius) << c.name;
  }
}

TEST(ParallelSolvability, CapReasonNamesProbeAndRadius) {
  // A starved budget must say exactly which probe and radius were truncated.
  // Characterization off so the obstruction engines cannot preempt the probe
  // loop (set agreement would otherwise be refuted before any search runs);
  // its radius-1 refutation needs a few hundred nodes, so a 50-node budget
  // reliably truncates the probe.
  SolvabilityOptions options;
  options.node_cap = 50;
  options.max_radius = 1;
  options.use_characterization = false;
  const SolvabilityResult r = decide_solvability(zoo::set_agreement_32(), options);
  ASSERT_EQ(r.verdict, Verdict::Unknown);
  EXPECT_NE(r.reason.find("chromatic probe at radius"), std::string::npos)
      << r.reason;
  EXPECT_NE(r.reason.find("node cap"), std::string::npos) << r.reason;
}

}  // namespace
}  // namespace trichroma
