// Tests for the decision-map CSP search (the executable ACT direction).

#include <gtest/gtest.h>

#include "solver/map_search.h"
#include "tasks/zoo.h"
#include "topology/subdivision.h"

namespace trichroma {
namespace {

MapSearchResult search(const Task& task, int rounds, bool chromatic) {
  const SubdividedComplex domain =
      chromatic_subdivision(*task.pool, task.input, rounds);
  MapSearchOptions options;
  options.chromatic = chromatic;
  return find_decision_map(*task.pool, domain, task, options);
}

TEST(MapSearch, IdentityTaskSolvableAtRadiusZero) {
  const Task t = zoo::identity_task();
  const auto r = search(t, 0, true);
  EXPECT_TRUE(r.found);
  const SubdividedComplex domain = chromatic_subdivision(*t.pool, t.input, 0);
  EXPECT_TRUE(validate_decision_map(*t.pool, domain, t, r.map, true));
}

TEST(MapSearch, RenamingSolvableAtRadiusZero) {
  // Ids are known, so index-renaming needs no communication.
  EXPECT_TRUE(search(zoo::renaming(3), 0, true).found);
  EXPECT_TRUE(search(zoo::renaming(5), 0, true).found);
}

TEST(MapSearch, SubdivisionTaskNeedsExactlyItsRadius) {
  for (int r = 0; r <= 2; ++r) {
    const Task t = zoo::subdivision_task(r);
    for (int attempt = 0; attempt < r; ++attempt) {
      const auto res = search(t, attempt, true);
      EXPECT_FALSE(res.found) << "r=" << r << " attempt=" << attempt;
      EXPECT_TRUE(res.exhausted);
    }
    const auto res = search(t, r, true);
    EXPECT_TRUE(res.found) << "r=" << r;
    const SubdividedComplex domain = chromatic_subdivision(*t.pool, t.input, r);
    EXPECT_TRUE(validate_decision_map(*t.pool, domain, t, res.map, true));
  }
}

TEST(MapSearch, ConsensusHasNoMapAtSmallRadii) {
  const Task t = zoo::consensus(3);
  for (int r = 0; r <= 1; ++r) {
    const auto res = search(t, r, true);
    EXPECT_FALSE(res.found);
    EXPECT_TRUE(res.exhausted);
  }
}

TEST(MapSearch, SetAgreementHasNoMapAtSmallRadii) {
  const Task t = zoo::set_agreement_32();
  for (int r = 0; r <= 1; ++r) {
    const auto res = search(t, r, true);
    EXPECT_FALSE(res.found) << "radius " << r;
    EXPECT_TRUE(res.exhausted);
  }
}

TEST(MapSearch, HourglassChromaticFailsButColorlessSucceeds) {
  const Task t = zoo::hourglass();
  EXPECT_FALSE(search(t, 1, true).found);
  EXPECT_FALSE(search(t, 2, true).found);
  EXPECT_FALSE(search(t, 1, false).found);
  const auto colorless = search(t, 2, false);
  EXPECT_TRUE(colorless.found);
  const SubdividedComplex domain = chromatic_subdivision(*t.pool, t.input, 2);
  EXPECT_TRUE(validate_decision_map(*t.pool, domain, t, colorless.map, false));
  // And it is genuinely not color-preserving somewhere.
  EXPECT_FALSE(validate_decision_map(*t.pool, domain, t, colorless.map, true));
}

TEST(MapSearch, ApproximateAgreementSolvable) {
  const Task t = zoo::approximate_agreement(2);
  bool found = false;
  int radius = -1;
  for (int r = 0; r <= 2 && !found; ++r) {
    found = search(t, r, true).found;
    radius = r;
  }
  EXPECT_TRUE(found);
  EXPECT_GE(radius, 1);  // radius 0 cannot mix inputs
}

TEST(MapSearch, WitnessIsCarriedByDelta) {
  const Task t = zoo::subdivision_task(1);
  const SubdividedComplex domain = chromatic_subdivision(*t.pool, t.input, 1);
  MapSearchOptions options;
  const auto res = find_decision_map(*t.pool, domain, t, options);
  ASSERT_TRUE(res.found);
  // Spot-check the carrier condition on every simplex.
  domain.complex.for_each([&](const Simplex& xi) {
    EXPECT_TRUE(t.delta.allows(domain.carrier_of(xi), res.map.apply(xi)));
  });
}

TEST(MapSearch, NodeCapReportsNonExhaustive) {
  // set_agreement_32 has no decision map on Ch^1; the full search visits
  // 385 nodes. Every node is charged against the cap as it is entered, so a
  // capped search stops on node cap + 1 — the first node over budget.
  const Task t = zoo::set_agreement_32();
  const SubdividedComplex domain = chromatic_subdivision(*t.pool, t.input, 1);
  struct Row {
    std::size_t cap;
    bool exhausted;
    std::size_t nodes;
  };
  const Row rows[] = {{3, false, 4},
                      {50, false, 51},
                      {300, false, 301},
                      {384, false, 385},
                      {385, true, 385},
                      {MapSearchOptions{}.node_cap, true, 385}};
  for (const Row& row : rows) {
    MapSearchOptions options;
    options.node_cap = row.cap;
    const auto res = find_decision_map(*t.pool, domain, t, options);
    EXPECT_FALSE(res.found) << "cap " << row.cap;
    EXPECT_EQ(res.exhausted, row.exhausted) << "cap " << row.cap;
    EXPECT_EQ(res.nodes_explored, row.nodes) << "cap " << row.cap;
  }
}

TEST(MapSearch, DomainWiderThan64ReportsOverflowNotUnsat) {
  // 65 candidate names per corner vertex exceed the 64-bit word-parallel
  // domain representation. Before the explicit outcome this silently set
  // trivially_unsat, which reads as a (bogus) impossibility proof; it must
  // report an inconclusive overflow instead.
  const Task t = zoo::renaming(65);
  const auto res = search(t, 0, true);
  EXPECT_FALSE(res.found);
  EXPECT_FALSE(res.exhausted);
  EXPECT_TRUE(res.domain_overflow);
  EXPECT_EQ(res.nodes_explored, 0u);
  // Exactly 64 still fits and must genuinely search (renaming with ids
  // known is solvable at radius 0).
  const auto res64 = search(zoo::renaming(64), 0, true);
  EXPECT_TRUE(res64.found);
  EXPECT_FALSE(res64.domain_overflow);
}

TEST(MapSearch, LoopAgreementInstances) {
  // Filled hexagon: contractible loop, solvable at small radius.
  const Task filled = zoo::loop_agreement_filled_triangle();
  bool found = false;
  for (int r = 0; r <= 2 && !found; ++r) found = search(filled, r, true).found;
  EXPECT_TRUE(found);
  // Hollow hexagon: the loop does not contract; no map at small radii.
  const Task hollow = zoo::loop_agreement_hollow_triangle();
  EXPECT_FALSE(search(hollow, 0, true).found);
  EXPECT_FALSE(search(hollow, 1, true).found);
}

}  // namespace
}  // namespace trichroma
