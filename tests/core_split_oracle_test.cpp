// Differential oracle for the split loop (Theorem 4.3). `reference` below is
// the copying implementation the in-place loop replaced, kept verbatim: each
// split deep-copies the task, rebuilds every image and O from scratch, and
// rescans Δ(σ) for its first LAP. make_link_connected must match it event
// for event (facet, vertex, component count, copy ids) and end in the same
// T′ (name, O′, Δ′) with the same vertex pool. A property test pins the
// premise of the single LAP scan per facet: after a split of y w.r.t. σ, the
// LAPs w.r.t. σ are the previous ones minus y.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/lap.h"
#include "core/link_connected.h"
#include "core/splitting.h"
#include "tasks/canonical.h"
#include "tasks/zoo.h"

namespace trichroma {
namespace reference {

SplitResult split_lap(const Task& task, const LapRecord& lap) {
  VertexPool& pool = *task.pool;
  const VertexId y = lap.vertex;
  const Simplex& sigma = lap.facet;
  const int r = static_cast<int>(lap.link_components.size());
  assert(r >= 2);

  // Component index (1-based) of each link vertex.
  std::unordered_map<VertexId, int, VertexIdHash> component_of;
  for (int i = 0; i < r; ++i) {
    for (VertexId z : lap.link_components[static_cast<std::size_t>(i)]) {
      component_of.emplace(z, i + 1);
    }
  }

  SplitResult result;
  result.original = y;
  for (int i = 1; i <= r; ++i) result.copies.push_back(split_copy(pool, y, i));

  Task& ty = result.task;
  ty.pool = task.pool;
  ty.name = task.name + "/split(" + pool.name(y) + ")";
  ty.num_processes = task.num_processes;
  ty.input = task.input;

  // Pass 1: rewire every facet image except the solo case ρ = {y} on
  // vertices of σ, which needs the images of the containing simplices and is
  // resolved in pass 2.
  std::vector<Simplex> deferred_solo_inputs;
  std::unordered_map<Simplex, std::vector<Simplex>, SimplexHash> new_images;

  task.input.for_each([&](const Simplex& tau) {
    const bool tau_in_sigma = sigma.contains_all(tau);
    std::vector<Simplex>& images = new_images[tau];
    for (const Simplex& rho : task.delta.facet_images(tau)) {
      if (!rho.contains(y)) {
        images.push_back(rho);
        continue;
      }
      if (tau_in_sigma) {
        const Simplex rest = rho.without(y);
        if (rest.empty()) {
          deferred_solo_inputs.push_back(tau);
          continue;
        }
        // All of ρ \ {y} lies in one link component (ρ ∈ Δ(τ) ⊆ Δ(σ), so
        // ρ \ {y} is a simplex of lk_{Δ(σ)}(y)).
        auto it = component_of.find(rest[0]);
        if (it == component_of.end()) {
          throw std::logic_error("split_lap: link vertex missing a component");
        }
        const int i = it->second;
        for (VertexId z : rest) {
          if (component_of.at(z) != i) {
            throw std::logic_error("split_lap: facet straddles link components");
          }
        }
        images.push_back(rest.with(result.copies[static_cast<std::size_t>(i - 1)]));
      } else {
        // τ ⊄ σ: one rewired facet per copy.
        const Simplex rest = rho.without(y);
        for (VertexId yi : result.copies) {
          images.push_back(rest.with(yi));
        }
      }
    }
  });

  // Pass 2: solo decisions of y on input vertices of σ: every copy that
  // appears in the image of at least one containing input simplex.
  for (const Simplex& x : deferred_solo_inputs) {
    std::set<VertexId> allowed;
    task.input.for_each([&](const Simplex& tau) {
      if (tau == x || !tau.contains_all(x)) return;
      if (!task.delta.image_complex(tau).contains_vertex(y)) return;
      for (const Simplex& im : new_images.at(tau)) {
        for (VertexId v : im) {
          if (std::find(result.copies.begin(), result.copies.end(), v) !=
              result.copies.end()) {
            allowed.insert(v);
          }
        }
      }
    });
    if (allowed.empty()) {
      // y appears in no larger image: only possible if the original task
      // already violated monotonicity at x.
      throw std::logic_error(
          "split_lap: solo-decided LAP missing from every containing image");
    }
    for (VertexId yi : allowed) {
      new_images[x].push_back(Simplex::single(yi));
    }
  }

  for (auto& [tau, images] : new_images) {
    for (const Simplex& im : images) ty.output.add(im);
    ty.delta.set(tau, std::move(images));
  }
  return result;
}

LinkConnectedResult make_link_connected(const Task& canonical_task) {
  if (!canonical_task.is_canonical()) {
    throw std::logic_error("make_link_connected requires a canonical task");
  }
  LinkConnectedResult result;
  result.task = canonical_task;

  // Theorem 4.3's schedule: clean facets one at a time; Lemma 4.1
  // guarantees no facet regresses once cleaned. The guard bounds runaway
  // growth in case of a malformed task.
  const std::size_t guard =
      16 * (result.task.output.count(0) + 4) * (result.task.input.count(2) + result.task.input.count(1) + 4);
  const int top = result.task.input.dimension();
  for (const Simplex& sigma : result.task.input.simplices(top)) {
    while (true) {
      auto lap = first_lap(result.task, sigma);
      if (!lap.has_value()) break;
      if (result.history.size() > guard) {
        throw std::logic_error("make_link_connected: split loop exceeded bound");
      }
      SplitResult split = reference::split_lap(result.task, *lap);
      result.history.push_back(SplitEvent{lap->facet, lap->vertex,
                                          lap->link_components.size(),
                                          split.copies});
      result.task = std::move(split.task);
    }
  }
  return result;
}

}  // namespace reference

namespace {

constexpr int kDrawsPerSeed = 500;

/// Runs both loops on id-preserving clones of `canonical` (each interns into
/// its own pool) and compares everything the split loop produces.
void expect_matches_reference(const Task& canonical) {
  const Task mine = clone_task(canonical);
  const Task theirs = clone_task(canonical);
  const LinkConnectedResult got = make_link_connected(mine);
  const LinkConnectedResult want = reference::make_link_connected(theirs);
  ASSERT_EQ(got.history.size(), want.history.size()) << canonical.name;
  for (std::size_t i = 0; i < got.history.size(); ++i) {
    const SplitEvent& a = got.history[i];
    const SplitEvent& b = want.history[i];
    EXPECT_TRUE(a.facet == b.facet) << canonical.name << " split " << i;
    EXPECT_EQ(a.vertex, b.vertex) << canonical.name << " split " << i;
    EXPECT_EQ(a.component_count, b.component_count) << canonical.name << " split " << i;
    EXPECT_EQ(a.copies, b.copies) << canonical.name << " split " << i;
  }
  EXPECT_EQ(got.task.name, want.task.name);
  EXPECT_EQ(got.task.num_processes, want.task.num_processes) << canonical.name;
  EXPECT_TRUE(got.task.input == want.task.input) << canonical.name;
  EXPECT_TRUE(got.task.output == want.task.output) << canonical.name;
  EXPECT_TRUE(got.task.delta == want.task.delta) << canonical.name;
  EXPECT_EQ(mine.pool->size(), theirs.pool->size()) << canonical.name;
}

/// Splits every LAP of `canonical` in place, facet by facet, and checks that
/// each split removes exactly the split vertex from the LAP list w.r.t. σ.
void expect_lap_list_loses_only_the_split_vertex(const Task& canonical) {
  Task t = canonical;
  for (const Simplex& sigma : t.input.simplices(t.input.dimension())) {
    std::vector<LapRecord> laps = find_laps(t, sigma);
    while (!laps.empty()) {
      split_lap_in_place(t, laps.front());
      const std::vector<LapRecord> after = find_laps(t, sigma);
      ASSERT_EQ(after.size() + 1, laps.size()) << canonical.name;
      for (std::size_t i = 0; i < after.size(); ++i) {
        EXPECT_EQ(after[i].vertex, laps[i + 1].vertex) << canonical.name;
      }
      laps = after;
    }
  }
}

std::vector<Task> catalog_tasks() {
  std::vector<Task> out;
  for (const zoo::CatalogEntry& entry : zoo::catalog()) {
    out.push_back(canonicalize(entry.build()));
  }
  return out;
}

TEST(SplitOracle, CatalogMatchesReference) {
  std::size_t splits = 0;
  for (const Task& t : catalog_tasks()) {
    expect_matches_reference(t);
    splits += make_link_connected(t).history.size();
  }
  EXPECT_GT(splits, 0u);
}

TEST(SplitOracle, LapListLosesOnlyTheSplitVertexOnCatalog) {
  for (const Task& t : catalog_tasks()) expect_lap_list_loses_only_the_split_vertex(t);
}

class SplitOracleDraws : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SplitOracleDraws, RandomDrawsMatchReference) {
  zoo::RandomTaskParams params;
  params.seed = GetParam();
  zoo::RandomTaskStream stream(params);
  for (int i = 0; i < kDrawsPerSeed; ++i) {
    expect_matches_reference(canonicalize(stream.next()));
    if (HasFatalFailure()) return;
  }
}

TEST_P(SplitOracleDraws, LapListLosesOnlyTheSplitVertex) {
  zoo::RandomTaskParams params;
  params.seed = GetParam();
  zoo::RandomTaskStream stream(params);
  for (int i = 0; i < kDrawsPerSeed; ++i) {
    expect_lap_list_loses_only_the_split_vertex(canonicalize(stream.next()));
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitOracleDraws, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace trichroma
