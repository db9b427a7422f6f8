#include "core/link_connected.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace trichroma {

namespace {

/// Components of lk_{Δ(σ)}(y), read off the facets of Δ(σ) that contain y,
/// in LapRecord's format: each sorted by vertex id, ordered by smallest id.
/// Every simplex of the link is a face of some ρ \ {y}, so uniting the
/// vertices of each ρ \ {y} yields the link's components.
std::vector<std::vector<VertexId>> link_components(const std::vector<Simplex>& facets,
                                                   VertexId y) {
  std::vector<VertexId> verts;
  for (const Simplex& rho : facets) {
    if (!rho.contains(y)) continue;
    for (VertexId v : rho) {
      if (v != y) verts.push_back(v);
    }
  }
  std::sort(verts.begin(), verts.end());
  verts.erase(std::unique(verts.begin(), verts.end()), verts.end());

  std::vector<std::size_t> parent(verts.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&parent](std::size_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  const auto index = [&verts](VertexId v) {
    return static_cast<std::size_t>(std::lower_bound(verts.begin(), verts.end(), v) -
                                    verts.begin());
  };
  for (const Simplex& rho : facets) {
    if (!rho.contains(y)) continue;
    std::size_t first = verts.size();
    for (VertexId v : rho) {
      if (v == y) continue;
      const std::size_t root = find(index(v));
      if (first == verts.size()) {
        first = root;
      } else if (root != first) {
        parent[std::max(root, first)] = std::min(root, first);
        first = std::min(root, first);
      }
    }
  }

  // Roots are the smallest index of their component, so numbering roots in
  // ascending order orders components by smallest vertex.
  std::vector<std::vector<VertexId>> out;
  std::vector<std::size_t> slot(verts.size());
  for (std::size_t i = 0; i < verts.size(); ++i) {
    const std::size_t root = find(i);
    if (root == i) {
      slot[i] = out.size();
      out.emplace_back();
    }
    out[slot[root]].push_back(verts[i]);
  }
  return out;
}

}  // namespace

LinkConnectedResult make_link_connected(const Task& canonical_task) {
  TRI_SPAN("core/split_loop");
  static obs::Counter& splits = obs::MetricsRegistry::global().counter("core.splits");
  static obs::Counter& split_copies =
      obs::MetricsRegistry::global().counter("core.split.copies");
  if (!canonical_task.is_canonical()) {
    throw std::logic_error("make_link_connected requires a canonical task");
  }
  LinkConnectedResult result;
  result.task = canonical_task;
  Task& task = result.task;

  // Theorem 4.3's schedule: clean facets one at a time, each split edited
  // into the one copy of T*. Lemma 4.1 guarantees no facet regresses once
  // cleaned, and a split of y w.r.t. σ only renames y to one copy y_i
  // inside the links of its neighbors in Δ(σ): the LAPs w.r.t. σ after the
  // split are the LAPs before it minus y. So one scan per facet yields the
  // whole split order; each later LAP only needs its link components
  // recomputed, because a copy may have replaced y in them. The guard
  // bounds runaway growth in case of a malformed task.
  const std::size_t guard =
      16 * (task.output.count(0) + 4) * (task.input.count(2) + task.input.count(1) + 4);
  const int top = task.input.dimension();
  for (const Simplex& sigma : task.input.simplices(top)) {
    std::vector<LapRecord> laps = find_laps(task, sigma);
    for (std::size_t k = 0; k < laps.size(); ++k) {
      LapRecord& lap = laps[k];
      if (k > 0) {
        lap.link_components = link_components(task.delta.facet_images(sigma), lap.vertex);
        if (lap.link_components.size() < 2) {
          throw std::logic_error("make_link_connected: a split changed the LAP list");
        }
      }
      if (result.history.size() > guard) {
        throw std::logic_error("make_link_connected: split loop exceeded bound");
      }
      std::vector<VertexId> copies = split_lap_in_place(task, lap);
      splits.add();
      split_copies.add(copies.size());
      result.history.push_back(SplitEvent{lap.facet, lap.vertex,
                                          lap.link_components.size(), std::move(copies)});
    }
    // The single scan left nothing behind w.r.t. σ.
    assert(find_laps(task, sigma).empty());
  }
#ifndef NDEBUG
  // The slow way, once more: with three processes Lemma 4.1 keeps every
  // cleaned facet clean (two-process edge images have no such guarantee),
  // and the in-place edit of O kept O' = ∪τ Δ'(τ).
  assert(task.num_processes != 3 || find_all_laps(task).empty());
  assert(task.output == task.delta.reachable_output(task.input));
#endif
  return result;
}

VertexId unsplit_vertex(VertexPool& pool, VertexId v) { return split_root(pool, v); }

}  // namespace trichroma
