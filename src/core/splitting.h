#pragma once
// The splitting deformation (Section 4.1 of the paper).
//
// Given a canonical task T = (I, O, Δ) and a LAP y w.r.t. input facet σ
// whose link lk_{Δ(σ)}(y) has components C_1, ..., C_r, the deformation
// produces T_y = (I, O_y, Δ_y):
//
//  - y is replaced by fresh copies y_1, ..., y_r (same color);
//  - facets ρ ∈ Δ(τ) with y ∉ ρ are kept unchanged;
//  - for τ ⊆ σ, a facet ρ ∋ y is rewired to the *single* copy y_i of the
//    component C_i containing ρ \ {y} (the paper's "must have z, z' ∈ C_i");
//    the solo case ρ = {y} inherits the copies common to every containing
//    simplex's image, preserving monotonicity;
//  - for τ ⊄ σ, a facet ρ ∋ y is replaced by one copy *per* component
//    (all y_i), since the task being canonical guarantees ρ ∉ Δ(σ).
//
// Lemma 4.1: this strictly decreases the number of LAPs w.r.t. σ and never
// creates LAPs w.r.t. facets that had none. Lemma 4.2: it preserves
// solvability in both directions. Both are verified by tests.

#include <vector>

#include "core/lap.h"
#include "tasks/task.h"

namespace trichroma {

struct SplitResult {
  Task task;                     ///< T_y, sharing the original vertex pool
  VertexId original;             ///< the split vertex y
  std::vector<VertexId> copies;  ///< y_1, ..., y_r in component order
};

/// Applies the splitting deformation for `lap` to `task` itself and returns
/// the copies y_1, ..., y_r. Only the facet lists of Δ that contain y are
/// rewritten, and O loses y's star and gains the rewired facets; everything
/// else is left as it is. Preconditions: `task` is canonical
/// (Task::is_canonical()) and O is exactly the reachable part of Δ.
///
/// `lap` must describe the current task: y a vertex of Δ(σ), at least two
/// components, and every vertex of lk_{Δ(σ)}(y) in exactly one of them, with
/// no facet of Δ(σ) straddling two. A record that does not (for example one
/// taken before an earlier split of y) throws std::logic_error before
/// anything is interned or changed.
std::vector<VertexId> split_lap_in_place(Task& task, const LapRecord& lap);

/// Applies the splitting deformation for `lap` (as returned by find_laps on
/// `task`) to a copy of `task`: split_lap_in_place on the copy.
SplitResult split_lap(const Task& task, const LapRecord& lap);

/// Interns the i-th split copy (1-based) of `y`: (color(y), ("split", value(y), i)).
VertexId split_copy(VertexPool& pool, VertexId y, int i);

/// True iff `v` is a split copy produced by `split_copy`.
bool is_split_vertex(const VertexPool& pool, VertexId v);

/// The vertex a split copy was made from (one level of unwrapping).
VertexId split_parent(VertexPool& pool, VertexId v);

/// Fully unwraps nested split copies back to the original output vertex.
VertexId split_root(VertexPool& pool, VertexId v);

}  // namespace trichroma
