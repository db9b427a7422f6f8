#include "core/splitting.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace trichroma {

VertexId split_copy(VertexPool& pool, VertexId y, int i) {
  ValuePool& vals = pool.values();
  const ValueId value =
      vals.of_tuple({vals.of_string("split"), vals.of_int(static_cast<std::int64_t>(raw(y))),
                     vals.of_int(i)});
  return pool.vertex(pool.color(y), value);
}

bool is_split_vertex(const VertexPool& pool, VertexId v) {
  const ValuePool& vals = pool.values();
  const ValueId val = pool.value(v);
  if (vals.kind(val) != ValuePool::Kind::Tuple) return false;
  const auto elems = vals.elements(val);
  return elems.size() == 3 && vals.kind(elems[0]) == ValuePool::Kind::Str &&
         vals.as_string(elems[0]) == "split";
}

VertexId split_parent(VertexPool& pool, VertexId v) {
  if (!is_split_vertex(pool, v)) {
    throw std::logic_error("vertex is not a split copy");
  }
  const auto elems = pool.values().elements(pool.value(v));
  return VertexId{static_cast<std::uint32_t>(pool.values().as_int(elems[1]))};
}

VertexId split_root(VertexPool& pool, VertexId v) {
  while (is_split_vertex(pool, v)) v = split_parent(pool, v);
  return v;
}

namespace {

/// The 1-based component index of every vertex of lk_{Δ(σ)}(y), as recorded
/// in a LapRecord, sorted by vertex id for binary lookup.
class ComponentIndex {
 public:
  explicit ComponentIndex(const LapRecord& lap) {
    for (std::size_t i = 0; i < lap.link_components.size(); ++i) {
      for (VertexId z : lap.link_components[i]) {
        entries_.emplace_back(raw(z), static_cast<int>(i) + 1);
      }
    }
    std::sort(entries_.begin(), entries_.end());
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].first == entries_[i - 1].first) {
        throw std::logic_error("split_lap: link vertex recorded in two components");
      }
    }
  }

  /// The one component holding every vertex of `rest` = ρ \ {y}, for a
  /// facet ρ ∋ y of Δ(σ). Throws when a vertex has no recorded component or
  /// the facet straddles two.
  int of_rest(const Simplex& rest) const {
    int component = 0;
    for (VertexId z : rest) {
      const auto it = std::lower_bound(entries_.begin(), entries_.end(),
                                       std::make_pair(raw(z), 0));
      if (it == entries_.end() || it->first != raw(z)) {
        throw std::logic_error("split_lap: link vertex missing a component");
      }
      if (component != 0 && it->second != component) {
        throw std::logic_error("split_lap: facet straddles link components");
      }
      component = it->second;
    }
    return component;
  }

 private:
  std::vector<std::pair<std::uint32_t, int>> entries_;
};

bool contains_copy(const Simplex& s, const std::vector<VertexId>& copies) {
  for (VertexId v : s) {
    if (std::find(copies.begin(), copies.end(), v) != copies.end()) return true;
  }
  return false;
}

}  // namespace

std::vector<VertexId> split_lap_in_place(Task& task, const LapRecord& lap) {
  VertexPool& pool = *task.pool;
  const VertexId y = lap.vertex;
  const Simplex& sigma = lap.facet;
  const std::size_t r = lap.link_components.size();
  if (r < 2) {
    throw std::logic_error("split_lap: record has fewer than two link components");
  }
  const ComponentIndex component(lap);

  // Check the record against the current Δ(σ) before interning anything:
  // y must be a vertex of Δ(σ), and every facet through y must lie in one
  // recorded component (ρ \ {y} is a simplex of lk_{Δ(σ)}(y)).
  bool y_in_image = false;
  for (const Simplex& rho : task.delta.facet_images(sigma)) {
    if (!rho.contains(y)) continue;
    y_in_image = true;
    component.of_rest(rho.without(y));
  }
  if (!y_in_image) {
    throw std::logic_error("split_lap: split vertex is not a vertex of Δ(σ)");
  }

  std::vector<VertexId> copies;
  for (std::size_t i = 1; i <= r; ++i) {
    copies.push_back(split_copy(pool, y, static_cast<int>(i)));
  }

  // Pass 1: rewrite the facet lists that contain y, except the solo case
  // ρ = {y} on vertices of σ, which needs the rewritten images of the
  // containing simplices and is resolved in pass 2. Facet lists without y
  // are untouched. Nothing is committed until both passes are done, so a
  // throw leaves the task as it was.
  struct Rewrite {
    Simplex tau;
    std::vector<Simplex> images;
  };
  std::vector<Rewrite> rewrites;
  std::vector<std::size_t> deferred_solo;  // indices into `rewrites`
  task.input.for_each([&](const Simplex& tau) {
    const std::vector<Simplex>& old_images = task.delta.facet_images(tau);
    if (std::none_of(old_images.begin(), old_images.end(),
                     [y](const Simplex& rho) { return rho.contains(y); })) {
      return;
    }
    const bool tau_in_sigma = sigma.contains_all(tau);
    Rewrite rewrite{tau, {}};
    bool solo = false;
    for (const Simplex& rho : old_images) {
      if (!rho.contains(y)) {
        rewrite.images.push_back(rho);
        continue;
      }
      const Simplex rest = rho.without(y);
      if (tau_in_sigma) {
        if (rest.empty()) {
          solo = true;
          continue;
        }
        // All of ρ \ {y} lies in one link component (ρ ∈ Δ(τ) ⊆ Δ(σ), so
        // ρ \ {y} is a simplex of lk_{Δ(σ)}(y)).
        const int i = component.of_rest(rest);
        rewrite.images.push_back(rest.with(copies[static_cast<std::size_t>(i - 1)]));
      } else {
        // τ ⊄ σ: one rewired facet per copy.
        for (VertexId yi : copies) rewrite.images.push_back(rest.with(yi));
      }
    }
    if (solo) deferred_solo.push_back(rewrites.size());
    rewrites.push_back(std::move(rewrite));
  });

  // Pass 2: solo decisions of y on input vertices of σ. The paper keeps
  // "one copy per connected component" available to the solo decider (cf.
  // the pinwheel discussion in §6.2); we include every copy that appears in
  // the image of at least one containing input simplex. This preserves
  // solvability in both directions — a real protocol's solo copy is forced
  // by its neighbors into every containing edge's component, hence lies in
  // this union, and collapsing copies always maps back — at the price of
  // vertex-level monotonicity, which split tasks may violate (as does the
  // paper's own construction). Downstream engines re-derive the effective
  // per-edge solo constraints themselves. The containing simplices whose
  // image held y are exactly the rewritten ones.
  for (std::size_t s : deferred_solo) {
    const Simplex& x = rewrites[s].tau;
    std::vector<bool> allowed(r, false);
    for (const Rewrite& rewrite : rewrites) {
      if (rewrite.tau == x || !rewrite.tau.contains_all(x)) continue;
      for (const Simplex& im : rewrite.images) {
        for (VertexId v : im) {
          const auto it = std::find(copies.begin(), copies.end(), v);
          if (it != copies.end()) allowed[static_cast<std::size_t>(it - copies.begin())] = true;
        }
      }
    }
    if (std::find(allowed.begin(), allowed.end(), true) == allowed.end()) {
      // y appears in no larger image: only possible if the original task
      // already violated monotonicity at x.
      throw std::logic_error(
          "split_lap: solo-decided LAP missing from every containing image");
    }
    for (std::size_t i = 0; i < r; ++i) {
      if (allowed[i]) rewrites[s].images.push_back(Simplex::single(copies[i]));
    }
  }

  // Commit. O = ∪τ Δ(τ) before the split, so O' is O without y's star plus
  // the rewired facets: every other face of a rewired facet ρ \ {y} ∪ {y_i}
  // is a face of ρ \ {y}, which stays. Larger facets go in first, so the
  // smaller ones they contain are already present.
  std::vector<Simplex> rewired;
  for (Rewrite& rewrite : rewrites) {
    for (const Simplex& im : rewrite.images) {
      if (contains_copy(im, copies)) rewired.push_back(im);
    }
    task.delta.set(rewrite.tau, std::move(rewrite.images));
  }
  std::sort(rewired.begin(), rewired.end(),
            [](const Simplex& a, const Simplex& b) { return a.size() > b.size(); });
  task.output.remove_with_cofaces(Simplex::single(y));
  for (const Simplex& im : rewired) task.output.add(im);
  task.name += "/split(" + pool.name(y) + ")";
  return copies;
}

SplitResult split_lap(const Task& task, const LapRecord& lap) {
  SplitResult result;
  result.task = task;
  result.original = lap.vertex;
  result.copies = split_lap_in_place(result.task, lap);
  return result;
}

}  // namespace trichroma
