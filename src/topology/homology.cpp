#include "topology/homology.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "topology/compiled.h"
#include "topology/graph.h"

namespace trichroma {

namespace {

/// The one GF(p) column-reduction kernel behind every homology query.
///
/// A column is a sparse vector over the edge table of a compiled complex:
/// (edge index, coefficient in [1, p)) entries sorted by index. Stored
/// columns are in echelon form: each owns its pivot, the largest index,
/// with the pivot coefficient normalized to 1. Reducing a column cancels
/// its pivot against the stored column owning it until the pivot is free
/// (the remainder is new to the span) or nothing is left (it was in the
/// span). Boundary columns of a 2-complex have three nonzeros, so columns
/// stay short where a dense row held one slot per edge.
class ColumnReducer {
 public:
  struct Entry {
    std::uint32_t row;
    std::uint32_t coeff;
  };
  using Column = std::vector<Entry>;

  ColumnReducer(std::size_t rows, long long p)
      : p_(static_cast<std::uint64_t>(p)), owner_(rows, kFree) {
    assert(p >= 2 && p <= 0xffffffffLL);
  }

  /// Reduces `col` and stores a nonzero remainder; true iff the rank grew.
  bool add(Column& col) {
    reduce(col);
    if (col.empty()) return false;
    const std::uint64_t inv = inverse(col.back().coeff);
    if (inv != 1) {
      for (Entry& e : col) e.coeff = static_cast<std::uint32_t>(e.coeff * inv % p_);
    }
    owner_[col.back().row] = static_cast<std::uint32_t>(start_.size() - 1);
    entries_.insert(entries_.end(), col.begin(), col.end());
    start_.push_back(static_cast<std::uint32_t>(entries_.size()));
    return true;
  }

  /// True iff `col` lies in the span of the stored columns (reduces it).
  bool contains(Column& col) {
    reduce(col);
    return col.empty();
  }

  std::size_t rank() const { return start_.size() - 1; }

 private:
  static constexpr std::uint32_t kFree = 0xffffffffu;

  void reduce(Column& col) {
    while (!col.empty()) {
      const std::uint32_t j = owner_[col.back().row];
      if (j == kFree) return;
      // col -= c · stored[j]: the pivots cancel.
      axpy(col, j, p_ - col.back().coeff);
    }
  }

  /// col += factor · stored[j], merging the two sorted entry lists.
  void axpy(Column& col, std::uint32_t j, std::uint64_t factor) {
    scratch_.clear();
    const Entry* b = entries_.data() + start_[j];
    const Entry* const b_end = entries_.data() + start_[j + 1];
    auto a = col.begin();
    const auto a_end = col.end();
    while (a != a_end || b != b_end) {
      if (b == b_end || (a != a_end && a->row < b->row)) {
        scratch_.push_back(*a++);
      } else if (a == a_end || b->row < a->row) {
        scratch_.push_back({b->row, static_cast<std::uint32_t>(b->coeff * factor % p_)});
        ++b;
      } else {
        const std::uint64_t c = (a->coeff + b->coeff * factor) % p_;
        if (c != 0) scratch_.push_back({a->row, static_cast<std::uint32_t>(c)});
        ++a;
        ++b;
      }
    }
    col.swap(scratch_);
  }

  std::uint64_t inverse(std::uint64_t a) const {
    // Fermat: p is prime and a != 0 mod p.
    std::uint64_t result = 1, base = a, exp = p_ - 2;
    while (exp > 0) {
      if (exp & 1) result = result * base % p_;
      base = base * base % p_;
      exp >>= 1;
    }
    return result;
  }

  std::uint64_t p_;
  std::vector<std::uint32_t> owner_;     // row -> stored column, or kFree
  std::vector<Entry> entries_;           // stored columns, back to back
  std::vector<std::uint32_t> start_{0};  // column j is [start_[j], start_[j+1])
  Column scratch_;
};

using Column = ColumnReducer::Column;

/// Edge-table index of the edge {a, b} of `c`, or -1 when it is absent.
std::ptrdiff_t edge_of(const CompiledComplex& c, VertexId a, VertexId b) {
  const CompiledComplex::Local u = c.local(a), v = c.local(b);
  if (u == CompiledComplex::kAbsent || v == CompiledComplex::kAbsent) return -1;
  return u < v ? c.edge_index(u, v) : c.edge_index(v, u);
}

/// Adds the ∂2 column of every triangle of `c` to `span`:
/// ∂{a,b,d} = (a,b) - (a,d) + (b,d) with a < b < d, already in index order
/// (the edge table is sorted) and with pivot (b,d) at coefficient 1.
void add_triangle_boundaries(const CompiledComplex& c, ColumnReducer& span,
                             long long p) {
  const auto minus_one = static_cast<std::uint32_t>(p - 1);
  Column col;
  for (std::size_t t = 0; t < c.num_triangles(); ++t) {
    const auto [a, b, d] = c.triangle(t);
    col.assign({{static_cast<std::uint32_t>(c.edge_index(a, b)), 1},
                {static_cast<std::uint32_t>(c.edge_index(a, d)), minus_one},
                {static_cast<std::uint32_t>(c.edge_index(b, d)), 1}});
    span.add(col);
  }
}

/// The GF(2) column of `chain` (repeated edges cancel); false when the
/// chain holds a simplex that is not an edge of `c`.
bool gf2_column(const CompiledComplex& c, const Chain& chain, Column& out) {
  std::vector<std::uint32_t> rows;
  rows.reserve(chain.size());
  for (const Simplex& s : chain) {
    const std::ptrdiff_t e = s.dim() == 1 ? edge_of(c, s[0], s[1]) : -1;
    if (e < 0) return false;
    rows.push_back(static_cast<std::uint32_t>(e));
  }
  std::sort(rows.begin(), rows.end());
  out.clear();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i + 1 < rows.size() && rows[i] == rows[i + 1]) {
      ++i;
    } else {
      out.push_back({rows[i], 1});
    }
  }
  return true;
}

/// The GF(p) column of `chain`; false when it leaves the edges of `c`.
bool oriented_column(const CompiledComplex& c, const OrientedChain& chain,
                     long long p, Column& out) {
  out.clear();
  for (const auto& [edge, coeff] : chain) {
    const std::ptrdiff_t e = edge_of(c, edge[0], edge[1]);
    if (e < 0) return false;
    const long long r = coeff % p;
    if (r != 0) {
      out.push_back({static_cast<std::uint32_t>(e),
                     static_cast<std::uint32_t>(r < 0 ? r + p : r)});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& x, const auto& y) { return x.row < y.row; });
  return true;
}

/// True iff `target` lies in the GF(p) span of the ∂2 columns of `c` plus
/// `generators`.
bool in_boundary_span(const CompiledComplex& c, long long p,
                      std::vector<Column>& generators, Column& target) {
  ColumnReducer span(c.num_edges(), p);
  add_triangle_boundaries(c, span, p);
  for (Column& g : generators) span.add(g);
  return span.contains(target);
}

}  // namespace

Chain chain_add(const Chain& a, const Chain& b) {
  // Multiset symmetric difference with GF(2) cancellation.
  std::unordered_map<Simplex, int, SimplexHash> count;
  for (const Simplex& s : a) count[s] ^= 1;
  for (const Simplex& s : b) count[s] ^= 1;
  Chain out;
  for (const auto& [s, c] : count) {
    if (c) out.push_back(s);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Chain boundary(const Chain& c) {
  Chain acc;
  for (const Simplex& s : c) {
    Chain faces;
    for (const Simplex& f : s.boundary_faces()) faces.push_back(f);
    acc = chain_add(acc, faces);
  }
  return acc;
}

bool is_one_cycle(const Chain& c) {
  for (const Simplex& s : c) {
    if (s.dim() != 1) return false;
  }
  return boundary(c).empty();
}

Chain loop_to_chain(const std::vector<VertexId>& closed_path) {
  Chain edges;
  if (closed_path.size() < 2) return edges;
  for (std::size_t i = 0; i + 1 < closed_path.size(); ++i) {
    if (closed_path[i] != closed_path[i + 1]) {
      edges.push_back(Simplex{closed_path[i], closed_path[i + 1]});
    }
  }
  if (closed_path.back() != closed_path.front()) {
    edges.push_back(Simplex{closed_path.back(), closed_path.front()});
  }
  // Cancel duplicate edges over GF(2).
  return chain_add(edges, Chain{});
}

BettiNumbers betti_numbers(const SimplicialComplex& k) {
  TRI_SPAN("topology/betti");
  static obs::Counter& columns =
      obs::MetricsRegistry::global().counter("topology.betti.columns");
  // Over a field, rank ∂1 = V - b0; rank ∂2 comes from the kernel at p = 2.
  // Cells of dimension 3 and up are ignored (b2 is not reduced by ∂3).
  const auto c = CompiledComplex::compile(k);
  const auto v = static_cast<long long>(c->num_vertices());
  const auto e = static_cast<long long>(c->num_edges());
  const auto t = static_cast<long long>(c->num_triangles());
  ColumnReducer d2(c->num_edges(), 2);
  add_triangle_boundaries(*c, d2, 2);
  columns.add(c->num_triangles());
  const auto rank_d2 = static_cast<long long>(d2.rank());
  BettiNumbers out;
  out.b0 = static_cast<long long>(c->component_count());
  out.b1 = e - (v - out.b0) - rank_d2;
  out.b2 = t - rank_d2;
  return out;
}

bool bounds_in(const SimplicialComplex& k, const Chain& cycle) {
  return bounds_modulo(k, cycle, {});
}

bool bounds_modulo(const SimplicialComplex& k, const Chain& cycle,
                   const std::vector<Chain>& generators) {
  assert(is_one_cycle(cycle));
  const auto c = CompiledComplex::compile(k);
  Column target;
  if (!gf2_column(*c, cycle, target)) return false;  // cycle leaves the complex
  std::vector<Column> gens(generators.size());
  for (std::size_t i = 0; i < generators.size(); ++i) {
    if (!gf2_column(*c, generators[i], gens[i])) return false;
  }
  return in_boundary_span(*c, 2, gens, target);
}

std::vector<Chain> cycle_basis(const SimplicialComplex& k) {
  // Spanning forest via BFS; each non-tree edge closes one fundamental cycle.
  const auto adj = adjacency(k);
  std::unordered_map<VertexId, VertexId, VertexIdHash> parent;
  std::unordered_map<VertexId, bool, VertexIdHash> seen;
  std::vector<Chain> out;

  auto tree_path_to_root = [&](VertexId v) {
    std::vector<VertexId> path{v};
    while (parent.count(v) > 0 && parent.at(v) != v) {
      v = parent.at(v);
      path.push_back(v);
    }
    return path;
  };

  for (VertexId root : k.vertex_ids()) {
    if (seen[root]) continue;
    parent[root] = root;
    seen[root] = true;
    std::vector<VertexId> queue{root};
    std::size_t head = 0;
    while (head < queue.size()) {
      VertexId v = queue[head++];
      for (VertexId u : adj.at(v)) {
        if (!seen[u]) {
          seen[u] = true;
          parent[u] = v;
          queue.push_back(u);
        }
      }
    }
  }

  for (const Simplex& e : k.simplices(1)) {
    const VertexId a = e[0], b = e[1];
    if (parent.count(a) > 0 && (parent.at(a) == b || parent.at(b) == a)) continue;
    // Fundamental cycle: tree path a→root + edge {a,b} + tree path b→root;
    // shared prefix cancels over GF(2).
    Chain c{e};
    auto add_path = [&](const std::vector<VertexId>& p) {
      Chain edges;
      for (std::size_t i = 0; i + 1 < p.size(); ++i)
        edges.push_back(Simplex{p[i], p[i + 1]});
      c = chain_add(c, edges);
    };
    add_path(tree_path_to_root(a));
    add_path(tree_path_to_root(b));
    if (is_one_cycle(c)) out.push_back(std::move(c));
  }
  return out;
}


// ---------------------------------------------------------------------------
// Oriented (mod-p) homology.
// ---------------------------------------------------------------------------

void oriented_add_edge(OrientedChain& chain, VertexId from, VertexId to,
                       long long delta) {
  if (from == to) return;
  const bool forward = raw(from) < raw(to);
  const Simplex edge{from, to};
  const long long signed_delta = forward ? delta : -delta;
  auto it = chain.find(edge);
  if (it == chain.end()) {
    if (signed_delta != 0) chain.emplace(edge, signed_delta);
    return;
  }
  it->second += signed_delta;
  if (it->second == 0) chain.erase(it);
}

OrientedChain oriented_path_chain(const std::vector<VertexId>& path) {
  OrientedChain chain;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    oriented_add_edge(chain, path[i], path[i + 1]);
  }
  return chain;
}

OrientedChain oriented_add(const OrientedChain& a, const OrientedChain& b) {
  OrientedChain out = a;
  for (const auto& [edge, coeff] : b) {
    auto it = out.find(edge);
    if (it == out.end()) {
      out.emplace(edge, coeff);
    } else {
      it->second += coeff;
      if (it->second == 0) out.erase(it);
    }
  }
  return out;
}

bool is_oriented_cycle(const OrientedChain& c) {
  std::unordered_map<VertexId, long long, VertexIdHash> boundary;
  for (const auto& [edge, coeff] : c) {
    // ∂(u→v) = v - u with u < v by the orientation convention.
    boundary[edge[1]] += coeff;
    boundary[edge[0]] -= coeff;
  }
  for (const auto& [v, b] : boundary) {
    (void)v;
    if (b != 0) return false;
  }
  return true;
}

bool bounds_modulo_p(const CompiledComplex& k, const OrientedChain& cycle,
                     const std::vector<OrientedChain>& generators, long long p) {
  Column target;
  if (!oriented_column(k, cycle, p, target)) return false;
  std::vector<Column> gens(generators.size());
  for (std::size_t i = 0; i < generators.size(); ++i) {
    if (!oriented_column(k, generators[i], p, gens[i])) return false;
  }
  return in_boundary_span(k, p, gens, target);
}

bool bounds_modulo_p(const SimplicialComplex& k, const OrientedChain& cycle,
                     const std::vector<OrientedChain>& generators, long long p) {
  return bounds_modulo_p(*CompiledComplex::compile(k), cycle, generators, p);
}

std::vector<OrientedChain> oriented_cycle_basis(const SimplicialComplex& k) {
  std::vector<OrientedChain> out;
  for (const Chain& c : cycle_basis(k)) {
    // A fundamental cycle is a simple closed walk; orient it by walking it.
    // Build adjacency within the cycle's edge set.
    std::unordered_map<VertexId, std::vector<VertexId>, VertexIdHash> adj;
    for (const Simplex& e : c) {
      adj[e[0]].push_back(e[1]);
      adj[e[1]].push_back(e[0]);
    }
    OrientedChain oriented;
    if (c.empty()) continue;
    const VertexId start = c.front()[0];
    VertexId prev = start, cur = c.front()[1];
    oriented_add_edge(oriented, prev, cur);
    while (cur != start) {
      const auto& nbrs = adj.at(cur);
      const VertexId next = nbrs[0] == prev ? nbrs[1] : nbrs[0];
      oriented_add_edge(oriented, cur, next);
      prev = cur;
      cur = next;
    }
    out.push_back(std::move(oriented));
  }
  return out;
}

}  // namespace trichroma
