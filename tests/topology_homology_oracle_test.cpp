// Oracle test for the sparse GF(p) column-reduction kernel behind
// topology/homology.h. The dense routines that kernel replaced live on
// here, verbatim, as the only second implementation: a packed-row GF(2)
// matrix for the Betti numbers, a GF(2) echelon span for bounds_in /
// bounds_modulo, and a dense long-long GF(p) span for bounds_modulo_p.
// Both must agree on the output complexes T* and T' of every catalog task,
// on every Δ(σ) of T', on the torus, RP², an annulus and a 3-dimensional
// complex, and on 200 seeded RandomTaskStream draws — for random sums of
// triangle boundaries (which must bound), random 1-cycles, and chains that
// leave the complex (which must not).

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/characterization.h"
#include "tasks/zoo.h"
#include "topology/homology.h"

namespace trichroma {
namespace oracle {
namespace {

/// Dense GF(2) matrix with 64-bit packed rows; supports rank computation and
/// membership-in-column-span queries via incremental row reduction.
class Gf2Matrix {
 public:
  Gf2Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), words_((cols + 63) / 64),
        data_(rows * words_, 0) {}

  void set(std::size_t r, std::size_t c) {
    data_[r * words_ + c / 64] |= (std::uint64_t{1} << (c % 64));
  }

  /// Rank via Gaussian elimination (destructive on a copy).
  std::size_t rank() const {
    std::vector<std::vector<std::uint64_t>> rows;
    rows.reserve(rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
      rows.emplace_back(data_.begin() + static_cast<long>(r * words_),
                        data_.begin() + static_cast<long>((r + 1) * words_));
    }
    std::size_t rank = 0;
    for (std::size_t c = 0; c < cols_ && rank < rows.size(); ++c) {
      const std::size_t w = c / 64;
      const std::uint64_t bit = std::uint64_t{1} << (c % 64);
      std::size_t pivot = rank;
      while (pivot < rows.size() && (rows[pivot][w] & bit) == 0) ++pivot;
      if (pivot == rows.size()) continue;
      std::swap(rows[rank], rows[pivot]);
      for (std::size_t r = 0; r < rows.size(); ++r) {
        if (r != rank && (rows[r][w] & bit)) {
          for (std::size_t k = 0; k < words_; ++k) rows[r][k] ^= rows[rank][k];
        }
      }
      ++rank;
    }
    return rank;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::vector<std::uint64_t> row(std::size_t r) const {
    return {data_.begin() + static_cast<long>(r * words_),
            data_.begin() + static_cast<long>((r + 1) * words_)};
  }

 private:
  std::size_t rows_, cols_, words_;
  std::vector<std::uint64_t> data_;
};

/// Row-echelon basis over GF(2); supports adding vectors and testing
/// membership in the span.
class Gf2Span {
 public:
  explicit Gf2Span(std::size_t dim) : words_((dim + 63) / 64) {}

  /// Reduces `v` against the basis; if nonzero remains, adds it and returns
  /// true (dimension grew).
  bool add(std::vector<std::uint64_t> v) {
    reduce(v);
    if (is_zero(v)) return false;
    basis_.push_back(std::move(v));
    normalize_last();
    return true;
  }

  bool contains(std::vector<std::uint64_t> v) const {
    reduce(v);
    return is_zero(v);
  }

 private:
  static bool is_zero(const std::vector<std::uint64_t>& v) {
    for (std::uint64_t w : v)
      if (w != 0) return false;
    return true;
  }

  static int leading_bit(const std::vector<std::uint64_t>& v) {
    for (std::size_t w = 0; w < v.size(); ++w) {
      if (v[w] != 0) {
        return static_cast<int>(w * 64 + static_cast<std::size_t>(__builtin_ctzll(v[w])));
      }
    }
    return -1;
  }

  void reduce(std::vector<std::uint64_t>& v) const {
    for (const auto& b : basis_) {
      const int lb = leading_bit(b);
      if (lb >= 0 && (v[static_cast<std::size_t>(lb) / 64] &
                      (std::uint64_t{1} << (lb % 64)))) {
        for (std::size_t k = 0; k < v.size(); ++k) v[k] ^= b[k];
      }
    }
  }

  void normalize_last() {
    // Keep basis rows mutually reduced for a canonical echelon form.
    auto& last = basis_.back();
    for (std::size_t i = 0; i + 1 < basis_.size(); ++i) {
      const int lb = leading_bit(last);
      if (lb >= 0 && (basis_[i][static_cast<std::size_t>(lb) / 64] &
                      (std::uint64_t{1} << (lb % 64)))) {
        for (std::size_t k = 0; k < last.size(); ++k) basis_[i][k] ^= last[k];
      }
    }
  }

  std::size_t words_;
  std::vector<std::vector<std::uint64_t>> basis_;
};

/// Index mapping for the d-simplices of a complex.
struct SimplexIndex {
  std::vector<Simplex> list;
  std::unordered_map<Simplex, std::size_t, SimplexHash> at;

  explicit SimplexIndex(const SimplicialComplex& k, int d) : list(k.simplices(d)) {
    for (std::size_t i = 0; i < list.size(); ++i) at.emplace(list[i], i);
  }
};

Gf2Matrix boundary_matrix(const SimplexIndex& lower, const SimplexIndex& upper) {
  Gf2Matrix m(lower.list.size(), upper.list.size());
  for (std::size_t c = 0; c < upper.list.size(); ++c) {
    for (const Simplex& face : upper.list[c].boundary_faces()) {
      m.set(lower.at.at(face), c);
    }
  }
  return m;
}

std::vector<std::uint64_t> chain_to_bits(const Chain& c, const SimplexIndex& idx) {
  std::vector<std::uint64_t> bits((idx.list.size() + 63) / 64, 0);
  for (const Simplex& s : c) {
    const std::size_t i = idx.at.at(s);
    bits[i / 64] ^= (std::uint64_t{1} << (i % 64));
  }
  return bits;
}

}  // namespace

BettiNumbers betti_numbers(const SimplicialComplex& k) {
  BettiNumbers out;
  if (k.empty()) return out;
  const SimplexIndex v0(k, 0), v1(k, 1), v2(k, 2);
  const std::size_t rank_d1 =
      v1.list.empty() ? 0 : boundary_matrix(v0, v1).rank();
  const std::size_t rank_d2 =
      v2.list.empty() ? 0 : boundary_matrix(v1, v2).rank();
  out.b0 = static_cast<long long>(v0.list.size() - rank_d1);
  out.b1 = static_cast<long long>(v1.list.size() - rank_d1 - rank_d2);
  out.b2 = static_cast<long long>(v2.list.size() - rank_d2);
  return out;
}

bool bounds_modulo(const SimplicialComplex& k, const Chain& cycle,
                   const std::vector<Chain>& generators);

bool bounds_in(const SimplicialComplex& k, const Chain& cycle) {
  return oracle::bounds_modulo(k, cycle, {});
}

bool bounds_modulo(const SimplicialComplex& k, const Chain& cycle,
                   const std::vector<Chain>& generators) {
  assert(is_one_cycle(cycle));
  const SimplexIndex v1(k, 1), v2(k, 2);
  for (const Simplex& e : cycle) {
    if (v1.at.count(e) == 0) return false;  // cycle leaves the complex
  }
  Gf2Span span(v1.list.size());
  // Span of ∂2 columns (the boundary space B1)...
  for (const Simplex& t : v2.list) {
    Chain b;
    for (const Simplex& f : t.boundary_faces()) b.push_back(f);
    span.add(chain_to_bits(b, v1));
  }
  // ... plus the allowed adjustment generators.
  for (const Chain& g : generators) {
    for (const Simplex& e : g) {
      if (v1.at.count(e) == 0) return false;
    }
    span.add(chain_to_bits(g, v1));
  }
  return span.contains(chain_to_bits(cycle, v1));
}

namespace {

long long mod_p(long long x, long long p) {
  const long long r = x % p;
  return r < 0 ? r + p : r;
}

long long mod_inverse(long long a, long long p) {
  // Fermat: p is prime and a != 0 mod p.
  long long result = 1, base = mod_p(a, p), exp = p - 2;
  while (exp > 0) {
    if (exp & 1) result = (result * base) % p;
    base = (base * base) % p;
    exp >>= 1;
  }
  return result;
}

}  // namespace

bool bounds_modulo_p(const SimplicialComplex& k, const OrientedChain& cycle,
                     const std::vector<OrientedChain>& generators, long long p) {
  // Index the edges of k.
  const std::vector<Simplex> edges = k.simplices(1);
  std::unordered_map<Simplex, std::size_t, SimplexHash> edge_index;
  for (std::size_t i = 0; i < edges.size(); ++i) edge_index.emplace(edges[i], i);
  const std::size_t n = edges.size();

  auto to_vector = [&](const OrientedChain& c,
                       std::vector<long long>& out) -> bool {
    out.assign(n, 0);
    for (const auto& [edge, coeff] : c) {
      auto it = edge_index.find(edge);
      if (it == edge_index.end()) return false;  // chain leaves the complex
      out[it->second] = mod_p(coeff, p);
    }
    return true;
  };

  // Span basis (row echelon over GF(p)) of ∂2-columns plus generators.
  std::vector<std::vector<long long>> basis;
  std::vector<std::size_t> pivot_of;  // pivot column per basis row
  auto reduce = [&](std::vector<long long>& v) {
    for (std::size_t r = 0; r < basis.size(); ++r) {
      const std::size_t piv = pivot_of[r];
      if (v[piv] != 0) {
        const long long factor = v[piv];
        for (std::size_t j = 0; j < n; ++j) {
          v[j] = mod_p(v[j] - factor * basis[r][j], p);
        }
      }
    }
  };
  auto add_to_span = [&](std::vector<long long> v) {
    reduce(v);
    for (std::size_t j = 0; j < n; ++j) {
      if (v[j] != 0) {
        const long long inv = mod_inverse(v[j], p);
        for (std::size_t i = 0; i < n; ++i) v[i] = (v[i] * inv) % p;
        basis.push_back(std::move(v));
        pivot_of.push_back(j);
        return;
      }
    }
  };

  for (const Simplex& t : k.simplices(2)) {
    // ∂{a,b,c} = (b,c) - (a,c) + (a,b) with a < b < c.
    OrientedChain b;
    oriented_add_edge(b, t[1], t[2], 1);
    oriented_add_edge(b, t[0], t[2], -1);
    oriented_add_edge(b, t[0], t[1], 1);
    std::vector<long long> v;
    if (!to_vector(b, v)) return false;
    add_to_span(std::move(v));
  }
  for (const OrientedChain& g : generators) {
    std::vector<long long> v;
    if (!to_vector(g, v)) return false;
    add_to_span(std::move(v));
  }

  std::vector<long long> target;
  if (!to_vector(cycle, target)) return false;
  reduce(target);
  for (long long x : target) {
    if (x != 0) return false;
  }
  return true;
}

}  // namespace oracle

namespace {

/// A vertex no complex in this file contains: chains through it leave k.
constexpr VertexId kForeign{0xfffffff0u};

class HomologyOracle {
 public:
  explicit HomologyOracle(std::uint64_t seed) : rng_(seed) {}

  /// Compares every entry point against the oracle on `k`, over a few
  /// random cycles of each kind.
  void expect_agreement(const SimplicialComplex& k, const std::string& label) {
    SCOPED_TRACE(label);
    const BettiNumbers got = betti_numbers(k), want = oracle::betti_numbers(k);
    EXPECT_EQ(got.b0, want.b0);
    EXPECT_EQ(got.b1, want.b1);
    EXPECT_EQ(got.b2, want.b2);
    if (k.count(1) == 0) return;

    const std::vector<Simplex> triangles = k.simplices(2);
    const std::vector<Chain> basis = cycle_basis(k);
    const std::vector<OrientedChain> oriented_basis = oriented_cycle_basis(k);
    for (int trial = 0; trial < kTrials; ++trial) {
      // GF(2): sums of triangle boundaries bound; random cycles agree.
      const Chain filled = boundary(subset(triangles));
      EXPECT_TRUE(bounds_in(k, filled));
      EXPECT_TRUE(oracle::bounds_in(k, filled));
      const Chain cycle = gf2_sum(subset(basis));
      const std::vector<Chain> gens = subset(basis, 2);
      EXPECT_EQ(bounds_in(k, cycle), oracle::bounds_in(k, cycle));
      EXPECT_EQ(bounds_modulo(k, cycle, gens), oracle::bounds_modulo(k, cycle, gens));
      EXPECT_EQ(bounds_modulo(k, chain_add(cycle, filled), gens),
                oracle::bounds_modulo(k, chain_add(cycle, filled), gens));

      // GF(p): integer combinations of oriented triangle boundaries bound
      // for every p; integer combinations of basis cycles agree at 2 and 3.
      OrientedChain oriented_filled, oriented_cycle;
      for (const Simplex& t : triangles) {
        const long long f = factor();
        oriented_add_edge(oriented_filled, t[1], t[2], f);
        oriented_add_edge(oriented_filled, t[0], t[2], -f);
        oriented_add_edge(oriented_filled, t[0], t[1], f);
      }
      for (const OrientedChain& c : oriented_basis) {
        const long long f = factor();
        for (const auto& [edge, coeff] : c) {
          oriented_add_edge(oriented_cycle, edge[0], edge[1], coeff * f);
        }
      }
      const std::vector<OrientedChain> oriented_gens = subset(oriented_basis, 2);
      for (const long long p : {2LL, 3LL}) {
        EXPECT_TRUE(bounds_modulo_p(k, oriented_filled, {}, p));
        EXPECT_TRUE(oracle::bounds_modulo_p(k, oriented_filled, {}, p));
        EXPECT_EQ(bounds_modulo_p(k, oriented_cycle, {}, p),
                  oracle::bounds_modulo_p(k, oriented_cycle, {}, p));
        EXPECT_EQ(bounds_modulo_p(k, oriented_cycle, oriented_gens, p),
                  oracle::bounds_modulo_p(k, oriented_cycle, oriented_gens, p));
      }
      if (bounds_in(k, cycle)) {
        ++bounding_cycles_;
      } else {
        ++nonbounding_cycles_;
      }
    }

    // Chains that leave the complex never bound, as cycle or generator.
    const Simplex e = k.simplices(1).front();
    const Chain outside = loop_to_chain({e[0], e[1], kForeign});
    EXPECT_FALSE(bounds_in(k, outside));
    EXPECT_FALSE(oracle::bounds_in(k, outside));
    EXPECT_FALSE(bounds_modulo(k, Chain{}, {outside}));
    EXPECT_FALSE(oracle::bounds_modulo(k, Chain{}, {outside}));
    const OrientedChain oriented_outside = oriented_path_chain({e[0], e[1], kForeign, e[0]});
    for (const long long p : {2LL, 3LL}) {
      EXPECT_FALSE(bounds_modulo_p(k, oriented_outside, {}, p));
      EXPECT_FALSE(oracle::bounds_modulo_p(k, oriented_outside, {}, p));
      EXPECT_FALSE(bounds_modulo_p(k, OrientedChain{}, {oriented_outside}, p));
      EXPECT_FALSE(oracle::bounds_modulo_p(k, OrientedChain{}, {oriented_outside}, p));
    }
  }

  std::size_t bounding_cycles() const { return bounding_cycles_; }
  std::size_t nonbounding_cycles() const { return nonbounding_cycles_; }

 private:
  static constexpr int kTrials = 3;

  /// Each element with probability 1/2, at most `cap` of them.
  template <typename T>
  std::vector<T> subset(const std::vector<T>& items, std::size_t cap = SIZE_MAX) {
    std::vector<T> out;
    for (const T& item : items) {
      if (out.size() < cap && (rng_() & 1)) out.push_back(item);
    }
    return out;
  }

  static Chain gf2_sum(const std::vector<Chain>& chains) {
    Chain out;
    for (const Chain& c : chains) out = chain_add(out, c);
    return out;
  }

  /// A random coefficient in [-3, 3].
  long long factor() { return static_cast<long long>(rng_() % 7) - 3; }

  std::mt19937_64 rng_;
  std::size_t bounding_cycles_ = 0, nonbounding_cycles_ = 0;
};

/// T* and T' output complexes of `task` plus every Δ(σ) of T'.
void expect_task_agreement(HomologyOracle& oracle, const Task& task) {
  const CharacterizationResult cr = characterize(task);
  oracle.expect_agreement(cr.canonical.output, task.name + " T* output");
  const Task& tp = cr.link_connected;
  oracle.expect_agreement(tp.output, task.name + " T' output");
  for (const Simplex& sigma : tp.input.simplices(tp.input.dimension())) {
    oracle.expect_agreement(tp.delta.image_complex(sigma),
                            task.name + " T' image of " + sigma.to_string(*tp.pool));
  }
}

class HomologyOracleShapes : public ::testing::Test {
 protected:
  VertexPool pool;
  VertexId v(std::int64_t x) { return pool.vertex(kNoColor, x); }

  SimplicialComplex from_triangles(const std::vector<std::array<int, 3>>& tris) {
    SimplicialComplex k;
    for (const auto& [a, b, c] : tris) k.add(Simplex{v(a), v(b), v(c)});
    return k;
  }
};

TEST_F(HomologyOracleShapes, TorusProjectivePlaneAnnulusAndSolidTetrahedron) {
  HomologyOracle oracle(17);
  // 7-vertex (Möbius–Császár) torus: {i, i+1, i+3} and {i, i+2, i+3} mod 7.
  std::vector<std::array<int, 3>> torus_tris;
  for (int i = 0; i < 7; ++i) {
    torus_tris.push_back({i, (i + 1) % 7, (i + 3) % 7});
    torus_tris.push_back({i, (i + 2) % 7, (i + 3) % 7});
  }
  const SimplicialComplex torus = from_triangles(torus_tris);
  // 6-vertex projective plane (the hemi-icosahedron).
  const SimplicialComplex rp2 = from_triangles(
      {{0, 1, 2}, {0, 2, 3}, {0, 3, 4}, {0, 4, 5}, {0, 5, 1},
       {1, 2, 4}, {2, 3, 5}, {3, 4, 1}, {4, 5, 2}, {5, 1, 3}});
  // Hexagonal annulus: outer 0,1,2 / inner 3,4,5.
  const SimplicialComplex annulus = from_triangles(
      {{0, 1, 5}, {1, 5, 3}, {1, 2, 3}, {2, 3, 4}, {2, 0, 4}, {0, 4, 5}});
  // A solid tetrahedron: its 3-cell is ignored, so b2 counts the hollow
  // boundary sphere.
  SimplicialComplex solid;
  solid.add(Simplex{v(0), v(1), v(2), v(3)});

  const struct {
    const char* name;
    const SimplicialComplex& k;
    BettiNumbers betti;
  } shapes[] = {
      {"torus", torus, {1, 2, 1}},
      {"projective plane", rp2, {1, 1, 1}},
      {"annulus", annulus, {1, 1, 0}},
      {"solid tetrahedron", solid, {1, 0, 1}},
  };
  for (const auto& shape : shapes) {
    const BettiNumbers b = betti_numbers(shape.k);
    EXPECT_EQ(b.b0, shape.betti.b0) << shape.name;
    EXPECT_EQ(b.b1, shape.betti.b1) << shape.name;
    EXPECT_EQ(b.b2, shape.betti.b2) << shape.name;
    oracle.expect_agreement(shape.k, shape.name);
  }
  oracle.expect_agreement(SimplicialComplex{}, "empty");

  // RP² has 2-torsion: its essential loop never bounds over GF(2) but
  // bounds over GF(3); twice the loop bounds over both.
  const OrientedChain loop = oriented_cycle_basis(rp2).front();
  EXPECT_FALSE(bounds_modulo_p(rp2, loop, {}, 2));
  EXPECT_TRUE(bounds_modulo_p(rp2, loop, {}, 3));
  EXPECT_TRUE(bounds_modulo_p(rp2, oriented_add(loop, loop), {}, 2));
  EXPECT_TRUE(bounds_modulo_p(rp2, oriented_add(loop, loop), {}, 3));
}

class HomologyOracleCatalog : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HomologyOracleCatalog, AgreesOnTStarTPrimeAndImages) {
  HomologyOracle oracle(GetParam());
  expect_task_agreement(oracle, zoo::catalog()[GetParam()].build());
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, HomologyOracleCatalog, ::testing::Range<std::size_t>(0, zoo::catalog().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(zoo::catalog()[info.param].name);
    });

/// 200 RandomTaskStream draws, 50 per seed.
class HomologyOracleDraws : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HomologyOracleDraws, AgreesOnTStarTPrimeAndImages) {
  HomologyOracle oracle(GetParam());
  zoo::RandomTaskParams params;
  params.seed = GetParam();
  zoo::RandomTaskStream stream(params);
  for (int i = 0; i < 50; ++i) {
    expect_task_agreement(oracle, stream.next());
    if (HasFailure()) return;
  }
  // The draws must exercise both answers, not only trivially bounding ones.
  EXPECT_GT(oracle.bounding_cycles(), 0u);
  EXPECT_GT(oracle.nonbounding_cycles(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HomologyOracleDraws, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace trichroma
