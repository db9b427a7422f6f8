#pragma once
// Simplicial homology over GF(2) for low-dimensional complexes.
//
// Used for two purposes in this reproduction:
//  1. Diagnostic reporting of output-complex shape (Betti numbers b0/b1/b2)
//     in the benchmark harness and the characterization report.
//  2. The homological impossibility engine: deciding whether a carrier-
//     respecting boundary loop is null-homologous in |Δ'(σ)| — the
//     computable, sound sufficient condition for the paper's "no continuous
//     map" (contractibility-type) obstruction (§6.2, pinwheel; 2-set
//     agreement). A loop extending over the input disk must bound over any
//     coefficient field, so "never bounds over GF(2)" certifies impossibility.

#include <optional>
#include <vector>

#include "topology/compiled.h"
#include "topology/complex.h"

namespace trichroma {

/// A GF(2) chain of d-simplices, represented as the sorted list of simplices
/// with odd coefficient.
using Chain = std::vector<Simplex>;

/// Symmetric difference (GF(2) sum) of two chains.
Chain chain_add(const Chain& a, const Chain& b);

/// Boundary of a chain of d-simplices (d >= 1) as a chain of (d-1)-simplices.
Chain boundary(const Chain& c);

/// True iff `c` consists of 1-simplices and has zero boundary.
bool is_one_cycle(const Chain& c);

/// The chain of edges traced by a closed vertex path v0 v1 ... vk v0
/// (consecutive duplicates and backtracking edges cancel over GF(2)).
Chain loop_to_chain(const std::vector<VertexId>& closed_path);

/// Betti numbers over GF(2). b[d] = dim H_d(k; GF(2)).
struct BettiNumbers {
  long long b0 = 0;
  long long b1 = 0;
  long long b2 = 0;
};
BettiNumbers betti_numbers(const SimplicialComplex& k);

/// Decides whether the 1-cycle `cycle` is a GF(2) boundary in `k`, i.e.
/// whether there exists a 2-chain x with ∂x = cycle. Precondition: every
/// edge of `cycle` is in `k` and `cycle` is a cycle.
bool bounds_in(const SimplicialComplex& k, const Chain& cycle);

/// Decides whether `cycle` lies in the GF(2) span of `generators` modulo
/// boundaries of `k`, i.e. whether cycle + Σ S ⊆ B1(k) for some subset S of
/// generators. This is the workhorse of the homological obstruction test:
/// the achievable boundary-loop classes form base + span(generators), and
/// solvability requires one of them to bound.
bool bounds_modulo(const SimplicialComplex& k, const Chain& cycle,
                   const std::vector<Chain>& generators);

/// A basis of the 1-cycle space Z1 of `k` (as edge chains), computed from a
/// spanning forest: one fundamental cycle per non-tree edge.
std::vector<Chain> cycle_basis(const SimplicialComplex& k);

// ---------------------------------------------------------------------------
// Oriented (mod-p) homology.
//
// GF(2) bounding is blind to *torsion-type* failures: a boundary loop that
// winds twice around a hole is 2·γ, which vanishes over GF(2) but not over
// GF(3). A null-homotopic loop bounds over every coefficient field, so
// "does not bound mod p" is a sound impossibility certificate for ANY prime
// p; checking p = 2 and p = 3 together catches every obstruction the
// examples in this repository can exhibit (see zoo::twisted_hourglass).
// Oriented chains carry integer coefficients on edges oriented from the
// smaller to the larger vertex id.
// ---------------------------------------------------------------------------

/// A 1-chain with integer coefficients; keys are edges (2-vertex simplices),
/// values are coefficients w.r.t. the small→large orientation. Zero
/// coefficients are absent.
using OrientedChain = std::unordered_map<Simplex, long long, SimplexHash>;

/// Adds `delta` times the oriented edge (from, to) to the chain.
void oriented_add_edge(OrientedChain& chain, VertexId from, VertexId to,
                       long long delta = 1);

/// The oriented chain traced by walking `path` (consecutive vertices).
OrientedChain oriented_path_chain(const std::vector<VertexId>& path);

/// Sum of two oriented chains.
OrientedChain oriented_add(const OrientedChain& a, const OrientedChain& b);

/// True iff the chain's boundary (over Z) vanishes.
bool is_oriented_cycle(const OrientedChain& c);

/// Decides whether `cycle` lies, modulo the prime `p`, in the span of the
/// 2-simplex boundaries of `k` plus the given generator cycles. Sound
/// impossibility certificate: a loop that extends over a disk bounds over
/// every field, so returning false for any p refutes extendability.
/// `p` must be a prime below 2^32.
bool bounds_modulo_p(const CompiledComplex& k, const OrientedChain& cycle,
                     const std::vector<OrientedChain>& generators, long long p);

/// Convenience overload: compiles `k`, then runs the check above. Callers
/// checking one complex for several primes should compile it once.
bool bounds_modulo_p(const SimplicialComplex& k, const OrientedChain& cycle,
                     const std::vector<OrientedChain>& generators, long long p);

/// Oriented version of cycle_basis (same fundamental cycles, ±1 coeffs).
std::vector<OrientedChain> oriented_cycle_basis(const SimplicialComplex& k);

}  // namespace trichroma
