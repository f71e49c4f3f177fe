#ifndef GFR_GF2_IRREDUCIBILITY_H
#define GFR_GF2_IRREDUCIBILITY_H

// Irreducibility testing for polynomials over GF(2).
//
// Uses Rabin's test: f of degree m is irreducible over GF(2) iff
//   (1) y^(2^m) == y (mod f), and
//   (2) gcd(y^(2^(m/p)) - y mod f, f) == 1 for every prime divisor p of m.
//
// Before the chain, a pre-check for degree > 5 reduces f modulo P, the
// product of the twelve irreducibles of degree 2-5 (degree 50, one word),
// and rejects f when gcd(f mod P, P) != 1: f then has a factor of degree
// 2-5.  An irreducible f of degree > 5 shares no factor with P, so the
// check never rejects one; it stops about half of the reducible type II
// candidates the NIST-degree searches meet before their m squarings.
//
// Both conditions come from one chain of m squarings of y on raw words:
// each squaring is gf2::spread_words followed by gf2::WordFold, the sparse
// word-level fold the field engine reduces with.  The chain snapshots
// y^(2^(m/p)) as it passes i = m/p for each prime p of m; condition (2) then
// takes one Poly::gcd per snapshot.  A test rebuilds the same predicate from
// the bit-serial Poly::pow2k_mod, the independent reference.
//
// All five NIST ECDSA binary fields and the paper's nine (m,n) fields are
// validated through this test in the test suite.

#include "gf2/gf2_poly.h"

#include <vector>

namespace gfr::gf2 {

/// Distinct prime factors of n, ascending.  Requires n >= 1.
std::vector<int> distinct_prime_factors(int n);

/// True iff f is irreducible over GF(2).  Degree-0 and degree-1 cases follow
/// the usual convention: constants are not irreducible; y and y+1 are.
/// Allocates a few times per call, not per squaring.  A build compiled for
/// PCLMULQDQ can throw std::runtime_error on a CPU without it (see WordFold).
bool is_irreducible(const Poly& f);

}  // namespace gfr::gf2

#endif  // GFR_GF2_IRREDUCIBILITY_H
