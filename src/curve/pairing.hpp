/**
 * @file
 * Optimal-ate pairing on BLS12-381.
 *
 * e: G1 x G2 -> GT (the r-th roots of unity in Fq12). Used by the
 * multilinear-KZG verifier to check polynomial-opening proofs:
 *   e(C - v g, h) == prod_i e(pi_i, h^{tau_i} - z_i h).
 *
 * Implementation notes: one Miller loop over |x| = 0xd201000000010000
 * with homogeneous-projective line evaluation (M-twist, mul_by_014
 * sparse multiplication), conjugation at the end because the BLS
 * parameter is negative. Its G2 half runs once per point in prepare_g2;
 * the loop itself consumes the prepared line coefficients, and the
 * one-pair miller_loop and pairing are wrappers over it.
 *
 * The final exponentiation (Scott et al., ePrint 2008/490) computes the
 * easy part (q^6-1)(q^2+1) with one inversion, a conjugation and the
 * q^2-power Frobenius. Its output lies in the cyclotomic subgroup, where
 * conjugation inverts and Granger-Scott squaring (ePrint 2009/565) is
 * cheap. The hard part raises to d = (q^4 - q^2 + 1)/r through the
 * exact split d = mu_0 + mu_1 q + mu_2 q^2 + mu_3 q^3, mu_i = lambda_i/3
 * for the BLS12 polynomials lambda_i in x, evaluated as one simultaneous
 * exponentiation of t, t^q, t^{q^2}, t^{q^3} (Frobenius maps) with a
 * 16-entry subset table and cyclotomic squarings. The mu_i are derived
 * from |x| on first use and checked: x = 1 (mod 3), r | q^4 - q^2 + 1
 * and sum mu_i q^i == d as integers. A failed check throws; there is no
 * fallback exponent.
 */
#pragma once

#include <span>
#include <vector>

#include "curve/fq12.hpp"
#include "curve/g1.hpp"
#include "curve/g2.hpp"

namespace zkspeed::curve {

/**
 * Precomputed Miller-loop line coefficients for a fixed G2 point.
 *
 * The doubling/addition steps of the loop depend only on the G2 input;
 * the G1 point enters through the (cheap) line evaluation. Preparing a
 * G2 point once therefore removes all G2 arithmetic from later pairings
 * against it, which the batch verifier's bisection probes re-use.
 */
struct G2Prepared {
    /** (c0, c1, c4) triples feeding Fq12::mul_by_014, in loop order. */
    struct Coeffs {
        Fq2 c0, c1, c4;
    };
    std::vector<Coeffs> coeffs;
    bool infinity = true;
};

/** Run the G2-only half of the Miller loop once. */
G2Prepared prepare_g2(const G2Affine &q);

/** The Miller loop: product over i of the Miller outputs of (P_i, Q_i),
 * before the final exponentiation they share. */
Fq12 multi_miller_loop(std::span<const G1Affine> ps,
                       std::span<const G2Prepared> qs);

/** Miller loop of one pair, without final exponentiation. */
Fq12 miller_loop(const G1Affine &p, const G2Affine &q);

/** Final exponentiation to the r-th-power residue group. */
Fq12 final_exponentiation(const Fq12 &f);

/** Full pairing e(P, Q). */
Fq12 pairing(const G1Affine &p, const G2Affine &q);

/**
 * Product pairing check: returns true iff prod_i e(P_i, Q_i) == 1.
 * This is the primitive every pairing check of the verifier ends in.
 */
bool pairing_product_is_one(std::span<const G1Affine> ps,
                            std::span<const G2Prepared> qs);

}  // namespace zkspeed::curve
