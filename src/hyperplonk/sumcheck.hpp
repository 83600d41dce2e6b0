/**
 * @file
 * The SumCheck protocol over virtual polynomials.
 *
 * P proves knowledge of H = sum over the boolean hypercube of a virtual
 * polynomial (paper Section 2.2). Each round the prover sends the
 * univariate round polynomial as evaluations at 0..d (d = max term
 * degree), the verifier checks g(0) + g(1) against the running claim,
 * derives a challenge via the Fiat-Shamir transcript, and both sides bind
 * the first variable (the MLE Update of Eq. 2).
 *
 * The prover mirrors the zkSpeed SumCheck PE strategy (Section 4.1.1):
 * every distinct MLE is extended to X = 0..d exactly once per hypercube
 * pair, with repeated polynomials (e.g. the eq factor of a ZeroCheck)
 * shared across terms rather than recomputed term-by-term as in the CPU
 * baseline.
 */
#pragma once

#include <vector>

#include "hash/transcript.hpp"
#include "mle/virtual_poly.hpp"

namespace zkspeed::hyperplonk {

using ff::Fr;
using hash::Transcript;
using mle::Mle;
using mle::VirtualPolynomial;

/** Prover messages: per-round evaluations of g_k at X = 0..degree. */
struct SumcheckProof {
    size_t num_vars = 0;
    size_t degree = 0;
    std::vector<std::vector<Fr>> round_evals;
};

/** Prover output: the proof plus bookkeeping the caller needs. */
struct SumcheckProverResult {
    SumcheckProof proof;
    std::vector<Fr> challenges;        ///< the random point r
    std::vector<Fr> final_mle_values;  ///< each MLE evaluated at r
};

/** Verifier output. */
struct SumcheckVerifierResult {
    bool ok = false;
    std::vector<Fr> challenges;
    /** The claimed value of the virtual polynomial at `challenges`; the
     * caller must check it against independently-verified MLE openings. */
    Fr final_value;
};

/**
 * Cost breakdown separating the round-evaluation kernel from the MLE
 * Update kernel, mirroring the paper's Table-1 split ("ZeroCheck Rounds"
 * vs "All MLE Updates"). Bytes are logical table traffic at 32 B/element.
 */
struct SumcheckCosts {
    uint64_t round_modmuls = 0;
    uint64_t update_modmuls = 0;
    uint64_t round_bytes_in = 0;
    uint64_t update_bytes_in = 0;
    uint64_t update_bytes_out = 0;
};

/**
 * Evaluate the degree-d polynomial interpolating (k, evals[k]), k = 0..d,
 * at x (Lagrange form with factorial denominators; the hardware performs
 * the same fixed interpolation step, Section 4.1.1). The inverse
 * denominators come from a table built once, so a call costs 5(d + 1)
 * Fr muls and no inversion.
 * @throws std::invalid_argument unless 1 <= d <= 7, the degrees the
 *   protocol's sumchecks use (the verifier picks d, never the proof).
 */
Fr interpolate_univariate(std::span<const Fr> evals, const Fr &x);

/** Run the SumCheck prover. The virtual polynomial is not modified. */
SumcheckProverResult sumcheck_prove(const VirtualPolynomial &vp,
                                    Transcript &transcript,
                                    SumcheckCosts *costs = nullptr);

/**
 * Verify a SumCheck transcript against a claimed hypercube sum.
 *
 * @param claimed_sum the value H the prover asserts.
 * @param num_vars expected round count.
 * @param degree expected per-round degree bound.
 */
SumcheckVerifierResult sumcheck_verify(const Fr &claimed_sum,
                                       size_t num_vars, size_t degree,
                                       const SumcheckProof &proof,
                                       Transcript &transcript);

}  // namespace zkspeed::hyperplonk
