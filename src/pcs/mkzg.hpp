/**
 * @file
 * Multilinear KZG (PST13) polynomial commitment in the Lagrange (eq)
 * basis — the commitment scheme HyperPlonk is built on.
 *
 * Setup samples tau in Fr^mu and publishes, for every suffix length k,
 * the G1 points { eq((tau_{mu-k+1},...,tau_mu), b) * g : b in {0,1}^k }
 * plus { h, h^{tau_i} } in G2. Committing to an MLE is then a 2^mu-point
 * MSM of its evaluation table against the level-mu basis (paper Section
 * 2.4: scalars are the MLE table entries).
 *
 * Opening at z produces one quotient commitment per variable; quotient
 * k has 2^{mu-k} entries, so the opening performs MSMs of sizes
 * 2^{mu-1}, 2^{mu-2}, ..., 2^0 — exactly the halving MSM sequence of the
 * Polynomial Opening step (paper Section 3.3.5).
 *
 * Verification checks
 *   e(C - v g, h) == prod_k e(Pi_k, h^{tau_k - z_k})
 * with real pairings; tau itself is discarded once the SRS is built.
 */
#pragma once

#include <optional>
#include <random>
#include <vector>

#include "curve/msm.hpp"
#include "curve/pairing.hpp"
#include "mle/mle.hpp"
#include "verify/accumulator.hpp"

namespace zkspeed::pcs {

using curve::G1;
using curve::G1Affine;
using curve::G2;
using curve::G2Affine;
using ff::Fr;
using mle::Mle;

/** Universal structured reference string for a fixed variable count. */
struct Srs {
    size_t num_vars = 0;
    /**
     * lagrange[k][i] = eq(last k entries of tau, i) * g, for k = 0..mu.
     * lagrange[mu] is the commitment basis; smaller levels commit opening
     * quotients. Only lagrange[mu] is built by scalar multiplication;
     * each lower level is the pairwise sum of the one above.
     */
    std::vector<std::vector<G1Affine>> lagrange;
    G1Affine g;
    G2Affine h;
    /** h^{tau_i}, i = 0..mu-1. */
    std::vector<G2Affine> tau_h;

    /**
     * Run the (locally simulated) universal setup. tau is drawn first,
     * tau_0 .. tau_{mu-1}, as consecutive Fr::random(rng) values, and is
     * not kept.
     */
    // Ignored bool: perfbench passes it; a [benchmark] change deletes it.
    static Srs generate(size_t num_vars, std::mt19937_64 &rng, bool = true);
};

/** An opening proof: one quotient commitment per variable. */
struct OpeningProof {
    std::vector<G1Affine> quotients;
};

/** Commit to an MLE (Pippenger MSM against the Lagrange basis).
 * @throws std::invalid_argument when poly has more variables than the
 *   SRS. */
G1Affine commit(const Srs &srs, const Mle &poly);

/** Sparse commit for 0/1-heavy tables (witness commitments).
 * @throws std::invalid_argument when poly has more variables than the
 *   SRS. */
G1Affine commit_sparse(const Srs &srs, const Mle &poly,
                       curve::MsmStats *stats = nullptr);

/**
 * Open `poly` at `point`; returns the proof and the evaluation v.
 * Performs the halving MSM sequence described in the header comment.
 * @throws std::invalid_argument when poly has more variables than the
 *   SRS or than `point` has coordinates.
 */
std::pair<OpeningProof, Fr> open(const Srs &srs, const Mle &poly,
                                 std::span<const Fr> point);

/**
 * Pairing-based verification of an opening: accumulate then flush
 * (one G1 MSM per distinct G2 point, one product-of-pairings check).
 */
bool verify(const Srs &srs, const G1Affine &comm, std::span<const Fr> point,
            const Fr &value, const OpeningProof &proof);

/**
 * Deferred verification: push the pairing terms this opening would
 * check into `acc` instead of pairing inline. The terms are decomposed
 * onto the SRS's fixed G2 basis {h, h^{tau_k}} —
 *   e(Pi_k, h^{tau_k - z_k}) = e(Pi_k, h^{tau_k}) * e(-z_k Pi_k, h)
 * — so no G2 scalar multiplication is ever performed, and openings
 * against the same SRS share their pairing slots when batch-flushed.
 *
 * The opened commitment is passed unscaled, as the combination
 * C = sum_c comm_coeffs[c] * comm_bases[c]; each term lands on the h
 * slot, so a verifier that derives C homomorphically never runs that
 * MSM itself. A single commitment is the one-term combination.
 *
 * @return false when the proof shape is wrong (nothing accumulated);
 *   true means "accumulated" — the opening is valid iff the flush
 *   accepts.
 */
bool accumulate(const Srs &srs, std::span<const G1Affine> comm_bases,
                std::span<const Fr> comm_coeffs, std::span<const Fr> point,
                const Fr &value, const OpeningProof &proof,
                zkspeed::verifier::PairingAccumulator &acc);

}  // namespace zkspeed::pcs
