/**
 * @file
 * The HyperPlonk prover and verifier (paper Section 3.3).
 *
 * Proof generation runs the five protocol steps in series, with SHA3
 * transcript updates enforcing the order (Section 3.3.6):
 *   1. Witness Commits        — sparse MSMs over w1..w3
 *   2. Gate Identity          — Build MLE + ZeroCheck on Eq. 3
 *   3. Wiring Identity        — Construct N&D, FracMLE, ProdMLE, two
 *                               dense MSMs, ZeroCheck on Eq. 4 (PermCheck)
 *   4. Batch Evaluations      — 22 evaluations of 13 polynomials at 6
 *                               points (23/14 with custom gates), one
 *                               per detail::claim_list entry (see
 *                               DESIGN.md for the breakdown)
 *   5. Polynomial Opening     — MLE Combine, Build MLE (k_j), OpenCheck
 *                               on Eq. 5, g' construction and the halving
 *                               MSM opening
 */
#pragma once

#include <memory>

#include "hyperplonk/circuit.hpp"
#include "hyperplonk/sumcheck.hpp"
#include "pcs/mkzg.hpp"

namespace zkspeed::hyperplonk {

using curve::G1Affine;

/** Canonical polynomial ordering used throughout the batch opening. */
enum PolyId : size_t {
    kQl = 0, kQr, kQm, kQo, kQc, kQh,  // 0..5 (q_H: custom gates)
    kW1, kW2, kW3,                     // 6..8
    kS1, kS2, kS3,                     // 9..11
    kPhi, kPi,                         // 12..13
    kQLookup, kTTag, kT1, kT2, kT3,    // 14..18 (lookup: preprocessed)
    kM, kHf, kHt,                      // 19..21 (lookup: proof-carried)
    kNumPolys,
};

struct ProvingKey {
    CircuitIndex index;
    std::shared_ptr<const pcs::Srs> srs;
    std::array<G1Affine, 6> selector_comms;  ///< qL,qR,qM,qO,qC,qH
    std::array<G1Affine, 3> sigma_comms;
    /** q_lookup, tag, t1, t2, t3 (identity when has_lookup is false). */
    std::array<G1Affine, 5> lookup_comms{};
};

struct VerifyingKey {
    size_t num_vars = 0;
    size_t num_public = 0;
    /** Whether the circuit uses q_H custom gates (degree-7 ZeroCheck,
     * 23 batch claims instead of 22). */
    bool custom_gates = false;
    /** Whether the circuit carries a lookup argument (LookupCheck
     * sumcheck, 3 extra commitments, 11 extra batch claims). */
    bool has_lookup = false;
    std::array<G1Affine, 6> selector_comms;  ///< qL,qR,qM,qO,qC,qH
    std::array<G1Affine, 3> sigma_comms;
    /** q_lookup, tag, t1, t2, t3 (identity when has_lookup is false). */
    std::array<G1Affine, 5> lookup_comms{};
    std::shared_ptr<const pcs::Srs> srs;
};

struct Proof {
    /** Circuit shape: with detail::claim_list these fix which claims
     * `evals` holds and which lookup fields are present. */
    bool custom_gates = false;
    bool has_lookup = false;

    std::array<G1Affine, 3> witness_comms;
    SumcheckProof zerocheck;
    G1Affine phi_comm, pi_comm;
    SumcheckProof permcheck;
    /** Step 4's claimed evaluations, one per entry of
     * detail::claim_list(custom_gates, has_lookup), in its order. */
    std::vector<Fr> evals;
    SumcheckProof opencheck;
    Fr gprime_value;
    pcs::OpeningProof gprime_proof;

    /** Lookup argument (has_lookup circuits only): multiplicity and
     * helper commitments plus the degree-3 LookupCheck transcript. */
    G1Affine m_comm, hf_comm, ht_comm;
    SumcheckProof lookupcheck;

    /** Wire size in bytes: serde::serialize_proof(*this).size(). */
    size_t size_bytes() const;
};

/**
 * Commit to the preprocessed index, splitting pk/vk.
 * @throws std::invalid_argument unless srs->num_vars == index.num_vars.
 */
std::pair<ProvingKey, VerifyingKey> keygen(
    CircuitIndex index, std::shared_ptr<const pcs::Srs> srs);

/** Generate a HyperPlonk proof. Profiled via hyperplonk/profile.hpp.
 * @throws std::invalid_argument unless every witness column has the
 *   key's 2^num_vars rows. */
Proof prove(const ProvingKey &pk, const Witness &witness);

// Ignored by verify: perfbench passes it; a [benchmark] change deletes it.
enum class PcsCheckMode { pairing };

/**
 * Verify a proof against the public inputs: verify_deferred into a
 * fresh accumulator, then its pairing check.
 */
bool verify(const VerifyingKey &vk, std::span<const Fr> public_inputs,
            const Proof &proof, PcsCheckMode = PcsCheckMode::pairing);

/**
 * Deferred verification for batching: run every algebraic check
 * (transcript, sumchecks, claimed-evaluation consistency, public
 * inputs) inline, but push the final PCS pairing check into `acc`
 * instead of evaluating it. No G1 work runs here: the opened
 * commitment C_{g'} enters `acc` as its unscaled combination of the
 * proof's and key's commitments, so the flush's MSM pays for it.
 *
 * @return false when an algebraic check fails (nothing is accumulated
 *   in that case); true means the proof is valid iff the accumulator's
 *   eventual flush accepts. See verifier::BatchVerifier for the folded
 *   multi-proof flush.
 */
bool verify_deferred(const VerifyingKey &vk,
                     std::span<const Fr> public_inputs, const Proof &proof,
                     zkspeed::verifier::PairingAccumulator &acc);

}  // namespace zkspeed::hyperplonk
