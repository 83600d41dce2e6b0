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
 *                               (23/14 with custom gates) points
 *                               (see DESIGN.md for the breakdown)
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

/**
 * The 22 claimed evaluations of Step 4, grouped by point:
 *   z1 = gate-identity point r_g, z2 = wiring point r_p,
 *   z3/z4 = the p1/p2 child points u0/u1, z5 = the product-tree root
 *   (compile-time fixed), z6 = the public-input point.
 */
struct BatchEvaluations {
    std::array<Fr, 8> at_gate;  ///< qL,qR,qM,qO,qC,w1,w2,w3 at r_g
    std::array<Fr, 8> at_perm;  ///< w1,w2,w3,s1,s2,s3,phi,pi at r_p
    std::array<Fr, 2> at_u0;    ///< phi,pi at u0
    std::array<Fr, 2> at_u1;    ///< phi,pi at u1
    Fr pi_at_root;              ///< pi at the tree-root index (must be 1)
    Fr w1_at_pub;               ///< w1 at the public-input point
    /** q_H at the gate point (custom-gate circuits only). */
    Fr qh_at_gate;
    bool custom = false;
    /** w1,w2,w3,q_lookup,tag,t1,t2,t3,m,h_f,h_t at the LookupCheck
     * point r_l (lookup circuits only; order matches claim_list). */
    std::array<Fr, 11> at_lookup;
    bool lookup = false;

    /** All values in canonical order: 22 base, +1 custom, +11 lookup. */
    std::vector<Fr> flatten() const;
    size_t
    count() const
    {
        return kBaseCount + (custom ? 1 : 0) + (lookup ? kLookupCount : 0);
    }
    static constexpr size_t kBaseCount = 22;
    static constexpr size_t kLookupCount = 11;
};

struct Proof {
    std::array<G1Affine, 3> witness_comms;
    SumcheckProof zerocheck;
    G1Affine phi_comm, pi_comm;
    SumcheckProof permcheck;
    BatchEvaluations evals;
    SumcheckProof opencheck;
    Fr gprime_value;
    pcs::OpeningProof gprime_proof;

    /** Lookup argument (evals.lookup circuits only): multiplicity and
     * helper commitments plus the degree-3 LookupCheck transcript. */
    G1Affine m_comm, hf_comm, ht_comm;
    SumcheckProof lookupcheck;

    /** Approximate wire size in bytes (for Table-4-style reporting). */
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
