#include "hyperplonk/permutation.hpp"
#include "hyperplonk/prover.hpp"
#include "hyperplonk/protocol_common.hpp"

namespace zkspeed::hyperplonk {

using namespace detail;

bool
verify_deferred(const VerifyingKey &vk, std::span<const Fr> public_inputs,
                const Proof &proof, zkspeed::verifier::PairingAccumulator &acc)
{
    const size_t mu = vk.num_vars;
    // The child points u0/u1 drop r_p's last coordinate, so a key needs
    // at least one variable (the key decoder enforces the same bound).
    if (mu < 1 || public_inputs.size() != vk.num_public) return false;
    if (proof.custom_gates != vk.custom_gates ||
        proof.has_lookup != vk.has_lookup) {
        return false;
    }
    const auto claims = claim_list(vk.custom_gates, vk.has_lookup);
    if (proof.evals.size() != claims.size()) return false;
    const Claims claimed{claims, proof.evals};

    hash::Transcript tr("hyperplonk-v1");
    bind_preamble(tr, mu, vk.num_public, vk.custom_gates, vk.has_lookup,
                  vk.selector_comms, vk.sigma_comms, vk.lookup_comms,
                  public_inputs);

    // Step 1: witness commitments (+ lookup multiplicity commitment).
    for (const auto &c : proof.witness_comms) {
        append_g1(tr, "witness_comm", c);
    }
    if (vk.has_lookup) append_g1(tr, "lookup_m_comm", proof.m_comm);

    // Step 2: Gate Identity (ZeroCheck, claimed sum 0).
    std::vector<Fr> r_z = tr.challenge_frs("zerocheck_r", mu);
    const Identity gate = gate_identity(vk.custom_gates);
    auto zc = sumcheck_verify(Fr::zero(), mu, gate.degree(), proof.zerocheck,
                              tr);
    if (!zc.ok) return false;
    std::span<const Fr> r_g = zc.challenges;

    // Step 3: Wiring Identity (PermCheck, claimed sum 0).
    Fr beta = tr.challenge_fr("beta");
    Fr gamma = tr.challenge_fr("gamma");
    append_g1(tr, "phi_comm", proof.phi_comm);
    append_g1(tr, "pi_comm", proof.pi_comm);
    Fr alpha = tr.challenge_fr("alpha");
    std::vector<Fr> r_z2 = tr.challenge_frs("permcheck_r", mu);
    const Identity wiring = wiring_identity(alpha);
    auto pc = sumcheck_verify(Fr::zero(), mu, wiring.degree(),
                              proof.permcheck, tr);
    if (!pc.ok) return false;
    std::span<const Fr> r_p = pc.challenges;

    // Step 3.5: Lookup Argument (LookupCheck, claimed sum 0).
    Identity lookup;
    std::vector<Fr> r_z3;
    SumcheckVerifierResult lc;
    std::span<const Fr> r_l;
    if (vk.has_lookup) {
        Fr lambda = tr.challenge_fr("lookup_lambda");
        Fr lk_gamma = tr.challenge_fr("lookup_gamma");
        append_g1(tr, "lookup_hf_comm", proof.hf_comm);
        append_g1(tr, "lookup_ht_comm", proof.ht_comm);
        lookup = lookup_identity(lambda, lk_gamma,
                                 tr.challenge_fr("lookup_alpha"));
        r_z3 = tr.challenge_frs("lookupcheck_r", mu);
        lc = sumcheck_verify(Fr::zero(), mu, lookup.degree(),
                             proof.lookupcheck, tr);
        if (!lc.ok) return false;
        r_l = lc.challenges;
    }

    // Step 4: batch evaluations enter the transcript.
    std::vector<Fr> z_pub = tr.challenge_frs("pub_r", pub_vars(vk.num_public));
    auto points = make_points(r_g, r_p, z_pub, mu, r_l);
    tr.append_frs("batch_evals", proof.evals);

    // --- Each identity's final value against the claimed evals. ---
    if (evaluate(gate, claimed.at(kGatePoint), Mle::eq_eval(r_g, r_z)) !=
        zc.final_value) {
        return false;
    }
    {
        // Eq. 4 at r_p: N_j, D_j and p1, p2 are derived, not opened.
        SlotValues v = claimed.at(kPermPoint);
        for (size_t j = 0; j < 3; ++j) {
            v[kN1 + j] = v[kW1 + j] + beta * identity_eval(j, mu, r_p) + gamma;
            v[kD1 + j] = v[kW1 + j] + beta * v[kS1 + j] + gamma;
        }
        const Fr &x_last = r_p[mu - 1];
        const SlotValues u0 = claimed.at(kU0Point), u1 = claimed.at(kU1Point);
        v[kP1] = eval_p1_from_children(x_last, u0[kPhi], u0[kPi]);
        v[kP2] = eval_p1_from_children(x_last, u1[kPhi], u1[kPi]);
        if (evaluate(wiring, v, Mle::eq_eval(r_p, r_z2)) != pc.final_value) {
            return false;
        }
    }
    if (vk.has_lookup &&
        evaluate(lookup, claimed.at(kLookupPoint),
                 Mle::eq_eval(r_l, r_z3)) != lc.final_value) {
        return false;
    }
    // --- Product-tree root must be exactly 1 (grand product check). ---
    if (!claimed.at(kRootPoint)[kPi].is_one()) return false;
    // --- Public inputs: w1 over the public prefix matches the claim. ---
    {
        Mle pub(pub_vars(vk.num_public));
        std::copy(public_inputs.begin(), public_inputs.end(),
                  pub.evals().begin());
        if (!(pub.evaluate(z_pub) == claimed.at(kPubPoint)[kW1])) return false;
    }

    // Step 5: OpenCheck + PCS opening of g'.
    Fr a = tr.challenge_fr("batch_a");
    std::vector<Fr> pw = powers(a, claims.size());
    Fr claimed_sum = Fr::zero();
    for (size_t c = 0; c < claims.size(); ++c) {
        claimed_sum += pw[c] * proof.evals[c];
    }
    auto oc = sumcheck_verify(claimed_sum, mu, 2, proof.opencheck, tr);
    if (!oc.ok) return false;
    std::span<const Fr> r_o = oc.challenges;

    // f_open(r_o) == g'(r_o): both equal sum_j eq(r_o,z_j) y_j(r_o).
    if (!(oc.final_value == proof.gprime_value)) return false;

    // C_{g'} = sum_c coeff_c * C_c over the known commitments, with
    // coeff_c = sum over claims on poly c of a^claim * eq(r_o, z_point).
    std::vector<Fr> k_vals(points.size());
    for (size_t j = 0; j < points.size(); ++j) {
        k_vals[j] = Mle::eq_eval(r_o, points[j]);
    }
    std::array<Fr, kNumPolys> coeff{};
    for (size_t c = 0; c < claims.size(); ++c) {
        coeff[claims[c].poly] += pw[c] * k_vals[claims[c].point];
    }
    const std::array<G1Affine, kNumPolys> comms = {
        vk.selector_comms[0], vk.selector_comms[1], vk.selector_comms[2],
        vk.selector_comms[3], vk.selector_comms[4], vk.selector_comms[5],
        proof.witness_comms[0], proof.witness_comms[1],
        proof.witness_comms[2],
        vk.sigma_comms[0], vk.sigma_comms[1], vk.sigma_comms[2],
        proof.phi_comm, proof.pi_comm,
        vk.lookup_comms[0], vk.lookup_comms[1], vk.lookup_comms[2],
        vk.lookup_comms[3], vk.lookup_comms[4],
        proof.m_comm, proof.hf_comm, proof.ht_comm};

    tr.append_fr("gprime_value", proof.gprime_value);
    for (const auto &q : proof.gprime_proof.quotients) {
        append_g1(tr, "gprime_quotient", q);
    }

    // The combination goes to the accumulator unscaled: its terms join
    // the flush's h-slot MSM instead of a per-proof MSM here.
    return pcs::accumulate(*vk.srs, comms, coeff, r_o, proof.gprime_value,
                           proof.gprime_proof, acc);
}

bool
verify(const VerifyingKey &vk, std::span<const Fr> public_inputs,
       const Proof &proof, PcsCheckMode)
{
    zkspeed::verifier::PairingAccumulator acc;
    return verify_deferred(vk, public_inputs, proof, acc) && acc.check();
}

}  // namespace zkspeed::hyperplonk
