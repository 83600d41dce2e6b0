#include "hyperplonk/permutation.hpp"
#include "hyperplonk/prover.hpp"
#include "hyperplonk/protocol_common.hpp"

namespace zkspeed::hyperplonk {

using namespace detail;

namespace {

/** Rebuild the padded public-input MLE the prover's w1 prefix must match. */
Mle
public_input_mle(std::span<const Fr> publics, size_t num_public)
{
    size_t k = pub_vars(num_public);
    Mle m(k);
    for (size_t i = 0; i < publics.size(); ++i) m[i] = publics[i];
    return m;
}

}  // namespace

bool
verify_deferred(const VerifyingKey &vk, std::span<const Fr> public_inputs,
                const Proof &proof, zkspeed::verifier::PairingAccumulator &acc)
{
    const size_t mu = vk.num_vars;
    if (public_inputs.size() != vk.num_public) return false;

    hash::Transcript tr("hyperplonk-v1");
    bind_preamble(tr, mu, vk.num_public, vk.custom_gates, vk.has_lookup,
                  vk.selector_comms, vk.sigma_comms, vk.lookup_comms,
                  public_inputs);

    // Step 1: witness commitments (+ lookup multiplicity commitment).
    for (const auto &c : proof.witness_comms) {
        append_g1(tr, "witness_comm", c);
    }
    if (proof.evals.lookup != vk.has_lookup) return false;
    if (vk.has_lookup) append_g1(tr, "lookup_m_comm", proof.m_comm);

    // Step 2: Gate Identity (ZeroCheck, degree 4, claimed sum 0).
    if (proof.evals.custom != vk.custom_gates) return false;
    std::vector<Fr> r_z = tr.challenge_frs("zerocheck_r", mu);
    size_t zc_degree = vk.custom_gates ? 7 : 4;
    auto zc = sumcheck_verify(Fr::zero(), mu, zc_degree, proof.zerocheck,
                              tr);
    if (!zc.ok) return false;
    std::span<const Fr> r_g = zc.challenges;

    // Step 3: Wiring Identity (PermCheck, degree 5, claimed sum 0).
    Fr beta = tr.challenge_fr("beta");
    Fr gamma = tr.challenge_fr("gamma");
    append_g1(tr, "phi_comm", proof.phi_comm);
    append_g1(tr, "pi_comm", proof.pi_comm);
    Fr alpha = tr.challenge_fr("alpha");
    std::vector<Fr> r_z2 = tr.challenge_frs("permcheck_r", mu);
    auto pc = sumcheck_verify(Fr::zero(), mu, 5, proof.permcheck, tr);
    if (!pc.ok) return false;
    std::span<const Fr> r_p = pc.challenges;

    // Step 3.5: Lookup Argument (LookupCheck, degree 3, claimed sum 0).
    Fr lk_lambda, lk_gamma, lk_alpha;
    std::vector<Fr> r_z3;
    SumcheckVerifierResult lc;
    std::span<const Fr> r_l;
    if (vk.has_lookup) {
        lk_lambda = tr.challenge_fr("lookup_lambda");
        lk_gamma = tr.challenge_fr("lookup_gamma");
        append_g1(tr, "lookup_hf_comm", proof.hf_comm);
        append_g1(tr, "lookup_ht_comm", proof.ht_comm);
        lk_alpha = tr.challenge_fr("lookup_alpha");
        r_z3 = tr.challenge_frs("lookupcheck_r", mu);
        lc = sumcheck_verify(Fr::zero(), mu, kLookupCheckDegree,
                             proof.lookupcheck, tr);
        if (!lc.ok) return false;
        r_l = lc.challenges;
    }

    // Step 4: batch evaluations enter the transcript.
    std::vector<Fr> z_pub = tr.challenge_frs("pub_r", pub_vars(vk.num_public));
    auto points = make_points(r_g, r_p, z_pub, mu, r_l);
    std::vector<Fr> claim_values = proof.evals.flatten();
    tr.append_frs("batch_evals", claim_values);

    // --- Check the ZeroCheck final value against the claimed evals. ---
    {
        Fr expect = gate_expression(proof.evals) *
                    Mle::eq_eval(r_g, r_z);
        if (!(expect == zc.final_value)) return false;
    }
    // --- Check the PermCheck final value (Eq. 4 at r_p). ---
    {
        const auto &e = proof.evals.at_perm;  // w1,w2,w3,s1,s2,s3,phi,pi
        Fr nd_n = Fr::one(), nd_d = Fr::one();
        for (size_t j = 0; j < 3; ++j) {
            nd_n *= e[j] + beta * identity_eval(j, mu, r_p) + gamma;
            nd_d *= e[j] + beta * e[3 + j] + gamma;
        }
        Fr x_last = r_p[mu - 1];
        Fr p1 = eval_p1_from_children(x_last, proof.evals.at_u0[0],
                                      proof.evals.at_u0[1]);
        Fr p2 = eval_p1_from_children(x_last, proof.evals.at_u1[0],
                                      proof.evals.at_u1[1]);
        Fr expr = e[7] - p1 * p2 + alpha * (e[6] * nd_d - nd_n);
        Fr expect = expr * Mle::eq_eval(r_p, r_z2);
        if (!(expect == pc.final_value)) return false;
    }
    // --- Check the LookupCheck final value against the claimed evals. ---
    if (vk.has_lookup) {
        Fr expect = lookup_expression(proof.evals.at_lookup, lk_lambda,
                                      lk_gamma, lk_alpha,
                                      Mle::eq_eval(r_l, r_z3));
        if (!(expect == lc.final_value)) return false;
    }
    // --- Product-tree root must be exactly 1 (grand product check). ---
    if (!proof.evals.pi_at_root.is_one()) return false;
    // --- Public inputs: w1 over the public prefix matches the claim. ---
    {
        Mle pub = public_input_mle(public_inputs, vk.num_public);
        if (!(pub.evaluate(z_pub) == proof.evals.w1_at_pub)) return false;
    }

    // Step 5: OpenCheck + PCS opening of g'.
    Fr a = tr.challenge_fr("batch_a");
    auto claims = claim_list(vk.custom_gates, vk.has_lookup);
    if (claim_values.size() != claims.size()) return false;
    std::vector<Fr> pw = powers(a, claims.size());
    Fr claimed_sum = Fr::zero();
    for (size_t c = 0; c < claims.size(); ++c) {
        claimed_sum += pw[c] * claim_values[c];
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
