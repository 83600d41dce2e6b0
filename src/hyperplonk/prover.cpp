#include "hyperplonk/prover.hpp"

#include <optional>
#include <stdexcept>

#include "hyperplonk/permutation.hpp"
#include "hyperplonk/profile.hpp"
#include "hyperplonk/protocol_common.hpp"
#include "lookup/logup.hpp"

namespace zkspeed::hyperplonk {

using namespace detail;

std::pair<ProvingKey, VerifyingKey>
keygen(CircuitIndex index, std::shared_ptr<const pcs::Srs> srs)
{
    if (srs->num_vars != index.num_vars) {
        throw std::invalid_argument(
            "keygen: SRS for 2^" + std::to_string(srs->num_vars) +
            " rows, circuit has 2^" + std::to_string(index.num_vars));
    }
    ProvingKey pk;
    VerifyingKey vk;
    vk.num_vars = index.num_vars;
    vk.num_public = index.num_public;
    vk.custom_gates = index.custom_gates;
    vk.has_lookup = index.has_lookup;
    const Mle *selectors[6] = {&index.q_l, &index.q_r, &index.q_m,
                               &index.q_o, &index.q_c, &index.q_h};
    for (size_t i = 0; i < 6; ++i) {
        pk.selector_comms[i] = pcs::commit_sparse(*srs, *selectors[i]);
    }
    for (size_t j = 0; j < 3; ++j) {
        pk.sigma_comms[j] = pcs::commit(*srs, index.sigma[j]);
    }
    if (index.has_lookup) {
        pk.lookup_comms[0] = pcs::commit_sparse(*srs, index.q_lookup);
        pk.lookup_comms[1] = pcs::commit_sparse(*srs, index.table_tag);
        for (size_t k = 0; k < 3; ++k) {
            pk.lookup_comms[2 + k] = pcs::commit(*srs, index.table[k]);
        }
    }
    vk.selector_comms = pk.selector_comms;
    vk.sigma_comms = pk.sigma_comms;
    vk.lookup_comms = pk.lookup_comms;
    vk.srs = srs;
    pk.srs = std::move(srs);
    pk.index = std::move(index);
    return {std::move(pk), std::move(vk)};
}

namespace {

/** One MLE Combine input: out += coeff * in. */
struct ScaledMle {
    Mle *out;
    const Mle *in;
    Fr coeff;
};

/** Apply every `out += coeff * in` in one parallel pass over the n
 * hypercube entries (one Fr mul per term per entry). Terms that share an
 * output accumulate in list order, as a serial add_scaled sequence
 * would. */
void
linear_combine(std::span<const ScaledMle> terms, size_t n)
{
    ff::parallel_for(n, terms.size(), [&](size_t begin, size_t end) {
        for (const auto &t : terms) {
            for (size_t i = begin; i < end; ++i) {
                (*t.out)[i] += (*t.in)[i] * t.coeff;
            }
        }
    });
}

/** Build MLE: eq(x, r) as one prover span. */
Mle
profiled_eq_table(std::span<const Fr> r)
{
    ProfileRegion reg("Build MLE");
    Mle eq = Mle::eq_table(r);
    reg.add_bytes_out(eq.size() * kFrBytes);
    return eq;
}

/** Sumcheck as one prover span. The extra args split it exactly into
 * its Table-1 rows, "<name>" (the rounds, which write nothing) and
 * "All MLE Updates"; the span totals also count the transcript's
 * challenge derivations, which belong to neither. */
SumcheckProverResult
profiled_sumcheck(const std::string &name, const VirtualPolynomial &vp,
                  hash::Transcript &tr)
{
    ProfileRegion reg(name);
    SumcheckCosts costs;
    auto res = sumcheck_prove(vp, tr, &costs);
    reg.add_bytes_in(costs.round_bytes_in + costs.update_bytes_in);
    reg.add_bytes_out(costs.update_bytes_out);
    reg.arg("round_modmuls", double(costs.round_modmuls));
    reg.arg("round_bytes_in", double(costs.round_bytes_in));
    reg.arg("update_modmuls", double(costs.update_modmuls));
    reg.arg("update_bytes_in", double(costs.update_bytes_in));
    return res;
}

}  // namespace

Proof
prove(const ProvingKey &pk, const Witness &witness)
{
    const CircuitIndex &index = pk.index;
    const pcs::Srs &srs = *pk.srs;
    const size_t mu = index.num_vars;
    const size_t n = index.num_gates();
    for (const Mle &col : witness.w) {
        if (col.num_vars() != mu) {
            throw std::invalid_argument(
                "prove: witness column has 2^" +
                std::to_string(col.num_vars()) + " rows, key has 2^" +
                std::to_string(mu));
        }
    }

    Proof proof;
    hash::Transcript tr("hyperplonk-v1");
    std::vector<Fr> publics = witness.public_inputs(index);
    bind_preamble(tr, mu, index.num_public, index.custom_gates,
                  index.has_lookup, pk.selector_comms, pk.sigma_comms,
                  pk.lookup_comms, publics);

    // ------------------------------------------------------------------
    // Step 1: Witness Commits (sparse MSMs; paper Section 3.3.1).
    // ------------------------------------------------------------------
    {
        ProfileRegion reg("Witness MSMs");
        for (size_t j = 0; j < 3; ++j) {
            curve::MsmStats st;
            proof.witness_comms[j] =
                pcs::commit_sparse(srs, witness.w[j], &st);
            // Points for 1-valued and dense scalars are fetched; dense
            // scalars travel too (Section 4.2.1: two coordinates/point).
            reg.add_bytes_in((st.ones + st.dense) * kG1Bytes +
                             st.dense * kFrBytes);
        }
    }
    for (const auto &c : proof.witness_comms) {
        append_g1(tr, "witness_comm", c);
    }
    // Every oracle the identities and the batch opening read, by slot.
    SlotMles slots = index_slots(index, witness);
    // Lookup multiplicities depend only on (witness, table), so m is
    // committed alongside the witness — before any challenge is drawn.
    const std::array<const Mle *, 3> wire_ptrs = {
        &witness.w[0], &witness.w[1], &witness.w[2]};
    std::optional<Mle> m_mle;
    if (index.has_lookup) {
        ProfileRegion reg("Witness MSMs");
        m_mle = lookup::multiplicities(index.q_lookup, index.table_tag,
                                       index.table, index.table_rows,
                                       wire_ptrs);
        slots[kM] = &*m_mle;
        curve::MsmStats st;
        proof.m_comm = pcs::commit_sparse(srs, *m_mle, &st);
        reg.add_bytes_in((st.ones + st.dense) * kG1Bytes +
                         st.dense * kFrBytes);
        append_g1(tr, "lookup_m_comm", proof.m_comm);
    }

    // ------------------------------------------------------------------
    // Step 2: Gate Identity — ZeroCheck on Eq. 3.
    // ------------------------------------------------------------------
    std::vector<Fr> r_z = tr.challenge_frs("zerocheck_r", mu);
    const Mle fz1 = profiled_eq_table(r_z);
    auto zres = profiled_sumcheck(
        "ZeroCheck Rounds",
        bind_mles(gate_identity(index.custom_gates), slots, fz1), tr);
    proof.zerocheck = std::move(zres.proof);
    std::span<const Fr> r_g = zres.challenges;

    // ------------------------------------------------------------------
    // Step 3: Wiring Identity — Construct N&D, FracMLE, ProdMLE, MSMs,
    // then the PermCheck ZeroCheck on Eq. 4.
    // ------------------------------------------------------------------
    Fr beta = tr.challenge_fr("beta");
    Fr gamma = tr.challenge_fr("gamma");
    PermutationOracles oracles =
        build_permutation_oracles(index, witness, beta, gamma);
    {
        ProfileRegion reg("Wire Identity MSMs");
        proof.phi_comm = pcs::commit(srs, *oracles.phi);
        proof.pi_comm = pcs::commit(srs, *oracles.pi);
        reg.add_bytes_in(2 * n * (kG1Bytes + kFrBytes));
    }
    slots[kPhi] = oracles.phi.get();
    slots[kPi] = oracles.pi.get();
    slots[kP1] = oracles.p1.get();
    slots[kP2] = oracles.p2.get();
    for (size_t j = 0; j < 3; ++j) {
        slots[kN1 + j] = oracles.n_parts[j].get();
        slots[kD1 + j] = oracles.d_parts[j].get();
    }
    append_g1(tr, "phi_comm", proof.phi_comm);
    append_g1(tr, "pi_comm", proof.pi_comm);
    Fr alpha = tr.challenge_fr("alpha");
    std::vector<Fr> r_z2 = tr.challenge_frs("permcheck_r", mu);
    const Mle fz2 = profiled_eq_table(r_z2);
    auto pres = profiled_sumcheck(
        "PermCheck Rounds", bind_mles(wiring_identity(alpha), slots, fz2),
        tr);
    proof.permcheck = std::move(pres.proof);
    std::span<const Fr> r_p = pres.challenges;

    // ------------------------------------------------------------------
    // Step 3.5: Lookup Argument (lookup circuits only) — LogUp helper
    // construction (two batched inversions, the FracMLE kernel again)
    // and the combined degree-3 LookupCheck (src/lookup/logup.hpp).
    // ------------------------------------------------------------------
    lookup::LookupOracles lk;
    std::span<const Fr> r_l;
    SumcheckProverResult lres;
    if (index.has_lookup) {
        Fr lambda = tr.challenge_fr("lookup_lambda");
        Fr gamma_l = tr.challenge_fr("lookup_gamma");
        {
            ProfileRegion reg("Fraction MLE");
            lk = lookup::build_helper_oracles(index.q_lookup,
                                              index.table_tag, index.table,
                                              wire_ptrs, *m_mle, lambda,
                                              gamma_l);
            slots[kHf] = lk.h_f.get();
            slots[kHt] = lk.h_t.get();
            reg.add_bytes_in(9 * n * kFrBytes);  // wires, bank, q, m
            reg.add_bytes_out(2 * n * kFrBytes);
        }
        {
            ProfileRegion reg("Wire Identity MSMs");
            proof.hf_comm = pcs::commit(srs, *lk.h_f);
            proof.ht_comm = pcs::commit(srs, *lk.h_t);
            reg.add_bytes_in(2 * n * (kG1Bytes + kFrBytes));
        }
        append_g1(tr, "lookup_hf_comm", proof.hf_comm);
        append_g1(tr, "lookup_ht_comm", proof.ht_comm);
        Fr alpha_l = tr.challenge_fr("lookup_alpha");
        std::vector<Fr> r_z3 = tr.challenge_frs("lookupcheck_r", mu);
        const Mle fz3 = profiled_eq_table(r_z3);
        lres = profiled_sumcheck(
            "LookupCheck Rounds",
            bind_mles(lookup_identity(lambda, gamma_l, alpha_l), slots, fz3),
            tr);
        proof.lookupcheck = std::move(lres.proof);
        r_l = lres.challenges;
    }

    // ------------------------------------------------------------------
    // Step 4: Batch Evaluations — 22 evaluations at 6 points (+11 at
    // the LookupCheck point for lookup circuits).
    // ------------------------------------------------------------------
    std::vector<Fr> z_pub =
        tr.challenge_frs("pub_r", pub_vars(index.num_public));
    auto points = make_points(r_g, r_p, z_pub, mu, r_l);
    auto claims = claim_list(index.custom_gates, index.has_lookup);
    proof.custom_gates = index.custom_gates;
    proof.has_lookup = index.has_lookup;
    proof.evals.resize(claims.size());
    {
        ProfileRegion reg("Batch Evaluations");
        // Each claim is an independent MLE Evaluate (~n Fr muls) writing
        // its own slot. The root point is boolean, so its one claim (pi)
        // is a table lookup instead.
        ff::parallel_for(claims.size(), n, [&](size_t begin, size_t end) {
            for (size_t c = begin; c < end; ++c) {
                const ClaimEntry &cl = claims[c];
                proof.evals[c] =
                    cl.point == kRootPoint
                        ? (*slots[cl.poly])[n - 2]
                        : slots[cl.poly]->evaluate(points[cl.point]);
            }
        });
        reg.add_bytes_in((claims.size() - 1) * n * kFrBytes);
    }
    tr.append_frs("batch_evals", proof.evals);

    // ------------------------------------------------------------------
    // Step 5: Polynomial Opening — MLE Combine, Build MLE (k_j),
    // OpenCheck (Eq. 5), g' and the halving MSM opening.
    // ------------------------------------------------------------------
    Fr a = tr.challenge_fr("batch_a");
    std::vector<Fr> pw = powers(a, claims.size());

    // k_j = eq(X, z_j): six independent Build MLEs (~n Fr muls each).
    std::vector<Mle> k_mles(points.size());
    {
        ProfileRegion reg("Build MLE");
        ff::parallel_for(points.size(), n, [&](size_t begin, size_t end) {
            for (size_t j = begin; j < end; ++j) {
                k_mles[j] = Mle::eq_table(points[j]);
            }
        });
        reg.add_bytes_out(points.size() * n * kFrBytes);
    }
    // y_j = sum of a^c-weighted polynomials claimed at point j.
    std::vector<Mle> y_mles(points.size(), Mle(mu));
    {
        ProfileRegion reg("Linear Combine");
        std::vector<ScaledMle> terms;
        for (size_t c = 0; c < claims.size(); ++c) {
            terms.push_back({&y_mles[claims[c].point],
                             slots[claims[c].poly], pw[c]});
        }
        linear_combine(terms, n);
        reg.add_bytes_in(claims.size() * n * kFrBytes);
        reg.add_bytes_out(points.size() * n * kFrBytes);
    }
    VirtualPolynomial f_open(mu);
    for (size_t j = 0; j < points.size(); ++j) {
        f_open.add_product(Fr::one(), {y_mles[j], k_mles[j]});
    }
    auto ores = profiled_sumcheck("OpenCheck Rounds", f_open, tr);
    proof.opencheck = std::move(ores.proof);
    std::span<const Fr> r_o = ores.challenges;

    // g' = sum_j eq(r_o, z_j) * y_j, then open at r_o.
    Mle gprime(mu);
    {
        ProfileRegion reg("Linear Combine");
        std::vector<ScaledMle> terms;
        for (size_t j = 0; j < points.size(); ++j) {
            terms.push_back(
                {&gprime, &y_mles[j], Mle::eq_eval(r_o, points[j])});
        }
        linear_combine(terms, n);
        reg.add_bytes_in(points.size() * n * kFrBytes);
        reg.add_bytes_out(n * kFrBytes);
    }
    {
        ProfileRegion reg("Poly Open MSMs");
        auto [open_proof, value] = pcs::open(srs, gprime, r_o);
        proof.gprime_proof = std::move(open_proof);
        proof.gprime_value = value;
        reg.add_bytes_in(n * (kG1Bytes + kFrBytes));
    }
    tr.append_fr("gprime_value", proof.gprime_value);
    for (const auto &q : proof.gprime_proof.quotients) {
        append_g1(tr, "gprime_quotient", q);
    }
    return proof;
}

}  // namespace zkspeed::hyperplonk
