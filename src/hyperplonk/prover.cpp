#include "hyperplonk/prover.hpp"

#include <stdexcept>

#include "hyperplonk/permutation.hpp"
#include "hyperplonk/profile.hpp"
#include "hyperplonk/protocol_common.hpp"
#include "lookup/logup.hpp"

namespace zkspeed::hyperplonk {

using namespace detail;

std::vector<Fr>
BatchEvaluations::flatten() const
{
    std::vector<Fr> out;
    out.reserve(count());
    out.insert(out.end(), at_gate.begin(), at_gate.end());
    out.insert(out.end(), at_perm.begin(), at_perm.end());
    out.insert(out.end(), at_u0.begin(), at_u0.end());
    out.insert(out.end(), at_u1.begin(), at_u1.end());
    out.push_back(pi_at_root);
    out.push_back(w1_at_pub);
    // The custom-gate claim slots in right after the base gate block.
    if (custom) out.insert(out.begin() + 8, qh_at_gate);
    // The LookupCheck-point claims trail the base list.
    if (lookup) out.insert(out.end(), at_lookup.begin(), at_lookup.end());
    return out;
}

size_t
Proof::size_bytes() const
{
    constexpr size_t kG1Size = 2 * ff::Fq::kByteSize + 1;
    constexpr size_t kFrSize = ff::Fr::kByteSize;
    size_t n = 0;
    n += witness_comms.size() * kG1Size;
    n += 2 * kG1Size;  // phi, pi
    for (const auto *sc : {&zerocheck, &permcheck, &opencheck}) {
        for (const auto &r : sc->round_evals) n += r.size() * kFrSize;
    }
    n += evals.count() * kFrSize;
    n += kFrSize;  // gprime_value
    n += gprime_proof.quotients.size() * kG1Size;
    if (evals.lookup) {
        n += 3 * kG1Size;  // m, h_f, h_t
        for (const auto &r : lookupcheck.round_evals) {
            n += r.size() * kFrSize;
        }
    }
    return n;
}

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

/** Non-owning shared_ptr alias for MLEs whose lifetime outlives prove(). */
std::shared_ptr<Mle>
alias(const Mle &m)
{
    return std::shared_ptr<Mle>(std::shared_ptr<Mle>(),
                                const_cast<Mle *>(&m));
}

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

/** Record a sumcheck's two kernels under their Table-1 row names. */
void
record_sumcheck(const std::string &round_name, const SumcheckCosts &costs,
                double seconds)
{
    uint64_t total = costs.round_modmuls + costs.update_modmuls;
    double round_share =
        total == 0 ? 0.5 : double(costs.round_modmuls) / double(total);
    record_kernel(round_name, costs.round_modmuls, costs.round_bytes_in, 0,
                  seconds * round_share);
    record_kernel("All MLE Updates", costs.update_modmuls,
                  costs.update_bytes_in, costs.update_bytes_out,
                  seconds * (1.0 - round_share));
}

/** Timed sumcheck wrapper feeding the kernel series (and a trace span —
 * the per-round/update metric split keeps its Table-1 row names while
 * the span shows the whole sumcheck as one prover phase). */
SumcheckProverResult
profiled_sumcheck(const std::string &name, const VirtualPolynomial &vp,
                  hash::Transcript &tr)
{
    obs::Span span(name, "prover");
    ff::ModmulScope scope;
    SumcheckCosts costs;
    auto t0 = std::chrono::steady_clock::now();
    auto res = sumcheck_prove(vp, tr, &costs);
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    record_sumcheck(name, costs, secs);
    // Mirror ProfileRegion's span attributes so obs/attrib joins
    // sumcheck spans the same way (rounds + MLE updates together,
    // matching the modeled sumcheck kernel's scope).
    span.arg("modmul_fr", double(scope.fr_delta()));
    span.arg("modmul_fq", double(scope.fq_delta()));
    span.arg("inv_fq", double(scope.inv_fq_delta()));
    span.arg("bytes_in", double(costs.round_bytes_in +
                                costs.update_bytes_in));
    span.arg("bytes_out", double(costs.update_bytes_out));
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
    // Lookup multiplicities depend only on (witness, table), so m is
    // committed alongside the witness — before any challenge is drawn.
    const std::array<const Mle *, 3> wire_ptrs = {
        &witness.w[0], &witness.w[1], &witness.w[2]};
    std::shared_ptr<Mle> m_mle;
    if (index.has_lookup) {
        ProfileRegion reg("Witness MSMs");
        m_mle = std::make_shared<Mle>(lookup::multiplicities(
            index.q_lookup, index.table_tag, index.table,
            index.table_rows, wire_ptrs));
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
    std::shared_ptr<Mle> fz1;
    {
        ProfileRegion reg("Build MLE");
        fz1 = std::make_shared<Mle>(Mle::eq_table(r_z));
        reg.add_bytes_out(n * kFrBytes);
    }
    VirtualPolynomial f_zero(mu);
    {
        size_t ql = f_zero.add_mle(alias(index.q_l));
        size_t qr = f_zero.add_mle(alias(index.q_r));
        size_t qm = f_zero.add_mle(alias(index.q_m));
        size_t qo = f_zero.add_mle(alias(index.q_o));
        size_t qc = f_zero.add_mle(alias(index.q_c));
        size_t w1 = f_zero.add_mle(alias(witness.w[0]));
        size_t w2 = f_zero.add_mle(alias(witness.w[1]));
        size_t w3 = f_zero.add_mle(alias(witness.w[2]));
        size_t eq = f_zero.add_mle(fz1);
        f_zero.add_term(Fr::one(), {ql, w1, eq});
        f_zero.add_term(Fr::one(), {qr, w2, eq});
        f_zero.add_term(Fr::one(), {qm, w1, w2, eq});
        f_zero.add_term(-Fr::one(), {qo, w3, eq});
        f_zero.add_term(Fr::one(), {qc, eq});
        if (index.custom_gates) {
            // Jellyfish-style high-degree gate: q_H w1^5 (degree 7).
            size_t qh = f_zero.add_mle(alias(index.q_h));
            f_zero.add_term(Fr::one(), {qh, w1, w1, w1, w1, w1, eq});
        }
    }
    auto zres = profiled_sumcheck("ZeroCheck Rounds", f_zero, tr);
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
    append_g1(tr, "phi_comm", proof.phi_comm);
    append_g1(tr, "pi_comm", proof.pi_comm);
    Fr alpha = tr.challenge_fr("alpha");
    std::vector<Fr> r_z2 = tr.challenge_frs("permcheck_r", mu);
    std::shared_ptr<Mle> fz2;
    {
        ProfileRegion reg("Build MLE");
        fz2 = std::make_shared<Mle>(Mle::eq_table(r_z2));
        reg.add_bytes_out(n * kFrBytes);
    }
    VirtualPolynomial f_perm(mu);
    {
        size_t pi = f_perm.add_mle(oracles.pi);
        size_t p1 = f_perm.add_mle(oracles.p1);
        size_t p2 = f_perm.add_mle(oracles.p2);
        size_t phi = f_perm.add_mle(oracles.phi);
        size_t d1 = f_perm.add_mle(oracles.d_parts[0]);
        size_t d2 = f_perm.add_mle(oracles.d_parts[1]);
        size_t d3 = f_perm.add_mle(oracles.d_parts[2]);
        size_t n1 = f_perm.add_mle(oracles.n_parts[0]);
        size_t n2 = f_perm.add_mle(oracles.n_parts[1]);
        size_t n3 = f_perm.add_mle(oracles.n_parts[2]);
        size_t eq = f_perm.add_mle(fz2);
        f_perm.add_term(Fr::one(), {pi, eq});
        f_perm.add_term(-Fr::one(), {p1, p2, eq});
        f_perm.add_term(alpha, {phi, d1, d2, d3, eq});
        f_perm.add_term(-alpha, {n1, n2, n3, eq});
    }
    auto pres = profiled_sumcheck("PermCheck Rounds", f_perm, tr);
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
        std::shared_ptr<Mle> fz3;
        {
            ProfileRegion reg("Build MLE");
            fz3 = std::make_shared<Mle>(Mle::eq_table(r_z3));
            reg.add_bytes_out(n * kFrBytes);
        }
        VirtualPolynomial f_lookup(mu);
        {
            size_t hf = f_lookup.add_mle(lk.h_f);
            size_t ht = f_lookup.add_mle(lk.h_t);
            size_t w1 = f_lookup.add_mle(alias(witness.w[0]));
            size_t w2 = f_lookup.add_mle(alias(witness.w[1]));
            size_t w3 = f_lookup.add_mle(alias(witness.w[2]));
            size_t ql = f_lookup.add_mle(alias(index.q_lookup));
            size_t tg = f_lookup.add_mle(alias(index.table_tag));
            size_t t1 = f_lookup.add_mle(alias(index.table[0]));
            size_t t2 = f_lookup.add_mle(alias(index.table[1]));
            size_t t3 = f_lookup.add_mle(alias(index.table[2]));
            size_t m = f_lookup.add_mle(m_mle);
            size_t eq = f_lookup.add_mle(fz3);
            Fr a2 = alpha_l * alpha_l;
            Fr g2 = gamma_l * gamma_l;
            Fr g3 = g2 * gamma_l;
            // (L1): sum h_f - h_t == 0.
            f_lookup.add_term(Fr::one(), {hf});
            f_lookup.add_term(-Fr::one(), {ht});
            // (L2): h_f (lambda + ql + g w1 + g^2 w2 + g^3 w3) - ql == 0
            // (the gate-side tag is the q_lookup value itself).
            f_lookup.add_term(alpha_l * lambda, {hf, eq});
            f_lookup.add_term(alpha_l, {hf, ql, eq});
            f_lookup.add_term(alpha_l * gamma_l, {hf, w1, eq});
            f_lookup.add_term(alpha_l * g2, {hf, w2, eq});
            f_lookup.add_term(alpha_l * g3, {hf, w3, eq});
            f_lookup.add_term(-alpha_l, {ql, eq});
            // (L3): h_t (lambda + tag + g t1 + g^2 t2 + g^3 t3) - m == 0.
            f_lookup.add_term(a2 * lambda, {ht, eq});
            f_lookup.add_term(a2, {ht, tg, eq});
            f_lookup.add_term(a2 * gamma_l, {ht, t1, eq});
            f_lookup.add_term(a2 * g2, {ht, t2, eq});
            f_lookup.add_term(a2 * g3, {ht, t3, eq});
            f_lookup.add_term(-a2, {m, eq});
        }
        lres = profiled_sumcheck("LookupCheck Rounds", f_lookup, tr);
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
    const Mle *polys[kNumPolys] = {
        &index.q_l, &index.q_r, &index.q_m, &index.q_o, &index.q_c,
        &index.q_h,
        &witness.w[0], &witness.w[1], &witness.w[2],
        &index.sigma[0], &index.sigma[1], &index.sigma[2],
        oracles.phi.get(), oracles.pi.get(),
        &index.q_lookup, &index.table_tag, &index.table[0],
        &index.table[1], &index.table[2],
        m_mle.get(), lk.h_f.get(), lk.h_t.get()};
    {
        ProfileRegion reg("Batch Evaluations");
        // Each claim is an independent MLE Evaluate (~n Fr muls): list
        // them, then run them in parallel, each writing its own slot.
        struct Eval {
            size_t poly, point;
            Fr *out;
        };
        std::vector<Eval> evs;
        auto ev = [&](size_t poly, size_t point, Fr &out) {
            evs.push_back({poly, point, &out});
        };
        auto &e = proof.evals;
        for (size_t i = 0; i < 5; ++i) ev(i, 0, e.at_gate[i]);
        for (size_t i = 0; i < 3; ++i) {
            ev(kW1 + i, 0, e.at_gate[5 + i]);
            ev(kW1 + i, 1, e.at_perm[i]);
            ev(kS1 + i, 1, e.at_perm[3 + i]);
        }
        ev(kPhi, 1, e.at_perm[6]);
        ev(kPi, 1, e.at_perm[7]);
        ev(kPhi, 2, e.at_u0[0]);
        ev(kPi, 2, e.at_u0[1]);
        ev(kPhi, 3, e.at_u1[0]);
        ev(kPi, 3, e.at_u1[1]);
        // The root point is boolean: the evaluation is a table lookup.
        e.pi_at_root = (*oracles.pi)[n - 2];
        ev(kW1, 5, e.w1_at_pub);
        e.custom = index.custom_gates;
        if (index.custom_gates) ev(kQh, 0, e.qh_at_gate);
        e.lookup = index.has_lookup;
        if (index.has_lookup) {
            const size_t lk_polys[BatchEvaluations::kLookupCount] = {
                kW1, kW2, kW3, kQLookup, kTTag,
                kT1, kT2, kT3, kM, kHf, kHt};
            for (size_t i = 0; i < BatchEvaluations::kLookupCount; ++i) {
                ev(lk_polys[i], 6, e.at_lookup[i]);
            }
        }
        ff::parallel_for(evs.size(), n, [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
                const Eval &v = evs[i];
                *v.out = polys[v.poly]->evaluate(points[v.point]);
            }
        });
        reg.add_bytes_in(evs.size() * n * kFrBytes);
    }
    tr.append_frs("batch_evals", proof.evals.flatten());

    // ------------------------------------------------------------------
    // Step 5: Polynomial Opening — MLE Combine, Build MLE (k_j),
    // OpenCheck (Eq. 5), g' and the halving MSM opening.
    // ------------------------------------------------------------------
    Fr a = tr.challenge_fr("batch_a");
    auto claims = claim_list(index.custom_gates, index.has_lookup);
    std::vector<Fr> pw = powers(a, claims.size());

    // k_j = eq(X, z_j): six independent Build MLEs (~n Fr muls each).
    std::vector<std::shared_ptr<Mle>> k_mles(points.size());
    {
        ProfileRegion reg("Build MLE");
        ff::parallel_for(points.size(), n, [&](size_t begin, size_t end) {
            for (size_t j = begin; j < end; ++j) {
                k_mles[j] = std::make_shared<Mle>(Mle::eq_table(points[j]));
            }
        });
        reg.add_bytes_out(points.size() * n * kFrBytes);
    }
    // y_j = sum of a^c-weighted polynomials claimed at point j.
    std::vector<std::shared_ptr<Mle>> y_mles(points.size());
    {
        ProfileRegion reg("Linear Combine");
        for (size_t j = 0; j < points.size(); ++j) {
            y_mles[j] = std::make_shared<Mle>(mu);
        }
        std::vector<ScaledMle> terms;
        for (size_t c = 0; c < claims.size(); ++c) {
            terms.push_back({y_mles[claims[c].point].get(),
                             polys[claims[c].poly], pw[c]});
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
                {&gprime, y_mles[j].get(), Mle::eq_eval(r_o, points[j])});
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
