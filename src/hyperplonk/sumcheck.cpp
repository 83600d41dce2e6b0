#include "hyperplonk/sumcheck.hpp"

#include <mutex>

#include "ff/batch_inverse.hpp"
#include "ff/parallel.hpp"

namespace zkspeed::hyperplonk {

Fr
interpolate_univariate(std::span<const Fr> evals, const Fr &x)
{
    const size_t d = evals.size() - 1;
    // Numerators: prod_{j != k} (x - j) via prefix/suffix products.
    std::vector<Fr> xm(d + 1), pre(d + 2), suf(d + 2);
    for (size_t j = 0; j <= d; ++j) xm[j] = x - Fr::from_uint(j);
    pre[0] = Fr::one();
    for (size_t j = 0; j <= d; ++j) pre[j + 1] = pre[j] * xm[j];
    suf[d + 1] = Fr::one();
    for (size_t j = d + 1; j-- > 0;) suf[j] = suf[j + 1] * xm[j];
    // Denominators: k! * (d-k)! * (-1)^{d-k}.
    std::vector<Fr> fact(d + 1);
    fact[0] = Fr::one();
    for (size_t j = 1; j <= d; ++j) fact[j] = fact[j - 1] * Fr::from_uint(j);
    std::vector<Fr> denom(d + 1);
    for (size_t k = 0; k <= d; ++k) {
        denom[k] = fact[k] * fact[d - k];
        if ((d - k) % 2 == 1) denom[k] = -denom[k];
    }
    ff::batch_inverse(denom);
    Fr acc = Fr::zero();
    for (size_t k = 0; k <= d; ++k) {
        acc += evals[k] * pre[k] * suf[k + 1] * denom[k];
    }
    return acc;
}

SumcheckProverResult
sumcheck_prove(const VirtualPolynomial &vp, Transcript &transcript,
               SumcheckCosts *costs)
{
    const size_t nv = vp.num_vars();
    const size_t d = std::max<size_t>(vp.max_degree(), 1);
    const size_t num_mles = vp.mles().size();

    // Working copies of the tables; the originals stay intact. The
    // scratch vectors are the fold destinations, swapped with the live
    // tables every round (allocated once, shrink-resized thereafter).
    std::vector<std::vector<Fr>> tables(num_mles);
    std::vector<std::vector<Fr>> scratch(num_mles);
    for (size_t m = 0; m < num_mles; ++m) tables[m] = vp.mles()[m]->evals();

    SumcheckProverResult out;
    out.proof.num_vars = nv;
    out.proof.degree = d;
    out.proof.round_evals.reserve(nv);
    out.challenges.reserve(nv);

    // Fr muls per hypercube pair in a round: every term multiplies its
    // coefficient by each factor at each of the d + 1 points.
    size_t pair_modmuls = 0;
    for (const auto &t : vp.terms()) pair_modmuls += t.factors.size();
    pair_modmuls *= d + 1;

    size_t len = size_t(1) << nv;
    for (size_t round = 0; round < nv; ++round) {
        const size_t pairs = len / 2;
        std::vector<Fr> acc(d + 1, Fr::zero());
        std::mutex acc_mutex;
        ff::ModmulScope round_scope;
        // Hypercube pairs are independent (the zkSpeed SumCheck PEs
        // exploit the same parallelism); field addition is exact, so
        // the merge order cannot change the result.
        ff::parallel_for(pairs, pair_modmuls, [&](size_t begin, size_t end) {
            std::vector<std::vector<Fr>> ext(num_mles,
                                             std::vector<Fr>(d + 1));
            std::vector<Fr> local(d + 1, Fr::zero());
            for (size_t i = begin; i < end; ++i) {
                // Extend every distinct MLE once (X = 2..d are mul-free
                // increments from the pair difference).
                for (size_t m = 0; m < num_mles; ++m) {
                    const Fr &e0 = tables[m][2 * i];
                    const Fr &e1 = tables[m][2 * i + 1];
                    Fr diff = e1 - e0;
                    ext[m][0] = e0;
                    for (size_t k = 1; k <= d; ++k) {
                        ext[m][k] = ext[m][k - 1] + diff;
                    }
                }
                // Per-term products at each evaluation point.
                for (const auto &t : vp.terms()) {
                    for (size_t k = 0; k <= d; ++k) {
                        Fr prod = t.coeff;
                        for (size_t f : t.factors) prod *= ext[f][k];
                        local[k] += prod;
                    }
                }
            }
            std::lock_guard<std::mutex> lock(acc_mutex);
            for (size_t k = 0; k <= d; ++k) acc[k] += local[k];
        });
        if (costs != nullptr) {
            costs->round_modmuls += round_scope.total_delta();
            costs->round_bytes_in += num_mles * len * 32;
        }
        transcript.append_frs("sumcheck_round", acc);
        Fr r = transcript.challenge_fr("sumcheck_r");
        out.challenges.push_back(r);
        out.proof.round_evals.push_back(std::move(acc));
        // MLE Update (Eq. 2), batched: all tables fold in ONE
        // parallel_for over the flattened (mle, pair) index space, so a
        // round costs a single pool dispatch instead of num_mles of
        // them and short tables still fill worker chunks. Each entry is
        // one Fr mul. Folds write into per-MLE ping-pong scratch (out of
        // place, so chunks never write entries another chunk still
        // reads), then swap.
        ff::ModmulScope update_scope;
        for (size_t m = 0; m < num_mles; ++m) scratch[m].resize(pairs);
        ff::parallel_for(num_mles * pairs, 1, [&](size_t begin, size_t end) {
            for (size_t idx = begin; idx < end; ++idx) {
                const size_t m = idx / pairs;
                const size_t i = idx % pairs;
                const auto &t = tables[m];
                scratch[m][i] = t[2 * i] + (t[2 * i + 1] - t[2 * i]) * r;
            }
        });
        for (size_t m = 0; m < num_mles; ++m) tables[m].swap(scratch[m]);
        if (costs != nullptr) {
            costs->update_modmuls += update_scope.total_delta();
            costs->update_bytes_in += num_mles * len * 32;
            costs->update_bytes_out += num_mles * pairs * 32;
        }
        len = pairs;
    }

    out.final_mle_values.reserve(num_mles);
    for (size_t m = 0; m < num_mles; ++m) {
        out.final_mle_values.push_back(tables[m][0]);
    }
    return out;
}

SumcheckVerifierResult
sumcheck_verify(const Fr &claimed_sum, size_t num_vars, size_t degree,
                const SumcheckProof &proof, Transcript &transcript)
{
    SumcheckVerifierResult out;
    degree = std::max<size_t>(degree, 1);
    if (proof.num_vars != num_vars || proof.degree != degree ||
        proof.round_evals.size() != num_vars) {
        return out;
    }
    Fr claim = claimed_sum;
    for (size_t round = 0; round < num_vars; ++round) {
        const auto &evals = proof.round_evals[round];
        if (evals.size() != degree + 1) return out;
        if (evals[0] + evals[1] != claim) return out;
        transcript.append_frs("sumcheck_round", evals);
        Fr r = transcript.challenge_fr("sumcheck_r");
        out.challenges.push_back(r);
        claim = interpolate_univariate(evals, r);
    }
    out.final_value = claim;
    out.ok = true;
    return out;
}

}  // namespace zkspeed::hyperplonk
