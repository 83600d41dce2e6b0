#include "pcs/mkzg.hpp"

#include <stdexcept>
#include <string>

#include "curve/batch_affine.hpp"

namespace zkspeed::pcs {

Srs
Srs::generate(size_t num_vars, std::mt19937_64 &rng, bool)
{
    Srs srs;
    srs.num_vars = num_vars;
    std::vector<Fr> tau(num_vars);
    for (auto &t : tau) t = Fr::random(rng);

    srs.g = curve::g1_generator().to_affine();
    srs.h = curve::g2_generator().to_affine();

    // Top level: the eq table over all of tau, scaled into G1 by one
    // lockstep fixed-base pass. eq_table puts tau_{mu-k} (the variable
    // level k-1 drops) at the least significant index bit, so summing
    // it out pairs adjacent entries:
    //   lagrange[k-1][b] = lagrange[k][2b] + lagrange[k][2b+1],
    // one batch of affine adds (one inversion) per level.
    srs.lagrange.resize(num_vars + 1);
    srs.lagrange[num_vars] =
        curve::fixed_base_mul(srs.g, Mle::eq_table(tau).evals());
    for (size_t k = num_vars; k > 0; --k) {
        srs.lagrange[k - 1] = curve::pairwise_sums(srs.lagrange[k]);
    }

    G2 h = curve::g2_generator();
    srs.tau_h.resize(num_vars);
    for (size_t i = 0; i < num_vars; ++i) {
        srs.tau_h[i] = h.mul(tau[i]).to_affine();
    }
    return srs;
}

namespace {

/** A polynomial larger than the SRS would index past its last level. */
void
check_fits(const char *where, const Srs &srs, size_t num_vars)
{
    if (num_vars > srs.num_vars) {
        throw std::invalid_argument(
            std::string(where) + ": polynomial has 2^" +
            std::to_string(num_vars) + " rows, SRS for 2^" +
            std::to_string(srs.num_vars));
    }
}

}  // namespace

G1Affine
commit(const Srs &srs, const Mle &poly)
{
    check_fits("pcs::commit", srs, poly.num_vars());
    return curve::msm(srs.lagrange[poly.num_vars()], poly.evals())
        .to_affine();
}

G1Affine
commit_sparse(const Srs &srs, const Mle &poly, curve::MsmStats *stats)
{
    check_fits("pcs::commit_sparse", srs, poly.num_vars());
    return curve::msm_sparse(srs.lagrange[poly.num_vars()], poly.evals(),
                             stats)
        .to_affine();
}

std::pair<OpeningProof, Fr>
open(const Srs &srs, const Mle &poly, std::span<const Fr> point)
{
    check_fits("pcs::open", srs, poly.num_vars());
    if (poly.num_vars() != point.size()) {
        throw std::invalid_argument(
            "pcs::open: polynomial has " + std::to_string(poly.num_vars()) +
            " variables, point has " + std::to_string(point.size()));
    }
    const size_t mu = poly.num_vars();
    OpeningProof proof;
    proof.quotients.reserve(mu);
    Mle cur = poly;
    for (size_t j = 0; j < mu; ++j) {
        // Quotient for variable j: q_j[b] = f[b,1] - f[b,0] over the
        // remaining mu-j-1 variables.
        const size_t half = cur.size() / 2;
        std::vector<Fr> q(half);
        for (size_t b = 0; b < half; ++b) {
            q[b] = cur[2 * b + 1] - cur[2 * b];
        }
        // Halving MSM: 2^{mu-1-j} points at level mu-1-j.
        proof.quotients.push_back(
            curve::msm(srs.lagrange[mu - 1 - j], q).to_affine());
        cur.fix_first_variable(point[j]);
    }
    return {std::move(proof), cur[0]};
}

bool
accumulate(const Srs &srs, std::span<const G1Affine> comm_bases,
           std::span<const Fr> comm_coeffs, std::span<const Fr> point,
           const Fr &value, const OpeningProof &proof,
           zkspeed::verifier::PairingAccumulator &acc)
{
    const size_t mu = point.size();
    if (proof.quotients.size() != mu) return false;
    if (srs.num_vars < mu) return false;
    if (comm_bases.size() != comm_coeffs.size()) return false;
    // Product form  e(C - v g, -h) * prod_k e(Pi_k, h^{tau_k} - z_k h) = 1
    // decomposed onto the fixed basis {h, h^{tau_k}}:
    //   slot h:        -sum_c a_c C_c + v g - sum_k z_k Pi_k
    //   slot h^{tau_k}: Pi_k
    for (size_t c = 0; c < comm_bases.size(); ++c) {
        acc.add_term(-comm_coeffs[c], comm_bases[c], srs.h);
    }
    acc.add_term(value, srs.g, srs.h);
    // Polynomials smaller than the SRS are committed against the suffix
    // taus, so the matching tau_h entries start at this offset.
    const size_t off = srs.num_vars - mu;
    for (size_t k = 0; k < mu; ++k) {
        acc.add_term(-point[k], proof.quotients[k], srs.h);
        acc.add_pair(proof.quotients[k], srs.tau_h[off + k]);
    }
    return true;
}

bool
verify(const Srs &srs, const G1Affine &comm, std::span<const Fr> point,
       const Fr &value, const OpeningProof &proof)
{
    // Accumulate then flush: same equation, but the h-slot terms merge
    // into one small G1 MSM and no G2 scalar muls are performed.
    zkspeed::verifier::PairingAccumulator acc;
    const Fr one = Fr::one();
    if (!accumulate(srs, std::span(&comm, 1), std::span(&one, 1), point,
                    value, proof, acc)) {
        return false;
    }
    return acc.check();
}

}  // namespace zkspeed::pcs
