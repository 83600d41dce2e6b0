#include "hyperplonk/permutation.hpp"

#include "ff/batch_inverse.hpp"
#include "hyperplonk/profile.hpp"

namespace zkspeed::hyperplonk {

namespace {

/** k * x by double-and-add: additions only, so re-seating a chunk's
 * running identity term costs no modmuls. */
Fr
small_multiple(const Fr &x, size_t k)
{
    Fr acc = Fr::zero();
    for (Fr pow = x; k != 0; k >>= 1, pow += pow) {
        if (k & 1) acc += pow;
    }
    return acc;
}

}  // namespace

PermutationOracles
build_permutation_oracles(const CircuitIndex &index, const Witness &witness,
                          const Fr &beta, const Fr &gamma)
{
    const size_t mu = index.num_vars;
    const size_t n = index.num_gates();
    PermutationOracles out;

    // Construct N&D: elementwise affine combinations of witness, identity
    // and permutation MLEs. The id_j term folds into an incrementing
    // constant, beta * (j*n + i) + gamma: one multiply per table seeds
    // it, and each parallel range re-seats it by additions only, so
    // both values and modmul counts are chunk-independent.
    {
        ProfileRegion reg("Construct N & D");
        for (size_t j = 0; j < 3; ++j) {
            out.n_parts[j] = std::make_shared<Mle>(mu);
            out.d_parts[j] = std::make_shared<Mle>(mu);
            const Fr id_base = beta * Fr::from_uint(j * n) + gamma;
            ff::parallel_for(n, 1, [&](size_t begin, size_t end) {
                Fr id_term = id_base + small_multiple(beta, begin);
                for (size_t i = begin; i < end; ++i) {
                    (*out.n_parts[j])[i] = witness.w[j][i] + id_term;
                    (*out.d_parts[j])[i] =
                        witness.w[j][i] + beta * index.sigma[j][i] + gamma;
                    id_term += beta;
                }
            });
        }
        reg.add_bytes_in(2 * 3 * n * kFrBytes);   // w_j and sigma_j reads
        reg.add_bytes_out(6 * n * kFrBytes);      // N1..3, D1..3 writes
    }

    // Fraction MLE: phi = (N1 N2 N3) * (D1 D2 D3)^{-1} with batched
    // inversion (software reference of the FracMLE unit, Section 4.4).
    {
        ProfileRegion reg("Fraction MLE");
        out.phi = std::make_shared<Mle>(mu);
        std::vector<Fr> denom(n);
        for (size_t i = 0; i < n; ++i) {
            denom[i] = (*out.d_parts[0])[i] * (*out.d_parts[1])[i] *
                       (*out.d_parts[2])[i];
        }
        ff::batch_inverse(denom);
        for (size_t i = 0; i < n; ++i) {
            (*out.phi)[i] = (*out.n_parts[0])[i] * (*out.n_parts[1])[i] *
                            (*out.n_parts[2])[i] * denom[i];
        }
        reg.add_bytes_out(n * kFrBytes);
    }

    // Product MLE via the merged table v = [phi | pi] (the Multifunction
    // Tree unit's tree mode, Section 4.3). A single forward pass works
    // because v[n+i] only consumes entries with index < n+i.
    {
        ProfileRegion reg("Product MLE");
        std::vector<Fr> v(2 * n);
        for (size_t i = 0; i < n; ++i) v[i] = (*out.phi)[i];
        for (size_t i = 0; i + 1 < n; ++i) {
            v[n + i] = v[2 * i] * v[2 * i + 1];
        }
        v[2 * n - 1] = Fr::one();

        out.pi = std::make_shared<Mle>(mu);
        out.p1 = std::make_shared<Mle>(mu);
        out.p2 = std::make_shared<Mle>(mu);
        for (size_t i = 0; i < n; ++i) {
            (*out.pi)[i] = v[n + i];
            (*out.p1)[i] = v[2 * i];
            (*out.p2)[i] = v[2 * i + 1];
        }
        reg.add_bytes_out(n * kFrBytes);
    }
    return out;
}

Fr
eval_p1_from_children(const Fr &x_last, const Fr &phi_u, const Fr &pi_u)
{
    return (Fr::one() - x_last) * phi_u + x_last * pi_u;
}

}  // namespace zkspeed::hyperplonk
