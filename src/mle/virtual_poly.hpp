/**
 * @file
 * Virtual polynomials: sums of coefficient-weighted products of MLEs.
 *
 * HyperPlonk's three SumCheck flavours (ZeroCheck, PermCheck, OpenCheck;
 * paper Eqs. 3-5) all operate on polynomials of this shape. MLEs are
 * shared between terms (e.g. f_z1 appears in every term of Eq. 3); the
 * SumCheck prover exploits this by extending each distinct table only
 * once per round, as the zkSpeed SumCheck PE does (Section 4.1.1).
 */
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "mle/mle.hpp"

namespace zkspeed::mle {

class VirtualPolynomial
{
  public:
    /** One product term: coeff * prod_k mle[factor_k]. */
    struct Term {
        Fr coeff;
        std::vector<size_t> factors;  ///< indices into the MLE list
    };

    explicit VirtualPolynomial(size_t num_vars) : num_vars_(num_vars) {}

    size_t num_vars() const { return num_vars_; }
    /** The registered MLEs. Not owned: each must outlive the polynomial. */
    const std::vector<const Mle *> &mles() const { return mles_; }
    const std::vector<Term> &terms() const { return terms_; }

    /**
     * Register an MLE (deduplicated by address) and return its index for
     * use in terms.
     */
    size_t
    add_mle(const Mle &m)
    {
        assert(m.num_vars() == num_vars_);
        for (size_t i = 0; i < mles_.size(); ++i) {
            if (mles_[i] == &m) return i;
        }
        mles_.push_back(&m);
        return mles_.size() - 1;
    }

    /** Append a term coeff * prod of the given registered MLE indices. */
    void
    add_term(const Fr &coeff, std::vector<size_t> factors)
    {
        for ([[maybe_unused]] size_t f : factors) assert(f < mles_.size());
        terms_.push_back(Term{coeff, std::move(factors)});
    }

    /** Convenience: register MLEs and append the product term. */
    void
    add_product(const Fr &coeff,
                std::initializer_list<std::reference_wrapper<const Mle>> ms)
    {
        std::vector<size_t> idx;
        idx.reserve(ms.size());
        for (const Mle &m : ms) idx.push_back(add_mle(m));
        add_term(coeff, std::move(idx));
    }

    /** Highest per-variable degree: the longest product. */
    size_t
    max_degree() const
    {
        size_t d = 0;
        for (const auto &t : terms_) d = std::max(d, t.factors.size());
        return d;
    }

    /**
     * sum_t coeff_t * prod_k vals[factor_k]: the one evaluator of a term
     * list. A coefficient of 1 or -1 costs no multiply, so a term pays
     * one Fr mul per factor after its first.
     */
    static Fr
    evaluate_terms(std::span<const Term> terms, std::span<const Fr> vals)
    {
        const Fr one = Fr::one(), minus_one = -one;
        Fr acc = Fr::zero();
        for (const auto &t : terms) {
            Fr prod = t.factors.empty() ? one : vals[t.factors[0]];
            for (size_t k = 1; k < t.factors.size(); ++k) {
                prod *= vals[t.factors[k]];
            }
            if (t.coeff == minus_one) acc -= prod;
            else acc += t.coeff == one ? prod : t.coeff * prod;
        }
        return acc;
    }

    /** Evaluate the full polynomial at a point (test/verifier path). */
    Fr
    evaluate(std::span<const Fr> point) const
    {
        std::vector<Fr> mle_vals(mles_.size());
        for (size_t i = 0; i < mles_.size(); ++i) {
            mle_vals[i] = mles_[i]->evaluate(point);
        }
        return evaluate_from_mle_values(mle_vals);
    }

    /**
     * Combine per-MLE evaluations into the polynomial value. The verifier
     * uses this with externally-verified MLE openings.
     */
    Fr
    evaluate_from_mle_values(std::span<const Fr> mle_vals) const
    {
        return evaluate_terms(terms_, mle_vals);
    }

    /** Sum over the boolean hypercube (the SumCheck claim). */
    Fr
    sum_over_hypercube() const
    {
        Fr acc = Fr::zero();
        std::vector<Fr> row(mles_.size());
        for (size_t i = 0; i < (size_t(1) << num_vars_); ++i) {
            for (size_t m = 0; m < mles_.size(); ++m) row[m] = (*mles_[m])[i];
            acc += evaluate_from_mle_values(row);
        }
        return acc;
    }

  private:
    size_t num_vars_;
    std::vector<const Mle *> mles_;
    std::vector<Term> terms_;
};

}  // namespace zkspeed::mle
