/**
 * @file
 * Dense multilinear extensions (MLE tables).
 *
 * A mu-variate multilinear polynomial is stored as its 2^mu evaluations
 * over the boolean hypercube (paper Section 2.3: "MLE tables"). Index i
 * encodes the assignment little-endian: variable x_k is bit k-1 of i.
 *
 * The two core mutations are exactly the paper's kernels:
 *  - fix_first_variable implements the MLE Update of Eq. 2:
 *        t'[i] = (t[2i+1] - t[2i]) * r + t[2i]
 *  - eq_table implements Build MLE (the eq polynomial of Section 3.3.2).
 */
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "ff/fr.hpp"
#include "ff/parallel.hpp"

namespace zkspeed::mle {

using ff::Fr;

class Mle
{
  public:
    /** Construct the zero polynomial over num_vars variables. */
    explicit Mle(size_t num_vars = 0)
        : num_vars_(num_vars), evals_(size_t(1) << num_vars)
    {}

    /** Construct from an evaluation table (size must be a power of two). */
    static Mle
    from_evals(std::vector<Fr> evals)
    {
        size_t nv = 0;
        while ((size_t(1) << nv) < evals.size()) ++nv;
        assert((size_t(1) << nv) == evals.size() && !evals.empty());
        Mle m;
        m.num_vars_ = nv;
        m.evals_ = std::move(evals);
        return m;
    }

    /** Constant polynomial c over num_vars variables. */
    static Mle
    constant(size_t num_vars, const Fr &c)
    {
        Mle m(num_vars);
        for (auto &e : m.evals_) e = c;
        return m;
    }

    /** Uniformly random table (for tests and mock workloads). */
    template <typename Rng>
    static Mle
    random(size_t num_vars, Rng &rng)
    {
        Mle m(num_vars);
        for (auto &e : m.evals_) e = Fr::random(rng);
        return m;
    }

    size_t num_vars() const { return num_vars_; }
    size_t size() const { return evals_.size(); }
    const std::vector<Fr> &evals() const { return evals_; }
    std::vector<Fr> &evals() { return evals_; }
    Fr &operator[](size_t i) { return evals_[i]; }
    const Fr &operator[](size_t i) const { return evals_[i]; }
    bool operator==(const Mle &o) const = default;

    /**
     * MLE Update (paper Eq. 2): bind the first variable x_1 to r, halving
     * the table. t'[i] = (t[2i+1] - t[2i]) * r + t[2i].
     */
    void
    fix_first_variable(const Fr &r)
    {
        assert(num_vars_ > 0);
        size_t half = evals_.size() / 2;
        for (size_t i = 0; i < half; ++i) {
            evals_[i] = evals_[2 * i] +
                        (evals_[2 * i + 1] - evals_[2 * i]) * r;
        }
        evals_.resize(half);
        --num_vars_;
    }

    /**
     * Evaluate at an arbitrary point (MLE Evaluate, paper Section 3.3.4)
     * by folding one variable at a time: O(2^mu) multiplications.
     */
    Fr
    evaluate(std::span<const Fr> point) const
    {
        assert(point.size() == num_vars_);
        std::vector<Fr> cur = evals_;
        size_t len = cur.size();
        for (size_t k = 0; k < num_vars_; ++k) {
            len /= 2;
            for (size_t i = 0; i < len; ++i) {
                cur[i] = cur[2 * i] + (cur[2 * i + 1] - cur[2 * i]) * point[k];
            }
        }
        return cur[0];
    }

    /**
     * Build MLE (paper Sections 3.3.2 / 4.3): the eq polynomial table
     *   eq(x; r)[i] = prod_k (i_k ? r_k : 1 - r_k),
     * built as a forward binary tree with 2^{mu+1} - 4 multiplications
     * (one child per pair is derived by subtraction, footnote 3). Each
     * level's parents are independent, so a level runs in parallel.
     */
    static Mle
    eq_table(std::span<const Fr> point)
    {
        Mle m;
        m.num_vars_ = point.size();
        std::vector<Fr> cur = {Fr::one()};
        cur.reserve(size_t(1) << point.size());
        // Each doubling step installs the new variable at bit 0, so we
        // process the point back-to-front to leave x_1 at the LSB.
        for (size_t k = point.size(); k-- > 0;) {
            std::vector<Fr> next(cur.size() * 2);
            ff::parallel_for(cur.size(), 1, [&](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                    next[2 * i + 1] = cur[i] * point[k];
                    next[2 * i] = cur[i] - next[2 * i + 1];  // (1-r)*c
                }
            });
            cur = std::move(next);
        }
        m.evals_ = std::move(cur);
        return m;
    }

    /**
     * Closed-form evaluation of eq(z; r) = prod_k (z_k r_k +
     * (1-z_k)(1-r_k)); what the verifier uses instead of a table.
     */
    static Fr
    eq_eval(std::span<const Fr> z, std::span<const Fr> r)
    {
        assert(z.size() == r.size());
        Fr acc = Fr::one();
        for (size_t k = 0; k < z.size(); ++k) {
            Fr zr = z[k] * r[k];
            acc *= zr + zr + Fr::one() - z[k] - r[k];
        }
        return acc;
    }

    /** Sum of the table over the boolean hypercube. */
    Fr
    sum() const
    {
        Fr acc = Fr::zero();
        for (const auto &e : evals_) acc += e;
        return acc;
    }

    /** this += c * other (MLE Combine primitive). */
    void
    add_scaled(const Mle &other, const Fr &c)
    {
        assert(other.size() == size());
        for (size_t i = 0; i < evals_.size(); ++i) {
            evals_[i] += other.evals_[i] * c;
        }
    }

  private:
    size_t num_vars_ = 0;
    std::vector<Fr> evals_;
};

}  // namespace zkspeed::mle
