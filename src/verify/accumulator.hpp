/**
 * @file
 * Deferred-pairing accumulator: the core of the batch verification
 * subsystem.
 *
 * A pairing-based verifier normally finishes with a product-of-pairings
 * check  prod_i e(P_i, Q_i) == 1.  Instead of evaluating it inline, the
 * accumulator records the (scalar, G1 base, G2 point) terms the check
 * *would* pair, with each G1 input kept in unscaled base+scalar form:
 *
 *   prod_j e(s_j * B_j, Q_j) == 1
 *
 * Deferring buys three things (DESIGN.md Section 6):
 *  1. Single-proof verify becomes "accumulate then flush", and the flush
 *     groups terms by their G2 point, so every group collapses to one
 *     G1 MSM — G2 scalar multiplications (the old h^{tau_k} - z_k h
 *     construction) disappear from the verifier entirely.
 *  2. Many proofs' accumulators fold into ONE check: scale each proof's
 *     terms by a Fiat-Shamir weight rho_i and concatenate. By bilinearity
 *     the folded check holds iff prod_i (proof_i product)^{rho_i} == 1,
 *     which for independent uniform rho_i accepts a batch containing any
 *     bad proof with probability <= 1/r (Schwartz-Zippel in the exponent).
 *  3. mKZG openings share the fixed G2 basis {h, h^{tau_k}}, so a folded
 *     batch of N proofs still pairs only mu+1 points: cost moves from
 *     N*(mu+1) pairings to one N*(mu+2+k)-term MSM plus one
 *     multi-pairing, where k <= 22 is the number of commitments a
 *     HyperPlonk proof's opened g' combines (they sit on the h slot).
 *
 * Header-only so the pcs layer can emit terms without a link-time
 * dependency on the higher verify library.
 */
#pragma once

#include <vector>

#include "curve/msm.hpp"
#include "curve/pairing.hpp"
#include "hash/transcript.hpp"

namespace zkspeed::verifier {

/** Statistics of one accumulator flush (fed into sim replay / metrics). */
struct FlushStats {
    /** Total G1 terms folded through MSMs. */
    size_t msm_points = 0;
    /** Pairs in the final multi-pairing (distinct G2 points). */
    size_t num_pairings = 0;
};

/**
 * Linear-scan lookup of `q` in `qs`, appending when absent; returns its
 * index. The distinct-G2 count is tiny (mu+1 per SRS), so a scan beats
 * building an ordered key. Shared by the accumulator's add_term and
 * the BatchVerifier's fold.
 */
inline size_t
find_or_add_g2(std::vector<curve::G2Affine> &qs, const curve::G2Affine &q)
{
    for (size_t i = 0; i < qs.size(); ++i) {
        if (qs[i] == q) return i;
    }
    qs.push_back(q);
    return qs.size() - 1;
}

class PairingAccumulator
{
  public:
    /** One deferred factor e(scalar * base, g2_points()[g2]). Terms name
     * their G2 point by index: an opening has mu+2+k terms but only
     * mu+1 distinct G2 points, so each term stays G2-free. */
    struct Term {
        ff::Fr scalar;
        curve::G1Affine base;
        size_t g2;
    };

    /** Record e(p, q). */
    void
    add_pair(const curve::G1Affine &p, const curve::G2Affine &q)
    {
        add_term(ff::Fr::one(), p, q);
    }

    /** Record e(scalar * base, q) without performing the scalar mul. */
    void
    add_term(const ff::Fr &scalar, const curve::G1Affine &base,
             const curve::G2Affine &q)
    {
        if (base.is_identity() || q.is_identity() || scalar.is_zero()) {
            return;  // contributes e(..)^0 = 1
        }
        terms_.push_back({scalar, base, find_or_add_g2(g2s_, q)});
    }

    bool empty() const { return terms_.empty(); }
    size_t size() const { return terms_.size(); }
    const std::vector<Term> &terms() const { return terms_; }
    /** The distinct G2 points, in order of first use. */
    const std::vector<curve::G2Affine> &g2_points() const { return g2s_; }

    void
    clear()
    {
        terms_.clear();
        g2s_.clear();
    }

    /**
     * Absorb the accumulator's canonical content into a transcript, so
     * Fiat-Shamir batch weights bind every folded statement.
     */
    void
    bind(hash::Transcript &tr) const
    {
        std::vector<uint8_t> buf;
        buf.reserve(terms_.size() * (ff::Fr::kByteSize +
                                     6 * ff::Fq::kByteSize + 2));
        uint8_t scratch[ff::Fq::kByteSize];
        auto put_fq = [&](const ff::Fq &x) {
            x.to_bytes(scratch);
            buf.insert(buf.end(), scratch, scratch + ff::Fq::kByteSize);
        };
        for (const Term &t : terms_) {
            const curve::G2Affine &q = g2s_[t.g2];
            t.scalar.to_bytes(scratch);
            buf.insert(buf.end(), scratch, scratch + ff::Fr::kByteSize);
            buf.push_back(t.base.infinity ? 1 : 0);
            put_fq(t.base.x);
            put_fq(t.base.y);
            buf.push_back(q.infinity ? 1 : 0);
            put_fq(q.x.c0);
            put_fq(q.x.c1);
            put_fq(q.y.c0);
            put_fq(q.y.c1);
        }
        tr.append_bytes("pairing_accumulator", buf);
    }

    /**
     * Flush: group terms by G2 point, run one G1 MSM per group, and
     * evaluate the single product-of-pairings check.
     */
    bool
    check(FlushStats *stats = nullptr) const
    {
        if (terms_.empty()) return true;
        // Group by G2 point: one MSM per distinct point.
        std::vector<std::vector<curve::G1Affine>> bases(g2s_.size());
        std::vector<std::vector<ff::Fr>> scalars(g2s_.size());
        for (const Term &t : terms_) {
            bases[t.g2].push_back(t.base);
            scalars[t.g2].push_back(t.scalar);
        }
        std::vector<curve::G1> sums(g2s_.size());
        for (size_t i = 0; i < g2s_.size(); ++i) {
            if (bases[i].size() == 1 && scalars[i][0].is_one()) {
                sums[i] = curve::G1::from_affine(bases[i][0]);
            } else {
                sums[i] = curve::msm(bases[i], scalars[i]);
            }
        }
        auto ps = curve::batch_to_affine<curve::G1Params>(sums);
        if (stats != nullptr) {
            stats->msm_points += terms_.size();
            stats->num_pairings += g2s_.size();
        }
        return curve::pairing_product_is_one(ps, g2s_);
    }

  private:
    std::vector<Term> terms_;
    std::vector<curve::G2Affine> g2s_;
};

}  // namespace zkspeed::verifier
