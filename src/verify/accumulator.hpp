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
 * This header only records terms. Deciding them is the batch fold of
 * verify/batch_verifier.cpp: check() is that fold over this one
 * accumulator with unit weight, and BatchVerifier::flush() runs it over
 * many accumulators with Fiat-Shamir weights.
 */
#pragma once

#include <vector>

#include "curve/g1.hpp"
#include "curve/g2.hpp"
#include "hash/transcript.hpp"

namespace zkspeed::verifier {

struct BatchStats;  // verify/batch_verifier.hpp

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
     * Decide the recorded product alone: the batch fold with unit
     * weight, so no Fiat-Shamir weight and no Fr mul. Adds one pairing
     * check to `stats` when given. Defined in batch_verifier.cpp.
     */
    bool check(BatchStats *stats = nullptr) const;

  private:
    std::vector<Term> terms_;
    std::vector<curve::G2Affine> g2s_;
};

}  // namespace zkspeed::verifier
