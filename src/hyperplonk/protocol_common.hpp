/**
 * @file
 * Shared prover/verifier protocol plumbing: transcript binding, the
 * batch-evaluation claim table, the opening points and the identity
 * tables (gate, wiring, lookup) that the prover, the verifier and the
 * witness check all read.
 *
 * claim_list is the one description of Step 4's layout (22 claims over
 * 13 polynomials at 6 points; +1 claim with custom gates, +11 claims /
 * +8 polynomials / +1 point with a lookup argument; see DESIGN.md
 * Sections 2 and 8). The prover fills Proof::evals in its order, the
 * serializer sizes the evaluation block from it and the verifier reads
 * the claims at each point (Claims::at), so the three agree by
 * construction.
 */
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "hash/transcript.hpp"
#include "hyperplonk/prover.hpp"

namespace zkspeed::hyperplonk::detail {

using hash::Transcript;

/** Absorb an affine G1 point (canonical coordinates + infinity flag). */
inline void
append_g1(Transcript &tr, std::string_view label, const G1Affine &p)
{
    uint8_t buf[2 * ff::Fq::kByteSize + 1] = {};
    if (!p.infinity) {
        p.x.to_bytes(buf);
        p.y.to_bytes(buf + ff::Fq::kByteSize);
        buf[2 * ff::Fq::kByteSize] = 1;
    }
    tr.append_bytes(label, std::span<const uint8_t>(buf, sizeof(buf)));
}

/** Bind the statement: index commitments, sizes and public inputs. */
inline void
bind_preamble(Transcript &tr, size_t num_vars, size_t num_public,
              bool custom_gates, bool has_lookup,
              const std::array<G1Affine, 6> &selector_comms,
              const std::array<G1Affine, 3> &sigma_comms,
              const std::array<G1Affine, 5> &lookup_comms,
              std::span<const Fr> public_inputs)
{
    tr.append_fr("num_vars", Fr::from_uint(num_vars));
    tr.append_fr("num_public", Fr::from_uint(num_public));
    tr.append_fr("custom_gates", Fr::from_uint(custom_gates ? 1 : 0));
    tr.append_fr("has_lookup", Fr::from_uint(has_lookup ? 1 : 0));
    for (const auto &c : selector_comms) append_g1(tr, "selector_comm", c);
    for (const auto &c : sigma_comms) append_g1(tr, "sigma_comm", c);
    for (const auto &c : lookup_comms) append_g1(tr, "lookup_comm", c);
    tr.append_frs("public_inputs", public_inputs);
}

/** The opening points, in make_points order. */
enum PointId : size_t {
    kGatePoint = 0,  ///< r_g, the ZeroCheck challenge point
    kPermPoint,      ///< r_p, the PermCheck challenge point
    kU0Point,        ///< (0, r_p[0..mu-2]), the p1 child point
    kU1Point,        ///< (1, r_p[0..mu-2]), the p2 child point
    kRootPoint,      ///< the product-tree root (bits of 2^mu - 2)
    kPubPoint,       ///< the public-input point z_pub
    kLookupPoint,    ///< r_l, the LookupCheck point (lookup circuits)
};

/** One batch-opening claim: polynomial `poly` evaluated at point `point`. */
struct ClaimEntry {
    size_t point;  ///< PointId
    size_t poly;   ///< PolyId
};

/**
 * The claim table: Proof::evals holds one value per entry, in this
 * order. With custom gates a 23rd claim (q_H at the gate point) follows
 * the base gate block; with a lookup argument the 11 LookupCheck-point
 * claims trail the list.
 */
inline std::vector<ClaimEntry>
claim_list(bool custom_gates, bool has_lookup)
{
    std::vector<ClaimEntry> c = {
        {kGatePoint, kQl}, {kGatePoint, kQr}, {kGatePoint, kQm},
        {kGatePoint, kQo}, {kGatePoint, kQc}, {kGatePoint, kW1},
        {kGatePoint, kW2}, {kGatePoint, kW3},
    };
    if (custom_gates) c.push_back({kGatePoint, kQh});
    const ClaimEntry rest[] = {
        {kPermPoint, kW1}, {kPermPoint, kW2}, {kPermPoint, kW3},
        {kPermPoint, kS1}, {kPermPoint, kS2}, {kPermPoint, kS3},
        {kPermPoint, kPhi}, {kPermPoint, kPi},
        {kU0Point, kPhi}, {kU0Point, kPi},
        {kU1Point, kPhi}, {kU1Point, kPi},
        {kRootPoint, kPi},
        {kPubPoint, kW1},
    };
    c.insert(c.end(), std::begin(rest), std::end(rest));
    if (has_lookup) {
        for (size_t poly : {kW1, kW2, kW3, kQLookup, kTTag, kT1, kT2, kT3,
                            kM, kHf, kHt}) {
            c.push_back({kLookupPoint, poly});
        }
    }
    return c;
}

/** Number of variables needed to index the public inputs. */
inline size_t
pub_vars(size_t num_public)
{
    size_t v = 0;
    while ((size_t(1) << v) < num_public) ++v;
    return v;
}

/** Assemble the opening points in PointId order: the six base points
 * plus, for lookup circuits, the LookupCheck point r_l. */
inline std::vector<std::vector<Fr>>
make_points(std::span<const Fr> r_g, std::span<const Fr> r_p,
            std::span<const Fr> z_pub, size_t mu,
            std::span<const Fr> r_l = {})
{
    std::vector<std::vector<Fr>> pts(kLookupPoint, std::vector<Fr>(mu));
    pts[kGatePoint].assign(r_g.begin(), r_g.end());
    pts[kPermPoint].assign(r_p.begin(), r_p.end());
    pts[kU1Point][0] = Fr::one();
    for (size_t k = 1; k < mu; ++k) {
        pts[kU0Point][k] = pts[kU1Point][k] = r_p[k - 1];
    }
    for (size_t k = 0; k < mu; ++k) {
        if ((((size_t(1) << mu) - 2) >> k) & 1) pts[kRootPoint][k] = Fr::one();
    }
    std::copy(z_pub.begin(), z_pub.end(), pts[kPubPoint].begin());
    if (!r_l.empty()) pts.emplace_back(r_l.begin(), r_l.end());
    return pts;
}

/** Powers a^0 .. a^{n-1}. */
inline std::vector<Fr>
powers(const Fr &a, size_t n)
{
    std::vector<Fr> p(n);
    p[0] = Fr::one();
    for (size_t i = 1; i < n; ++i) p[i] = p[i - 1] * a;
    return p;
}

/** id_j evaluated at an arbitrary point: j*2^mu + sum_k x_k 2^{k-1}. */
inline Fr
identity_eval(size_t j, size_t mu, std::span<const Fr> x)
{
    Fr acc = Fr::from_uint(uint64_t(j) << mu);
    for (size_t k = 0; k < mu; ++k) {
        acc += x[k] * Fr::from_uint(uint64_t(1) << k);
    }
    return acc;
}

/** Identity-table slots: every PolyId, then the wiring oracles that are
 * never opened (the verifier derives them from opened claims). */
enum SlotId : size_t {
    kP1 = kNumPolys, kP2,  ///< product-tree children v(0, x), v(1, x)
    kN1, kN2, kN3,         ///< N_j = w_j + beta id_j + gamma
    kD1, kD2, kD3,         ///< D_j = w_j + beta s_j + gamma
    kNumSlots,
};

using Term = VirtualPolynomial::Term;
using SlotMles = std::array<const Mle *, kNumSlots>;
using SlotValues = std::array<Fr, kNumSlots>;

/**
 * One identity as a term table over slots, proved by a sumcheck of
 *   sum_x [ plain(x) + eq(x, r) weighted(x) ] = 0.
 * Each table below is the only statement of its identity: the prover
 * binds its slots to MLEs (bind_mles), the verifier to claimed
 * evaluations (evaluate) and the witness check to one row's values.
 */
struct Identity {
    std::vector<Term> plain;
    std::vector<Term> weighted;  ///< each multiplied by eq(x, r)

    /** Per-round sumcheck degree: the longest term, eq included. */
    size_t
    degree() const
    {
        size_t d = 0;
        for (const Term &t : plain) d = std::max(d, t.factors.size());
        for (const Term &t : weighted) d = std::max(d, t.factors.size() + 1);
        return d;
    }
};

/** Gate identity (Eq. 3): qL w1 + qR w2 + qM w1 w2 - qO w3 + qC, plus
 * the Jellyfish-style q_H w1^5 with custom gates (degree 7). */
inline Identity
gate_identity(bool custom_gates)
{
    const Fr one = Fr::one();
    Identity id{{},
                {{one, {kQl, kW1}}, {one, {kQr, kW2}}, {one, {kQm, kW1, kW2}},
                 {-one, {kQo, kW3}}, {one, {kQc}}}};
    if (custom_gates) {
        id.weighted.push_back({one, {kQh, kW1, kW1, kW1, kW1, kW1}});
    }
    return id;
}

/** Wiring identity (Eq. 4): pi - p1 p2 + alpha (phi D1 D2 D3 - N1 N2 N3). */
inline Identity
wiring_identity(const Fr &alpha)
{
    const Fr one = Fr::one();
    return {{},
            {{one, {kPi}}, {-one, {kP1, kP2}},
             {alpha, {kPhi, kD1, kD2, kD3}}, {-alpha, {kN1, kN2, kN3}}}};
}

/** LookupCheck identity (logup.hpp (L1)-(L3)): (L1) h_f - h_t plain,
 * then alpha (L2) and alpha^2 (L3) with the tagged folds expanded:
 * h_f (lambda + q + g w1 + g^2 w2 + g^3 w3) - q, q = q_lookup, and
 * h_t (lambda + tag + g t1 + g^2 t2 + g^3 t3) - m. */
inline Identity
lookup_identity(const Fr &lambda, const Fr &gamma, const Fr &alpha)
{
    const Fr one = Fr::one();
    const Fr a2 = alpha * alpha, g2 = gamma * gamma, g3 = g2 * gamma;
    return {{{one, {kHf}}, {-one, {kHt}}},
            {{alpha * lambda, {kHf}}, {alpha, {kHf, kQLookup}},
             {alpha * gamma, {kHf, kW1}}, {alpha * g2, {kHf, kW2}},
             {alpha * g3, {kHf, kW3}}, {-alpha, {kQLookup}},
             {a2 * lambda, {kHt}}, {a2, {kHt, kTTag}},
             {a2 * gamma, {kHt, kT1}}, {a2 * g2, {kHt, kT2}},
             {a2 * g3, {kHt, kT3}}, {-a2, {kM}}}};
}

/** The slots the index and the witness fill (the prover adds the rest). */
inline SlotMles
index_slots(const CircuitIndex &ix, const Witness &wit)
{
    return {&ix.q_l, &ix.q_r, &ix.q_m, &ix.q_o, &ix.q_c, &ix.q_h,
            &wit.w[0], &wit.w[1], &wit.w[2],
            &ix.sigma[0], &ix.sigma[1], &ix.sigma[2], nullptr, nullptr,
            &ix.q_lookup, &ix.table_tag,
            &ix.table[0], &ix.table[1], &ix.table[2]};
}

/** The prover's reading: the table over MLEs, eq the last factor of each
 * weighted term. */
inline VirtualPolynomial
bind_mles(const Identity &id, const SlotMles &slots, const Mle &eq)
{
    VirtualPolynomial vp(eq.num_vars());
    for (const auto *terms : {&id.plain, &id.weighted}) {
        for (const Term &t : *terms) {
            std::vector<size_t> f;
            for (size_t s : t.factors) f.push_back(vp.add_mle(*slots[s]));
            if (terms == &id.weighted) f.push_back(vp.add_mle(eq));
            vp.add_term(t.coeff, std::move(f));
        }
    }
    return vp;
}

/** The verifier's reading: the table's value at slot values, with eq =
 * eq(r, point). */
inline Fr
evaluate(const Identity &id, const SlotValues &v, const Fr &eq)
{
    return VirtualPolynomial::evaluate_terms(id.plain, v) +
           eq * VirtualPolynomial::evaluate_terms(id.weighted, v);
}

/** A proof's claimed evaluations, read per opening point. */
struct Claims {
    std::span<const ClaimEntry> table;
    std::span<const Fr> values;  ///< one per table entry

    /** Slot values of the polynomials claimed at `point` (zero
     * elsewhere). */
    SlotValues
    at(size_t point) const
    {
        SlotValues v{};
        for (size_t c = 0; c < table.size(); ++c) {
            if (table[c].point == point) v[table[c].poly] = values[c];
        }
        return v;
    }
};

}  // namespace zkspeed::hyperplonk::detail
