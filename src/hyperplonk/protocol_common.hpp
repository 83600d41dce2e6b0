/**
 * @file
 * Shared prover/verifier protocol plumbing: transcript binding, the
 * batch-evaluation claim table, and the opening points.
 *
 * claim_list is the one description of Step 4's layout (22 claims over
 * 13 polynomials at 6 points; +1 claim with custom gates, +11 claims /
 * +8 polynomials / +1 point with a lookup argument; see DESIGN.md
 * Sections 2 and 8). The prover fills Proof::evals in its order, the
 * serializer sizes the evaluation block from it and the verifier reads
 * each claim by its (point, polynomial) pair, so the three agree by
 * construction.
 */
#pragma once

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

/** A proof's claimed evaluations, read by (point, polynomial). Every
 * pair read must be in `table`. */
struct Claims {
    std::span<const ClaimEntry> table;
    std::span<const Fr> values;  ///< one per table entry

    const Fr &
    operator()(size_t point, size_t poly) const
    {
        size_t c = 0;
        while (table[c].point != point || table[c].poly != poly) ++c;
        return values[c];
    }
};

/** Number of variables needed to index the public inputs. */
inline size_t
pub_vars(size_t num_public)
{
    size_t v = 0;
    while ((size_t(1) << v) < num_public) ++v;
    return v;
}

/** Child point u0/u1 = (bit, r_p[0..mu-2]) for the p1/p2 reduction. */
inline std::vector<Fr>
child_point(std::span<const Fr> r_p, bool one)
{
    std::vector<Fr> pt(r_p.size());
    pt[0] = one ? Fr::one() : Fr::zero();
    for (size_t k = 1; k < r_p.size(); ++k) pt[k] = r_p[k - 1];
    return pt;
}

/** The compile-time-fixed product-tree root point: bits of 2^mu - 2. */
inline std::vector<Fr>
root_point(size_t mu)
{
    size_t idx = (size_t(1) << mu) - 2;
    std::vector<Fr> pt(mu);
    for (size_t k = 0; k < mu; ++k) {
        pt[k] = ((idx >> k) & 1) ? Fr::one() : Fr::zero();
    }
    return pt;
}

/** The public-input point (z_pub padded with zeros to mu coordinates). */
inline std::vector<Fr>
pub_point(std::span<const Fr> z_pub, size_t mu)
{
    std::vector<Fr> pt(mu, Fr::zero());
    for (size_t k = 0; k < z_pub.size(); ++k) pt[k] = z_pub[k];
    return pt;
}

/** Assemble the opening points in PointId order: the six base points
 * plus, for lookup circuits, the LookupCheck point r_l. */
inline std::vector<std::vector<Fr>>
make_points(std::span<const Fr> r_g, std::span<const Fr> r_p,
            std::span<const Fr> z_pub, size_t mu,
            std::span<const Fr> r_l = {})
{
    std::vector<std::vector<Fr>> pts = {
        std::vector<Fr>(r_g.begin(), r_g.end()),
        std::vector<Fr>(r_p.begin(), r_p.end()),
        child_point(r_p, false),
        child_point(r_p, true),
        root_point(mu),
        pub_point(z_pub, mu),
    };
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

/** The gate-identity constraint (Eq. 1, plus the optional q_H w1^5
 * custom-gate term) from the claimed gate-point evaluations. */
inline Fr
gate_expression(const Claims &at, bool custom_gates)
{
    auto e = [&](size_t poly) -> const Fr & {
        return at(kGatePoint, poly);
    };
    // qL w1 + qR w2 + qM w1 w2 - qO w3 + qC
    Fr f = e(kQl) * e(kW1) + e(kQr) * e(kW2) + e(kQm) * e(kW1) * e(kW2) -
           e(kQo) * e(kW3) + e(kQc);
    if (custom_gates) {
        Fr w1sq = e(kW1) * e(kW1);
        f += e(kQh) * w1sq * w1sq * e(kW1);
    }
    return f;
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

/** Per-round degree bound of the LookupCheck sumcheck (h * wire * eq). */
constexpr size_t kLookupCheckDegree = 3;

/**
 * The combined LookupCheck constraint evaluated from the claimed
 * point-6 evaluations (logup.hpp: (L1) + alpha (L2) eq + alpha^2 (L3)
 * eq), with the tagged folds tag + gamma c1 + gamma^2 c2 + gamma^3 c3
 * (gate-side tag = the q_lookup value itself). `eq_val` is
 * eq(r_l, r_z3), computed by the caller.
 */
inline Fr
lookup_expression(const Claims &at, const Fr &lambda, const Fr &gamma,
                  const Fr &alpha, const Fr &eq_val)
{
    auto e = [&](size_t poly) -> const Fr & {
        return at(kLookupPoint, poly);
    };
    Fr f = lambda + e(kQLookup) +
           gamma * (e(kW1) + gamma * (e(kW2) + gamma * e(kW3)));
    Fr t = lambda + e(kTTag) +
           gamma * (e(kT1) + gamma * (e(kT2) + gamma * e(kT3)));
    Fr expr = e(kHf) - e(kHt);
    expr += alpha * (e(kHf) * f - e(kQLookup)) * eq_val;
    expr += alpha * alpha * (e(kHt) * t - e(kM)) * eq_val;
    return expr;
}

}  // namespace zkspeed::hyperplonk::detail
