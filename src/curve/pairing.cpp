#include "curve/pairing.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

namespace zkspeed::curve {

namespace {

using ff::BigInt;
using ff::Fq;

/** |x| for the BLS parameter x = -0xd201000000010000. */
constexpr uint64_t kAbsX = 0xd201000000010000ULL;

/** Homogeneous projective G2 point used inside the Miller loop. */
struct G2Proj {
    Fq2 x, y, z;
};

/** Line coefficients (c0, c1, c4) feeding Fq12::mul_by_014. */
using LineEval = G2Prepared::Coeffs;

/**
 * Doubling step: R <- 2R, returning the tangent-line coefficients
 * (Costello-Lange-Naehrig homogeneous projective formulas, M-twist).
 */
LineEval
doubling_step(G2Proj &r)
{
    static const Fq two_inv = Fq::from_uint(2).inverse();
    Fq2 a = (r.x * r.y).scale(two_inv);
    Fq2 b = r.y.square();
    Fq2 c = r.z.square();
    Fq2 e = G2Params::b() * (c.dbl() + c);
    Fq2 f = e.dbl() + e;
    Fq2 g = (b + f).scale(two_inv);
    Fq2 h = (r.y + r.z).square() - (b + c);
    Fq2 i = e - b;
    Fq2 j = r.x.square();
    Fq2 e2 = e.square();
    r.x = a * (b - f);
    r.y = g.square() - (e2.dbl() + e2);
    r.z = b * h;
    return {i, j.dbl() + j, -h};
}

/**
 * Addition step: R <- R + Q, returning the chord-line coefficients.
 */
LineEval
addition_step(G2Proj &r, const G2Affine &q)
{
    Fq2 theta = r.y - q.y * r.z;
    Fq2 lambda = r.x - q.x * r.z;
    Fq2 c = theta.square();
    Fq2 d = lambda.square();
    Fq2 e = lambda * d;
    Fq2 f = r.z * c;
    Fq2 g = r.x * d;
    Fq2 h = e + f - g.dbl();
    r.x = lambda * h;
    r.y = theta * (g - h) - e * r.y;
    r.z = r.z * e;
    Fq2 j = theta * q.x - lambda * q.y;
    return {j, -theta, lambda};
}

/** Evaluate a line at the G1 point and fold it into f (M-twist). */
void
ell(Fq12 &f, const LineEval &line, const G1Affine &p)
{
    Fq2 c1 = line.c1.scale(p.x);
    Fq2 c4 = line.c4.scale(p.y);
    f = f.mul_by_014(line.c0, c1, c4);
}

/**
 * The hard part's exponent d = (q^4 - q^2 + 1)/r, split in base q:
 * d = mu_0 + mu_1 q + mu_2 q^2 + mu_3 q^3 with mu_i = lambda_i / 3 and
 * the BLS12 polynomials lambda_3 = (x-1)^2, lambda_2 = lambda_3 x,
 * lambda_1 = lambda_2 x - lambda_3, lambda_0 = lambda_1 x + 3. For the
 * negative x of BLS12-381, mu_0 and mu_2 are negative; `mag` holds the
 * magnitudes (317, 254, 190 and 126 bits).
 */
struct HardPart {
    std::array<BigInt<Fq::kLimbs>, 4> mag;
    size_t bits = 0;  ///< widest magnitude
};

using Wide = BigInt<24>;

/** a * b, throwing if the product overflows Wide. */
Wide
mul_checked(const Wide &a, const Wide &b)
{
    auto p = a.mul_wide(b);
    Wide r;
    for (size_t i = 0; i < p.limbs.size(); ++i) {
        if (i < r.limbs.size()) {
            r.limbs[i] = p.limbs[i];
        } else if (p.limbs[i] != 0) {
            throw std::logic_error("final exponentiation constant overflow");
        }
    }
    return r;
}

/**
 * Derive the mu_i from kAbsX and check them, failing closed: the split
 * needs x = 1 (mod 3) and r | q^4 - q^2 + 1, and the result must satisfy
 * sum mu_i q^i == d as an exact integer identity. Any failure throws, so
 * a wrong constant can never degrade the pairing check to "always 1".
 */
HardPart
build_hard_part()
{
    // x = -a, so x = 1 (mod 3) iff a = 2 (mod 3).
    const uint64_t a = kAbsX;
    if (a % 3 != 2) {
        throw std::logic_error("BLS parameter x is not 1 mod 3");
    }
    const Wide wa(a);
    // Magnitudes of mu_3 = (x-1)^2/3, mu_2 = mu_3 x, mu_1 = mu_2 x - mu_3
    // and mu_0 = mu_1 x + 1 with x = -a.
    Wide m3 = mul_checked(Wide((a + 1) / 3), Wide(a + 1));
    Wide m2 = mul_checked(m3, wa);
    Wide m1 = mul_checked(m2, wa);
    m1.sub_assign(m3);
    Wide m0 = mul_checked(m1, wa);
    m0.sub_assign(Wide(1));

    const Wide q = ff::widen<24>(Fq::kModulus);
    const Wide q2 = mul_checked(q, q);
    const Wide q3 = mul_checked(q2, q);
    Wide num = mul_checked(q2, q2);
    num.sub_assign(q2);
    num.add_assign(Wide(1));
    Wide d, rem;
    ff::divmod(num, ff::widen<24>(ff::Fr::kModulus), d, rem);
    if (!rem.is_zero()) {
        throw std::logic_error("r does not divide q^4 - q^2 + 1");
    }
    // mu_1 q + mu_3 q^3 == d + |mu_0| + |mu_2| q^2.
    Wide lhs = mul_checked(m1, q);
    lhs.add_assign(mul_checked(m3, q3));
    Wide rhs = d;
    rhs.add_assign(m0);
    rhs.add_assign(mul_checked(m2, q2));
    if (!(lhs == rhs)) {
        throw std::logic_error("hard-part split does not sum to d");
    }

    HardPart h;
    const Wide *ms[4] = {&m0, &m1, &m2, &m3};
    for (size_t i = 0; i < 4; ++i) {
        if (ms[i]->num_bits() > 64 * Fq::kLimbs) {
            throw std::logic_error("hard-part exponent too wide");
        }
        for (size_t l = 0; l < Fq::kLimbs; ++l) {
            h.mag[i].limbs[l] = ms[i]->limbs[l];
        }
        h.bits = std::max(h.bits, ms[i]->num_bits());
    }
    return h;
}

const HardPart &
hard_part()
{
    static const HardPart kHard = build_hard_part();
    return kHard;
}

}  // namespace

G2Prepared
prepare_g2(const G2Affine &q)
{
    G2Prepared prep;
    if (q.is_identity()) return prep;
    prep.infinity = false;
    G2Proj r{q.x, q.y, Fq2::one()};
    BigInt<1> x(kAbsX);
    // One doubling per bit plus one addition per set bit.
    prep.coeffs.reserve(x.num_bits() + 9);
    for (size_t bit = x.num_bits() - 1; bit-- > 0;) {
        prep.coeffs.push_back(doubling_step(r));
        if (x.bit(bit)) prep.coeffs.push_back(addition_step(r, q));
    }
    return prep;
}

Fq12
multi_miller_loop(std::span<const G1Affine> ps,
                  std::span<const G2Prepared> qs)
{
    // Collect the non-trivial pairs (identity in either slot contributes 1).
    std::vector<const G1Affine *> p_live;
    std::vector<const G2Prepared *> q_live;
    for (size_t i = 0; i < ps.size(); ++i) {
        if (!ps[i].is_identity() && !qs[i].infinity) {
            p_live.push_back(&ps[i]);
            q_live.push_back(&qs[i]);
        }
    }
    Fq12 f = Fq12::one();
    if (p_live.empty()) return f;

    std::vector<size_t> pos(q_live.size(), 0);
    BigInt<1> x(kAbsX);
    for (size_t bit = x.num_bits() - 1; bit-- > 0;) {
        f = f.square();
        for (size_t i = 0; i < q_live.size(); ++i) {
            ell(f, q_live[i]->coeffs[pos[i]++], *p_live[i]);
        }
        if (x.bit(bit)) {
            for (size_t i = 0; i < q_live.size(); ++i) {
                ell(f, q_live[i]->coeffs[pos[i]++], *p_live[i]);
            }
        }
    }
    // The BLS parameter x is negative, and the loop ran over |x|: the
    // conjugate of f stands in for f^{-1}, which agree after the final
    // exponentiation.
    return f.conjugate();
}

Fq12
miller_loop(const G1Affine &p, const G2Affine &q)
{
    return multi_miller_loop(std::span(&p, 1), std::array{prepare_g2(q)});
}

Fq12
final_exponentiation(const Fq12 &f)
{
    // Easy part: f^{(q^6 - 1)(q^2 + 1)}. The result lies in the
    // cyclotomic subgroup, where conjugation inverts and
    // cyclotomic_square squares.
    Fq12 t = f.conjugate() * f.inverse();
    t = t.frobenius().frobenius() * t;

    // Hard part: t^d = prod_i (t^{q^i})^{mu_i}, one simultaneous
    // exponentiation over a 16-entry table of subset products.
    const HardPart &h = hard_part();
    const Fq12 t1 = t.frobenius();
    const Fq12 t2 = t1.frobenius();
    const std::array<Fq12, 4> bases = {t.conjugate(), t1, t2.conjugate(),
                                       t2.frobenius()};
    std::array<Fq12, 16> table;
    table[0] = Fq12::one();
    for (unsigned m = 1; m < 16; ++m) {
        unsigned low = unsigned(std::countr_zero(m));
        table[m] = m == (1u << low) ? bases[low]
                                    : table[m & (m - 1)] * bases[low];
    }
    Fq12 r = Fq12::one();
    bool started = false;
    for (size_t bit = h.bits; bit-- > 0;) {
        if (started) r = r.cyclotomic_square();
        unsigned idx = 0;
        for (unsigned i = 0; i < 4; ++i) {
            if (h.mag[i].bit(bit)) idx |= 1u << i;
        }
        if (idx != 0) {
            r = started ? r * table[idx] : table[idx];
            started = true;
        }
    }
    return r;
}

Fq12
pairing(const G1Affine &p, const G2Affine &q)
{
    return final_exponentiation(miller_loop(p, q));
}

bool
pairing_product_is_one(std::span<const G1Affine> ps,
                       std::span<const G2Prepared> qs)
{
    return final_exponentiation(multi_miller_loop(ps, qs)).is_one();
}

}  // namespace zkspeed::curve
