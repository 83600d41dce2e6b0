/**
 * @file
 * Quadratic extension Fq12 = Fq6[w] / (w^2 - v).
 *
 * Target group of the BLS12-381 pairing.
 */
#pragma once

#include <array>
#include <stdexcept>
#include <utility>

#include "curve/fq6.hpp"

namespace zkspeed::curve {

/**
 * Frobenius coefficients gamma_k = xi^{k (q-1)/6}, k = 0..5, xi = u + 1.
 * Since w^6 = xi, (w^k)^q = w^k gamma_k. Derived once from the modulus;
 * q = 1 (mod 6) is checked rather than assumed.
 */
inline const std::array<Fq2, 6> &
fq12_frobenius_coeffs()
{
    static const std::array<Fq2, 6> kCoeffs = [] {
        ff::BigInt<ff::Fq::kLimbs> e, rem;
        ff::divmod(ff::Fq::kModulus, ff::BigInt<ff::Fq::kLimbs>(6), e, rem);
        if (!(rem == ff::BigInt<ff::Fq::kLimbs>(1))) {
            throw std::logic_error("Fq12 Frobenius needs q = 1 (mod 6)");
        }
        std::array<Fq2, 6> g;
        g[0] = Fq2::one();
        g[1] = Fq2::one().mul_by_nonresidue().pow(e);
        for (size_t k = 2; k < 6; ++k) g[k] = g[k - 1] * g[1];
        return g;
    }();
    return kCoeffs;
}

class Fq12
{
  public:
    Fq6 c0{};
    Fq6 c1{};

    constexpr Fq12() = default;
    Fq12(const Fq6 &a, const Fq6 &b) : c0(a), c1(b) {}

    static Fq12 zero() { return Fq12(); }
    static Fq12 one() { return Fq12(Fq6::one(), Fq6::zero()); }

    bool operator==(const Fq12 &o) const = default;
    bool is_one() const { return c0.is_one() && c1.is_zero(); }

    Fq12 operator+(const Fq12 &o) const { return {c0 + o.c0, c1 + o.c1}; }
    Fq12 operator-(const Fq12 &o) const { return {c0 - o.c0, c1 - o.c1}; }

    Fq12
    operator*(const Fq12 &o) const
    {
        Fq6 aa = c0 * o.c0;
        Fq6 bb = c1 * o.c1;
        Fq6 cc = (c0 + c1) * (o.c0 + o.c1);
        return {aa + bb.mul_by_nonresidue(), cc - aa - bb};
    }

    Fq12 &operator*=(const Fq12 &o) { return *this = *this * o; }

    /** (a + b w)^2 = (a + b)(a + v b) - ab - v ab + 2ab w: 2 Fq6 muls. */
    Fq12
    square() const
    {
        Fq6 ab = c0 * c1;
        Fq6 t = (c0 + c1) * (c0 + c1.mul_by_nonresidue());
        return {t - ab - ab.mul_by_nonresidue(), ab + ab};
    }

    /**
     * Granger-Scott squaring (ePrint 2009/565), 9 Fq2 squarings. Valid
     * only in the cyclotomic subgroup, i.e. on (q^6 - 1)(q^2 + 1)-th
     * powers such as the output of the final exponentiation's easy
     * part; wrong for general elements.
     */
    Fq12
    cyclotomic_square() const
    {
        // Viewing Fq12 as Fq4^3 with Fq4 = Fq2[s]/(s^2 - xi), the pairs
        // (z0, z1), (z2, z3), (z4, z5) below are its three coefficients.
        auto fq4_square = [](const Fq2 &a, const Fq2 &b) {
            Fq2 t0 = a.square();
            Fq2 t1 = b.square();
            return std::pair{t1.mul_by_nonresidue() + t0,
                             (a + b).square() - t0 - t1};
        };
        const Fq2 &z0 = c0.c0, &z4 = c0.c1, &z3 = c0.c2;
        const Fq2 &z2 = c1.c0, &z1 = c1.c1, &z5 = c1.c2;
        auto [a0, a1] = fq4_square(z0, z1);
        auto [b0, b1] = fq4_square(z2, z3);
        auto [d0, d1] = fq4_square(z4, z5);
        // 3t - 2z for the real parts, 3t + 2z for the imaginary ones.
        auto minus = [](const Fq2 &t, const Fq2 &z) {
            Fq2 u = t - z;
            return u.dbl() + t;
        };
        auto plus = [](const Fq2 &t, const Fq2 &z) {
            Fq2 u = t + z;
            return u.dbl() + t;
        };
        return {Fq6(minus(a0, z0), minus(b0, z4), minus(d0, z3)),
                Fq6(plus(d1.mul_by_nonresidue(), z2), plus(a1, z1),
                    plus(b1, z5))};
    }

    /**
     * Sparse multiplication by an element with Fq2 coefficients
     * (c0 + c1 v) + (c4 v) w — the shape produced by Miller-loop line
     * evaluations on an M-twist curve.
     */
    Fq12
    mul_by_014(const Fq2 &d0, const Fq2 &d1, const Fq2 &d4) const
    {
        Fq6 aa = c0.mul_by_01(d0, d1);
        Fq6 bb = c1.mul_by_1(d4);
        Fq2 o = d1 + d4;
        Fq6 new_c1 = (c0 + c1).mul_by_01(d0, o) - aa - bb;
        Fq6 new_c0 = bb.mul_by_nonresidue() + aa;
        return {new_c0, new_c1};
    }

    /** Conjugation c0 - c1 w; equals x^{q^6} (the "unitary inverse"). */
    Fq12 conjugate() const { return {c0, -c1}; }

    /**
     * The q-power Frobenius x -> x^q: conjugate every Fq2 coefficient of
     * w^k and scale it by gamma_k. 5 Fq2 muls.
     */
    Fq12
    frobenius() const
    {
        const auto &g = fq12_frobenius_coeffs();
        // c0 = a0 + a1 w^2 + a2 w^4 and c1 = b0 w + b1 w^3 + b2 w^5.
        return {Fq6(c0.c0.conjugate(), c0.c1.conjugate() * g[2],
                    c0.c2.conjugate() * g[4]),
                Fq6(c1.c0.conjugate() * g[1], c1.c1.conjugate() * g[3],
                    c1.c2.conjugate() * g[5])};
    }

    Fq12
    inverse() const
    {
        Fq6 t = (c0.square() - c1.square().mul_by_nonresidue()).inverse();
        return {c0 * t, -(c1 * t)};
    }

    template <size_t N>
    Fq12
    pow(const ff::BigInt<N> &e) const
    {
        Fq12 r = one();
        for (size_t i = e.num_bits(); i-- > 0;) {
            r = r.square();
            if (e.bit(i)) r = r * *this;
        }
        return r;
    }
};

}  // namespace zkspeed::curve
