/**
 * @file
 * Generic prime field in Montgomery representation.
 *
 * Fp<Params> stores elements as a*R mod p (R = 2^{64N}) and multiplies with
 * the CIOS (coarsely integrated operand scanning) Montgomery algorithm:
 * an x86-64 MULX/ADX kernel where CPUID has it (mont_adx.hpp), else a
 * portable unrolled form that gives the same bits. All
 * Montgomery constants are derived constexpr from Params::modulus() by
 * bigint.hpp helpers, so a field is fully specified by its modulus, bit
 * width and a generator (see fr.hpp / fq.hpp).
 *
 * The two instantiations used by the library are the BLS12-381 scalar field
 * (255 bits, 4 limbs) and base field (381 bits, 6 limbs), matching the MLE
 * and elliptic-curve datatypes of the paper (Section 4).
 */
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <utility>

#include "ff/bigint.hpp"
#include "ff/counters.hpp"
#include "ff/mont_adx.hpp"

namespace zkspeed::ff {

namespace detail {

/** Invoke f(integral_constant<size_t, 0>) ... f(<N-1>) in order: a
 * guaranteed compile-time unroll for the CIOS limb loops, so the 4-limb
 * Fr and 6-limb Fq multipliers specialise with constant limb indices
 * and keep the accumulator row in registers. */
template <size_t N, typename F>
inline void
unroll(F &&f)
{
    [&]<size_t... Is>(std::index_sequence<Is...>) {
        (f(std::integral_constant<size_t, Is>{}), ...);
    }(std::make_index_sequence<N>{});
}

}  // namespace detail

/**
 * Prime field element in Montgomery form.
 *
 * @tparam Params policy type providing:
 *   - static constexpr size_t kLimbs
 *   - static constexpr size_t kBits (modulus bit width)
 *   - static constexpr BigInt<kLimbs> modulus()
 *   - static constexpr uint64_t kGeneratorSeed (small multiplicative gen.)
 *   - static constexpr CounterTag kCounterTag
 */
template <typename Params>
class Fp
{
  public:
    static constexpr size_t kLimbs = Params::kLimbs;
    static constexpr size_t kBits = Params::kBits;
    /** Canonical serialized size in bytes (little-endian). */
    static constexpr size_t kByteSize = kLimbs * 8;
    using Repr = BigInt<kLimbs>;

    static constexpr Repr kModulus = Params::modulus();
    /** R mod p where R = 2^{64*kLimbs}. This is the Montgomery form of 1. */
    static constexpr Repr kR = pow2_mod(64 * kLimbs, kModulus);
    /** R^2 mod p, used to convert into Montgomery form. */
    static constexpr Repr kR2 = pow2_mod(128 * kLimbs, kModulus);
    /** -p^{-1} mod 2^64 for the REDC step. */
    static constexpr uint64_t kInv = neg_inv64(kModulus.limbs[0]);
    /** The modulus limbs followed by kInv: the MULX/ADX kernel's
     * constants, read through one pointer. */
    static constexpr std::array<uint64_t, kLimbs + 1> kRedc = [] {
        std::array<uint64_t, kLimbs + 1> c{};
        for (size_t i = 0; i < kLimbs; ++i) c[i] = kModulus.limbs[i];
        c[kLimbs] = kInv;
        return c;
    }();

    constexpr Fp() = default;

    /** @return the additive identity. */
    static constexpr Fp zero() { return Fp(); }

    /** @return the multiplicative identity (R mod p). */
    static constexpr Fp
    one()
    {
        Fp r;
        r.repr_ = kR;
        return r;
    }

    /** Construct from a small unsigned integer. */
    static Fp
    from_uint(uint64_t v)
    {
        return from_repr(Repr(v));
    }

    /** Construct from a (non-Montgomery) representation; v >= p is
     * reduced first. This is the one entry for raw limbs, so every
     * operand that reaches mont_mul is below p. */
    static Fp
    from_repr(Repr v)
    {
        while (v >= kModulus) v.sub_assign(kModulus);  // <= 9 rounds
        Fp r;
        r.repr_ = mont_mul(v, kR2);  // v * R^2 * R^{-1} = v*R
        return r;
    }

    /** Construct from a hexadecimal string of the canonical value. */
    static Fp
    from_hex(std::string_view s)
    {
        return from_repr(Repr::from_hex(s));
    }

    /** @return the canonical (non-Montgomery) representation in [0, p). */
    Repr
    to_repr() const
    {
        return mont_mul(repr_, Repr(1));  // a*R * 1 * R^{-1} = a
    }

    /** @return the raw Montgomery-form limbs (for hashing/serialization). */
    const Repr &mont_repr() const { return repr_; }

    /** Rebuild from raw Montgomery-form limbs. */
    static Fp
    from_mont_repr(const Repr &r)
    {
        Fp x;
        x.repr_ = r;
        return x;
    }

    std::string to_hex() const { return to_repr().to_hex(); }

    constexpr bool operator==(const Fp &o) const = default;
    bool is_zero() const { return repr_.is_zero(); }
    bool is_one() const { return repr_ == kR; }

    Fp
    operator+(const Fp &o) const
    {
        Fp r;
        r.repr_ = mod_add(repr_, o.repr_, kModulus);
        return r;
    }

    Fp
    operator-(const Fp &o) const
    {
        Fp r;
        r.repr_ = mod_sub(repr_, o.repr_, kModulus);
        return r;
    }

    Fp
    operator-() const
    {
        Fp r;
        if (!repr_.is_zero()) {
            r.repr_ = kModulus;
            r.repr_.sub_assign(repr_);
        }
        return r;
    }

    Fp
    operator*(const Fp &o) const
    {
        Fp r;
        r.repr_ = mont_mul(repr_, o.repr_);
        ++modmul_counters().counts[(int)Params::kCounterTag];
        return r;
    }

    Fp &operator+=(const Fp &o) { return *this = *this + o; }
    Fp &operator-=(const Fp &o) { return *this = *this - o; }
    Fp &operator*=(const Fp &o) { return *this = *this * o; }

    /** Modular squaring (counted as one modmul). */
    Fp square() const { return *this * *this; }

    /** In-place doubling. */
    Fp
    dbl() const
    {
        Fp r;
        r.repr_ = mod_add(repr_, repr_, kModulus);
        return r;
    }

    /**
     * Exponentiation by a canonical big integer (square-and-multiply,
     * MSB first).
     */
    template <size_t M>
    Fp
    pow(const BigInt<M> &e) const
    {
        Fp r = one();
        size_t bits = e.num_bits();
        for (size_t i = bits; i-- > 0;) {
            r = r.square();
            if (e.bit(i)) r = r * *this;
        }
        return r;
    }

    Fp
    pow(uint64_t e) const
    {
        return pow(BigInt<1>(e));
    }

    /**
     * Multiplicative inverse via Fermat's little theorem (a^{p-2}).
     * @pre *this != 0. Returns 0 for 0 (projective-code convenience).
     */
    Fp
    inverse() const
    {
        ++modmul_counters().inversions[(int)Params::kCounterTag];
        Repr pm2 = kModulus;
        pm2.sub_assign(Repr(2));
        return pow(pm2);
    }

    /** Draw a uniformly random field element. */
    template <typename Rng>
    static Fp
    random(Rng &rng)
    {
        std::uniform_int_distribution<uint64_t> dist;
        for (;;) {
            Repr r;
            for (size_t i = 0; i < kLimbs; ++i) r.limbs[i] = dist(rng);
            // Mask excess top bits to make rejection cheap.
            size_t excess = 64 * kLimbs - kBits;
            if (excess > 0) r.limbs[kLimbs - 1] >>= excess;
            if (r < kModulus) {
                Fp x;
                x.repr_ = mont_mul(r, kR2);
                return x;
            }
        }
    }

    /** Serialize canonical form, little-endian, kByteSize bytes. */
    void
    to_bytes(uint8_t *out) const
    {
        Repr r = to_repr();
        for (size_t i = 0; i < kLimbs; ++i) {
            for (size_t b = 0; b < 8; ++b) {
                out[i * 8 + b] = (uint8_t)(r.limbs[i] >> (8 * b));
            }
        }
    }

    /**
     * Deserialize a little-endian byte string; the value is reduced mod p
     * (used for hash-to-field in the transcript).
     */
    static Fp
    from_bytes_reduce(const uint8_t *in, size_t len)
    {
        // Horner over 64-bit words with Montgomery-domain arithmetic.
        Fp acc = zero();
        Fp shift = from_repr(pow2_mod(64, kModulus));
        size_t words = (len + 7) / 8;
        for (size_t i = words; i-- > 0;) {
            uint64_t w = 0;
            for (size_t b = 0; b < 8 && i * 8 + b < len; ++b) {
                w |= (uint64_t)in[i * 8 + b] << (8 * b);
            }
            acc = acc * shift + from_uint(w);
        }
        return acc;
    }

  private:
    /**
     * Montgomery multiplication a*b*R^{-1} mod p on the kernel this
     * process selected: MULX/ADX where CPUID has both (4- and 6-limb
     * fields), else the portable CIOS. Both give the same bits for
     * a, b < p. Uncounted; operator* counts.
     */
    static Repr
    mont_mul(const Repr &a, const Repr &b)
    {
#if ZKSPEED_MULX_ADX_KERNEL
        if constexpr (kLimbs == 4 || kLimbs == 6) {
            if (detail::g_use_mulx_adx) return mont_mul_mulx_adx(a, b);
        }
#endif
        return mont_mul_portable(a, b);
    }

  public:
#if ZKSPEED_MULX_ADX_KERNEL
    /** The MULX/ADX kernel (mont_adx.hpp). @pre a, b < p and the CPU
     * has BMI2 and ADX. */
    static Repr
    mont_mul_mulx_adx(const Repr &a, const Repr &b)
    {
        // The no-carry form needs a spare top bit in p.
        static_assert(kModulus.limbs[kLimbs - 1] < (uint64_t(1) << 63) - 1);
        Repr r;
        detail::mont_mul_mulx_adx<kLimbs>(r.limbs.data(), a.limbs.data(),
                                          b.limbs.data(), kRedc.data());
        return r;
    }
#endif

    /**
     * Portable CIOS Montgomery multiplication: the fallback, and the
     * oracle the MULX/ADX kernel is tested against. Correct for any
     * a < R and b < p.
     *
     * Both limb loops are unrolled at compile time (detail::unroll) and
     * the multiply and REDC passes are fused per outer limb, so each
     * instantiation (4-limb Fr, 6-limb Fq) compiles to a straight-line
     * chain of 64x64->128 multiplies with the accumulator row held in
     * registers: t[j] + a_i*b[j] + m_i*p[j] with two carry chains, where
     * m_i = (t[0] + a_i*b[0]) * (-p^{-1}) mod 2^64.
     */
    static Repr
    mont_mul_portable(const Repr &a, const Repr &b)
    {
        constexpr size_t n = kLimbs;
        uint64_t t[n + 1] = {0};
        detail::unroll<n>([&](auto i) {
            const uint64_t a_i = a.limbs[i];
            // m is derived from t[0] after adding a_i*b[0]; the fused
            // pass then guarantees the low limb reduces to zero.
            uint128 s0 = (uint128)a_i * b.limbs[0] + t[0];
            const uint64_t m = (uint64_t)s0 * kInv;
            uint128 r0 = (uint128)m * kModulus.limbs[0] + (uint64_t)s0;
            uint64_t carry_ab = (uint64_t)(s0 >> 64);
            uint64_t carry_mp = (uint64_t)(r0 >> 64);
            detail::unroll<n - 1>([&](auto jm) {
                constexpr size_t j = jm + 1;
                uint128 s = (uint128)a_i * b.limbs[j] + t[j] + carry_ab;
                carry_ab = (uint64_t)(s >> 64);
                uint128 r = (uint128)m * kModulus.limbs[j] + (uint64_t)s +
                            carry_mp;
                t[j - 1] = (uint64_t)r;
                carry_mp = (uint64_t)(r >> 64);
            });
            uint128 top = (uint128)t[n] + carry_ab + carry_mp;
            t[n - 1] = (uint64_t)top;
            t[n] = (uint64_t)(top >> 64);
        });
        Repr r;
        detail::unroll<n>([&](auto i) { r.limbs[i] = t[i]; });
        if (t[n] != 0 || r >= kModulus) r.sub_assign(kModulus);
        return r;
    }

  private:
    Repr repr_{};
};

}  // namespace zkspeed::ff
