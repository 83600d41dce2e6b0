/**
 * @file
 * Fixed-width little-endian multiprecision integers.
 *
 * BigInt<N> is an N x 64-bit unsigned integer used as the representation
 * layer beneath the Montgomery fields (ff/field.hpp). All operations are
 * constexpr so that Montgomery constants (R, R^2, -p^{-1} mod 2^64) can be
 * derived at compile time from the modulus alone, avoiding hand-transcribed
 * magic constants.
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace zkspeed::ff {

using uint128 = unsigned __int128;

/**
 * Fixed-size little-endian big integer. limbs[0] is the least significant
 * 64-bit word.
 */
template <size_t N>
struct BigInt {
    std::array<uint64_t, N> limbs{};

    constexpr BigInt() = default;

    /** Construct from a single 64-bit value. */
    constexpr explicit BigInt(uint64_t v) { limbs[0] = v; }

    constexpr bool operator==(const BigInt &o) const = default;

    /** @return true iff the value is zero. */
    constexpr bool
    is_zero() const
    {
        for (size_t i = 0; i < N; ++i) {
            if (limbs[i] != 0) return false;
        }
        return true;
    }

    /** @return true iff the value is odd. */
    constexpr bool is_odd() const { return limbs[0] & 1; }

    /** @return bit i (0 = least significant). */
    constexpr bool
    bit(size_t i) const
    {
        return (limbs[i / 64] >> (i % 64)) & 1;
    }

    /** @return the index of the highest set bit plus one (0 for zero). */
    constexpr size_t
    num_bits() const
    {
        for (size_t i = N; i-- > 0;) {
            if (limbs[i] != 0) {
                uint64_t w = limbs[i];
                size_t b = 0;
                while (w != 0) { w >>= 1; ++b; }
                return i * 64 + b;
            }
        }
        return 0;
    }

    /**
     * Three-way comparison.
     * @return -1, 0, or +1 as *this <, ==, > o.
     */
    constexpr int
    cmp(const BigInt &o) const
    {
        for (size_t i = N; i-- > 0;) {
            if (limbs[i] < o.limbs[i]) return -1;
            if (limbs[i] > o.limbs[i]) return 1;
        }
        return 0;
    }

    constexpr bool operator<(const BigInt &o) const { return cmp(o) < 0; }
    constexpr bool operator>=(const BigInt &o) const { return cmp(o) >= 0; }

    /**
     * Add with carry-out.
     * @return the carry bit (0 or 1).
     */
    constexpr uint64_t
    add_assign(const BigInt &o)
    {
        uint64_t carry = 0;
        for (size_t i = 0; i < N; ++i) {
            uint128 s = (uint128)limbs[i] + o.limbs[i] + carry;
            limbs[i] = (uint64_t)s;
            carry = (uint64_t)(s >> 64);
        }
        return carry;
    }

    /**
     * Subtract with borrow-out.
     * @return the borrow bit (0 or 1).
     */
    constexpr uint64_t
    sub_assign(const BigInt &o)
    {
        uint64_t borrow = 0;
        for (size_t i = 0; i < N; ++i) {
            uint128 s = (uint128)limbs[i] - o.limbs[i] - borrow;
            limbs[i] = (uint64_t)s;
            borrow = (uint64_t)(s >> 64) & 1;
        }
        return borrow;
    }

    /** Shift right by one bit. */
    constexpr void
    shr1()
    {
        for (size_t i = 0; i + 1 < N; ++i) {
            limbs[i] = (limbs[i] >> 1) | (limbs[i + 1] << 63);
        }
        limbs[N - 1] >>= 1;
    }

    /** Shift left by one bit (discarding overflow). */
    constexpr void
    shl1()
    {
        for (size_t i = N; i-- > 1;) {
            limbs[i] = (limbs[i] << 1) | (limbs[i - 1] >> 63);
        }
        limbs[0] <<= 1;
    }

    /** Full schoolbook product, returning 2N limbs. */
    constexpr BigInt<2 * N>
    mul_wide(const BigInt &o) const
    {
        BigInt<2 * N> r;
        for (size_t i = 0; i < N; ++i) {
            uint64_t carry = 0;
            for (size_t j = 0; j < N; ++j) {
                uint128 s = (uint128)limbs[i] * o.limbs[j] +
                            r.limbs[i + j] + carry;
                r.limbs[i + j] = (uint64_t)s;
                carry = (uint64_t)(s >> 64);
            }
            r.limbs[i + N] = carry;
        }
        return r;
    }

    /**
     * Parse a hexadecimal string (no 0x prefix required but accepted).
     * Digits beyond the capacity of N limbs are rejected by truncation-free
     * parsing: the caller must supply a value that fits.
     */
    static constexpr BigInt
    from_hex(std::string_view s)
    {
        if (s.size() >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
            s.remove_prefix(2);
        }
        BigInt r;
        size_t nibble = 0;
        for (size_t i = s.size(); i-- > 0;) {
            char c = s[i];
            uint64_t v = 0;
            if (c >= '0' && c <= '9') v = c - '0';
            else if (c >= 'a' && c <= 'f') v = 10 + (c - 'a');
            else if (c >= 'A' && c <= 'F') v = 10 + (c - 'A');
            else continue;  // allow separators like '_'
            if (nibble < N * 16) {
                r.limbs[nibble / 16] |= v << (4 * (nibble % 16));
            }
            ++nibble;
        }
        return r;
    }

    /** Render as a lowercase hexadecimal string with 0x prefix. */
    std::string
    to_hex() const
    {
        static const char digits[] = "0123456789abcdef";
        std::string s = "0x";
        bool started = false;
        for (size_t i = N; i-- > 0;) {
            for (int shift = 60; shift >= 0; shift -= 4) {
                uint64_t v = (limbs[i] >> shift) & 0xf;
                if (v != 0) started = true;
                if (started) s.push_back(digits[v]);
            }
        }
        if (!started) s.push_back('0');
        return s;
    }
};

/**
 * Binary long division: computes q, r with a = q*d + r, 0 <= r < d.
 * O(bits^2); used only for deriving one-time constants (e.g. the pairing
 * final-exponentiation exponent), never on hot paths.
 */
template <size_t N>
constexpr void
divmod(const BigInt<N> &a, const BigInt<N> &d, BigInt<N> &q, BigInt<N> &r)
{
    q = BigInt<N>();
    r = BigInt<N>();
    for (size_t i = a.num_bits(); i-- > 0;) {
        r.shl1();
        if (a.bit(i)) r.limbs[0] |= 1;
        if (r >= d) {
            r.sub_assign(d);
            q.limbs[i / 64] |= uint64_t(1) << (i % 64);
        }
    }
}

/** Widen a BigInt into more limbs. */
template <size_t M, size_t N>
constexpr BigInt<M>
widen(const BigInt<N> &a)
{
    static_assert(M >= N);
    BigInt<M> r;
    for (size_t i = 0; i < N; ++i) r.limbs[i] = a.limbs[i];
    return r;
}

/**
 * Modular addition of values already reduced mod p. At run time on
 * x86-64 the correction is a mask, not a branch on the data: a + b and
 * a + b - p are both formed with carry/borrow chains and one is kept.
 */
template <size_t N>
constexpr BigInt<N>
mod_add(const BigInt<N> &a, const BigInt<N> &b, const BigInt<N> &p)
{
#if defined(__x86_64__)
    if (!std::is_constant_evaluated()) {
        BigInt<N> s, d;
        unsigned char carry = 0, borrow = 0;
        for (size_t i = 0; i < N; ++i) {
            carry = _addcarry_u64(
                carry, a.limbs[i], b.limbs[i],
                reinterpret_cast<unsigned long long *>(&s.limbs[i]));
        }
        for (size_t i = 0; i < N; ++i) {
            borrow = _subborrow_u64(
                borrow, s.limbs[i], p.limbs[i],
                reinterpret_cast<unsigned long long *>(&d.limbs[i]));
        }
        // Keep a + b only when it neither carried out nor reached p.
        const uint64_t keep = uint64_t(0) - uint64_t(borrow & ~carry & 1);
        for (size_t i = 0; i < N; ++i) {
            s.limbs[i] = (s.limbs[i] & keep) | (d.limbs[i] & ~keep);
        }
        return s;
    }
#endif
    BigInt<N> r = a;
    uint64_t carry = r.add_assign(b);
    if (carry || r >= p) r.sub_assign(p);
    return r;
}

/** Modular subtraction of values already reduced mod p; branch-free at
 * run time on x86-64, like mod_add (p is added back under a mask). */
template <size_t N>
constexpr BigInt<N>
mod_sub(const BigInt<N> &a, const BigInt<N> &b, const BigInt<N> &p)
{
#if defined(__x86_64__)
    if (!std::is_constant_evaluated()) {
        BigInt<N> d;
        unsigned char borrow = 0, carry = 0;
        for (size_t i = 0; i < N; ++i) {
            borrow = _subborrow_u64(
                borrow, a.limbs[i], b.limbs[i],
                reinterpret_cast<unsigned long long *>(&d.limbs[i]));
        }
        const uint64_t mask = uint64_t(0) - uint64_t(borrow);
        for (size_t i = 0; i < N; ++i) {
            carry = _addcarry_u64(
                carry, d.limbs[i], p.limbs[i] & mask,
                reinterpret_cast<unsigned long long *>(&d.limbs[i]));
        }
        return d;
    }
#endif
    BigInt<N> r = a;
    if (r.sub_assign(b)) r.add_assign(p);
    return r;
}

/** Compute 2^bits mod p by repeated modular doubling (constexpr-safe). */
template <size_t N>
constexpr BigInt<N>
pow2_mod(size_t bits, const BigInt<N> &p)
{
    BigInt<N> r(1);
    for (size_t i = 0; i < bits; ++i) r = mod_add(r, r, p);
    return r;
}

/** Compute -p^{-1} mod 2^64 via Newton iteration (p must be odd). */
constexpr uint64_t
neg_inv64(uint64_t p0)
{
    uint64_t x = 1;
    for (int i = 0; i < 6; ++i) x *= 2 - p0 * x;  // x = p0^{-1} mod 2^64
    return ~x + 1;                                // -x
}

}  // namespace zkspeed::ff
