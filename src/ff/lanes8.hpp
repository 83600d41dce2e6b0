/**
 * @file
 * Eight independent Fq Montgomery multiplies at a time: the lane
 * kernels under curve::AffineBatch (DESIGN.md §12).
 *
 * A lane set holds eight Fq values, one per lane. Two kernels give the
 * same bits for every lane:
 *  - IfmaLanes (x86-64 with AVX-512F and AVX-512 IFMA) holds a value as
 *    eight 52-bit limbs, limb i of all eight lanes in one 512-bit
 *    register, and multiplies with VPMADD52LUQ / VPMADD52HUQ, radix
 *    2^52 after Gueron–Krasnov ("Accelerating Big Integer Arithmetic
 *    Using Intel IFMA Extensions", ARITH 2016). The Montgomery
 *    reduction runs seven 52-bit rounds and one 20-bit round
 *    (384 = 7 * 52 + 20), so a lane returns a * b * 2^-384 mod p fully
 *    reduced: exactly Fq::operator*.
 *  - PortableLanes runs each lane through Fq::operator*. It is the
 *    fallback where the CPU lacks IFMA and the oracle the tests hold
 *    the IFMA kernel to.
 *
 * The 6 x 64 <-> 8 x 52 repacking happens in registers: a load gathers
 * limb i of eight values into one register and re-cuts the six
 * registers into eight; a store does the reverse. A lane set lives only
 * in registers and on the stack, never in a per-batch buffer.
 *
 * Both kernels count a multiply once per real lane, so a partial set
 * (a batch's tail) counts its live lanes only and Fq-mul totals do not
 * depend on the kernel. The kernel is chosen once per process from
 * CPUID and XCR0; there is no option or environment switch.
 */
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "ff/fq.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <cpuid.h>
#include <immintrin.h>
#define ZKSPEED_IFMA_KERNEL 1
/** Code generation for the IFMA kernel: only functions carrying it may
 * touch 512-bit registers; the rest of the build keeps its flags. */
#define ZKSPEED_IFMA_TARGET __attribute__((target("avx512f,avx512ifma")))
#else
#define ZKSPEED_IFMA_KERNEL 0
#endif

namespace zkspeed::ff {

/** Values per lane set. */
inline constexpr unsigned kLanes = 8;

namespace detail {

/**
 * True when this build carries the IFMA kernel, the CPU has AVX-512F
 * and AVX-512 IFMA (CPUID leaf 7, EBX bits 16 and 21), and the OS saves
 * the opmask and ZMM state (XCR0 bits 1, 2, 5, 6 and 7).
 */
inline bool
cpu_has_avx512ifma()
{
#if ZKSPEED_IFMA_KERNEL
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
    if ((ecx & bit_OSXSAVE) == 0) return false;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
    if ((ebx & bit_AVX512F) == 0 || (ebx & bit_AVX512IFMA) == 0) return false;
    uint32_t xcr0_lo = 0, xcr0_hi = 0;
    __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
    constexpr uint32_t kZmmState = 0xe6;
    return (xcr0_lo & kZmmState) == kZmmState;
#else
    return false;
#endif
}

/** The process-wide selection, made once during static
 * initialisation (zero, so portable, for any earlier initialiser). */
inline const bool g_use_ifma_lanes = cpu_has_avx512ifma();

/** Set by PortableLanesScope only. */
inline std::atomic<bool> g_force_portable_lanes{false};

}  // namespace detail

/** The lane kernels. */
enum class LaneKernel { portable8, ifma8 };

/** The kernel lane sets run on right now: the process selection,
 * unless a PortableLanesScope is open. */
inline LaneKernel
lane_kernel()
{
    return detail::g_use_ifma_lanes &&
                   !detail::g_force_portable_lanes.load(
                       std::memory_order_relaxed)
               ? LaneKernel::ifma8
               : LaneKernel::portable8;
}

/** Name of the lane kernel this process selected: "ifma8" or
 * "portable8". The build identity's features list carries it. */
inline const char *
lane_kernel_name()
{
    return detail::cpu_has_avx512ifma() ? "ifma8" : "portable8";
}

/**
 * Runs every lane set in the process on PortableLanes while alive, so
 * tests can hold the two kernels against each other on one CPU. Not
 * for concurrent use with other scopes.
 */
class PortableLanesScope
{
  public:
    PortableLanesScope()
        : saved_(detail::g_force_portable_lanes.exchange(true))
    {}
    ~PortableLanesScope() { detail::g_force_portable_lanes = saved_; }
    PortableLanesScope(const PortableLanesScope &) = delete;
    PortableLanesScope &operator=(const PortableLanesScope &) = delete;

  private:
    bool saved_;
};

/**
 * out[c] = a[c] * b[c] for c < 8 on kernel k, counted as 8 Fq muls:
 * the lane multiply on its own, repacking included (tests and
 * benches). @throws std::logic_error for ifma8 on a CPU without it.
 */
void mul_lanes8(LaneKernel k, Fq *out, const Fq *a, const Fq *b);

/**
 * The portable lane kernel. A load or store names its lanes either as
 * xs[0 .. lanes) or as the field `f` of items[0 .. lanes); lanes at or
 * past `lanes` are zero on load and untouched on store.
 */
struct PortableLanes {
    using V = std::array<Fq, kLanes>;

    static V
    load(const Fq *xs, unsigned lanes)
    {
        V v{};
        for (unsigned c = 0; c < lanes; ++c) v[c] = xs[c];
        return v;
    }

    template <typename T>
    static V
    load(const T *items, Fq T::*f, unsigned lanes)
    {
        V v{};
        for (unsigned c = 0; c < lanes; ++c) v[c] = items[c].*f;
        return v;
    }

    static void
    store(Fq *xs, const V &v, unsigned lanes)
    {
        for (unsigned c = 0; c < lanes; ++c) xs[c] = v[c];
    }

    template <typename T>
    static void
    store(T *items, Fq T::*f, const V &v, unsigned lanes)
    {
        for (unsigned c = 0; c < lanes; ++c) items[c].*f = v[c];
    }

    /** a * b in the first `lanes` lanes (one counted mul each). */
    static V
    mul(const V &a, const V &b, unsigned lanes)
    {
        V r{};
        for (unsigned c = 0; c < lanes; ++c) r[c] = a[c] * b[c];
        return r;
    }

    static V
    sub(const V &a, const V &b)
    {
        V r;
        for (unsigned c = 0; c < kLanes; ++c) r[c] = a[c] - b[c];
        return r;
    }
};

#if ZKSPEED_IFMA_KERNEL

/**
 * The AVX-512 IFMA lane kernel. Its functions carry the IFMA target
 * and inline only into functions that carry it too; call them only
 * where lane_kernel() is ifma8.
 */
struct IfmaLanes {
    /** Eight Fq in Montgomery form (R = 2^384, as Fq), limb i of every
     * lane in l[i], each limb below 2^52. */
    struct V {
        __m512i l[8];
    };

    static constexpr uint64_t kMask52 = (uint64_t(1) << 52) - 1;

    /** p in radix 2^52. */
    static constexpr std::array<uint64_t, 8> kP = [] {
        std::array<uint64_t, 8> out{};
        const auto &p = Fq::kModulus.limbs;
        for (size_t i = 0; i < 8; ++i) {
            const size_t w = 52 * i / 64, s = 52 * i % 64;
            uint64_t v = p[w] >> s;
            if (s > 12 && w + 1 < Fq::kLimbs) v |= p[w + 1] << (64 - s);
            out[i] = v & kMask52;
        }
        return out;
    }();

    /** -p^-1 mod 2^52 (the low 52 bits of Fq's -p^-1 mod 2^64). */
    static constexpr uint64_t kPinv = Fq::kInv & kMask52;

    ZKSPEED_IFMA_TARGET static V
    load(const Fq *xs, unsigned lanes)
    {
        return gather(xs, sizeof(Fq), lanes);
    }

    template <typename T>
    ZKSPEED_IFMA_TARGET static V
    load(const T *items, Fq T::*f, unsigned lanes)
    {
        return gather(&(items->*f), sizeof(T), lanes);
    }

    ZKSPEED_IFMA_TARGET static void
    store(Fq *xs, const V &v, unsigned lanes)
    {
        scatter(xs, sizeof(Fq), v, lanes);
    }

    template <typename T>
    ZKSPEED_IFMA_TARGET static void
    store(T *items, Fq T::*f, const V &v, unsigned lanes)
    {
        scatter(&(items->*f), sizeof(T), v, lanes);
    }

    /** a * b in every lane, counted once per lane below `lanes`. */
    ZKSPEED_IFMA_TARGET static V
    mul(const V &a, const V &b, unsigned lanes)
    {
        modmul_counters().counts[int(CounterTag::fq)] += lanes;
        return mont_mul(a, b);
    }

    /** a - b mod p in every lane. @pre -p <= a - b < p, limbs below
     * 2^52: a, b < p, or a < 2p and b = p (the multiply's last step). */
    ZKSPEED_IFMA_TARGET static V
    sub(const V &a, const V &b)
    {
        // Limb-wise difference with an arithmetic-shift borrow, then
        // p added back (masked) where the difference went negative.
        const __m512i m = _mm512_set1_epi64(kMask52);
        V d;
        __m512i borrow = _mm512_setzero_si512();
#pragma GCC unroll 8
        for (int j = 0; j < 8; ++j) {
            __m512i x = _mm512_add_epi64(_mm512_sub_epi64(a.l[j], b.l[j]),
                                         borrow);
            borrow = sar<52>(x);
            d.l[j] = _mm512_and_si512(x, m);
        }
        const __mmask8 neg =
            _mm512_cmplt_epi64_mask(borrow, _mm512_setzero_si512());
        __m512i carry = _mm512_setzero_si512();
#pragma GCC unroll 8
        for (int j = 0; j < 8; ++j) {
            __m512i x = _mm512_add_epi64(
                _mm512_add_epi64(d.l[j], _mm512_maskz_set1_epi64(neg, kP[j])),
                carry);
            carry = shr<52>(x);
            d.l[j] = _mm512_and_si512(x, m);
        }
        return d;
    }

    /**
     * a * b * 2^-384 mod p per lane, fully reduced. @pre a, b < p.
     *
     * Operand scanning with the reduction interleaved: row i adds
     * a_i * b into the column accumulators t, then round i clears the
     * low 52 bits of column i by adding m * p, m = t_i * (-p^-1) mod
     * 2^52, and carries column i into column i + 1. Round 7 clears only
     * 20 bits, so 7 * 52 + 20 = 384 bits are divided out. A column
     * takes at most 16 products of under 2^52 each plus a carry, far
     * below 2^64. The quotient (a b + M p) / 2^384 with M < 2^384 is
     * below p * p / 2^384 + p < 2p, so one conditional subtraction
     * leaves it fully reduced. Columns 7..14 hold it shifted left by 20
     * bits; column 15 only ever takes zero (a_7, b_7 < 2^17 and the
     * last m < 2^20), so it is never formed.
     */
    ZKSPEED_IFMA_TARGET static V
    mont_mul(const V &a, const V &b)
    {
        const __m512i zero = _mm512_setzero_si512();
        const __m512i m52 = _mm512_set1_epi64(kMask52);
        const __m512i pinv = _mm512_set1_epi64(kPinv);
        __m512i t[16];
#pragma GCC unroll 16
        for (int k = 0; k < 16; ++k) t[k] = zero;
#pragma GCC unroll 8
        for (int i = 0; i < 8; ++i) {
#pragma GCC unroll 8
            for (int j = 0; j < 8; ++j) {
                t[i + j] = _mm512_madd52lo_epu64(t[i + j], a.l[i], b.l[j]);
                if (i + j + 1 < 15) {
                    t[i + j + 1] =
                        _mm512_madd52hi_epu64(t[i + j + 1], a.l[i], b.l[j]);
                }
            }
            __m512i mi = _mm512_madd52lo_epu64(zero, t[i], pinv);
            if (i == 7) {
                mi = _mm512_and_si512(
                    mi, _mm512_set1_epi64((uint64_t(1) << 20) - 1));
            }
#pragma GCC unroll 8
            for (int j = 0; j < 8; ++j) {
                const __m512i pj = _mm512_set1_epi64(kP[j]);
                t[i + j] = _mm512_madd52lo_epu64(t[i + j], mi, pj);
                if (i + j + 1 < 15) {
                    t[i + j + 1] =
                        _mm512_madd52hi_epu64(t[i + j + 1], mi, pj);
                }
            }
            if (i < 7) {
                t[i + 1] = _mm512_add_epi64(t[i + 1], shr<52>(t[i]));
            }
        }
        // Normalise columns 7..14, then shift the 20 cleared bits out.
#pragma GCC unroll 8
        for (int k = 7; k < 14; ++k) {
            t[k + 1] = _mm512_add_epi64(t[k + 1], shr<52>(t[k]));
            t[k] = _mm512_and_si512(t[k], m52);
        }
        V r;
#pragma GCC unroll 8
        for (int j = 0; j < 7; ++j) {
            r.l[j] = _mm512_or_si512(
                shr<20>(t[7 + j]), _mm512_and_si512(shl<32>(t[8 + j]), m52));
        }
        r.l[7] = shr<20>(t[14]);
        V p;
#pragma GCC unroll 8
        for (int j = 0; j < 8; ++j) p.l[j] = _mm512_set1_epi64(kP[j]);
        return sub(r, p);  // r - p, or r itself where that goes negative
    }

  private:
    /** Lane c from the Fq at `first` advanced by c * stride bytes:
     * limb i of the eight lanes in one gather, then re-cut. */
    ZKSPEED_IFMA_TARGET static V
    gather(const Fq *first, size_t stride, unsigned lanes)
    {
        static_assert(sizeof(Fq) == 8 * Fq::kLimbs);
        const __m512i idx = lane_offsets(stride);
        const __mmask8 k = lane_mask(lanes);
        const auto *base = reinterpret_cast<const char *>(first);
        __m512i q[6];
        for (int i = 0; i < 6; ++i) {
            q[i] = _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), k,
                                               idx, base + 8 * i, 1);
        }
        return from_limbs64(q);
    }

    /** The inverse of gather: re-cut, then one scatter per limb. */
    ZKSPEED_IFMA_TARGET static void
    scatter(Fq *first, size_t stride, const V &v, unsigned lanes)
    {
        const __m512i idx = lane_offsets(stride);
        const __mmask8 k = lane_mask(lanes);
        auto *base = reinterpret_cast<char *>(first);
        __m512i q[6];
        to_limbs64(v, q);
        for (int i = 0; i < 6; ++i) {
            _mm512_mask_i64scatter_epi64(base + 8 * i, k, idx, q[i], 1);
        }
    }

    /** Re-cut six 64-bit limbs per lane into eight 52-bit ones. */
    ZKSPEED_IFMA_TARGET static V
    from_limbs64(const __m512i (&q)[6])
    {
        const __m512i m = _mm512_set1_epi64(kMask52);
        V v;
        v.l[0] = _mm512_and_si512(q[0], m);
        v.l[1] = _mm512_and_si512(join<52, 12>(q[0], q[1]), m);
        v.l[2] = _mm512_and_si512(join<40, 24>(q[1], q[2]), m);
        v.l[3] = _mm512_and_si512(join<28, 36>(q[2], q[3]), m);
        v.l[4] = _mm512_and_si512(join<16, 48>(q[3], q[4]), m);
        v.l[5] = _mm512_and_si512(shr<4>(q[4]), m);
        v.l[6] = _mm512_and_si512(join<56, 8>(q[4], q[5]), m);
        v.l[7] = shr<44>(q[5]);
        return v;
    }

    /** The inverse of from_limbs64. */
    ZKSPEED_IFMA_TARGET static void
    to_limbs64(const V &v, __m512i (&q)[6])
    {
        q[0] = _mm512_or_si512(v.l[0], shl<52>(v.l[1]));
        q[1] = join<12, 40>(v.l[1], v.l[2]);
        q[2] = join<24, 28>(v.l[2], v.l[3]);
        q[3] = join<36, 16>(v.l[3], v.l[4]);
        q[4] = _mm512_or_si512(join<48, 4>(v.l[4], v.l[5]),
                               shl<56>(v.l[6]));
        q[5] = join<8, 44>(v.l[6], v.l[7]);
    }

    // Shifts by a constant go through GCC's vector extensions: the
    // _mm512_s*i_epi64 intrinsics of GCC 12 read an uninitialised
    // placeholder that -Wuninitialized reports in every caller.
    using u64x8 = uint64_t __attribute__((vector_size(64)));
    using i64x8 = int64_t __attribute__((vector_size(64)));

    template <int S>
    ZKSPEED_IFMA_TARGET static __m512i
    shr(const __m512i &x)
    {
        return __m512i(u64x8(x) >> S);
    }

    template <int S>
    ZKSPEED_IFMA_TARGET static __m512i
    shl(const __m512i &x)
    {
        return __m512i(u64x8(x) << S);
    }

    /** Arithmetic shift: a borrow of -1 stays -1. */
    template <int S>
    ZKSPEED_IFMA_TARGET static __m512i
    sar(const __m512i &x)
    {
        return __m512i(i64x8(x) >> S);
    }

    /** (lo >> R) | (hi << L) per lane. */
    template <int R, int L>
    ZKSPEED_IFMA_TARGET static __m512i
    join(const __m512i &lo, const __m512i &hi)
    {
        return _mm512_or_si512(shr<R>(lo), shl<L>(hi));
    }

    /** Byte offsets c * stride of lanes c = 0..7. */
    ZKSPEED_IFMA_TARGET static __m512i
    lane_offsets(size_t stride)
    {
        const auto s = static_cast<long long>(stride);
        return _mm512_set_epi64(7 * s, 6 * s, 5 * s, 4 * s, 3 * s, 2 * s,
                                s, 0);
    }

    static __mmask8
    lane_mask(unsigned lanes)
    {
        return lanes >= kLanes ? __mmask8(0xff)
                               : __mmask8((1u << lanes) - 1);
    }
};

#endif  // ZKSPEED_IFMA_KERNEL

}  // namespace zkspeed::ff
