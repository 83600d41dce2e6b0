/**
 * @file
 * x86-64 MULX/ADCX/ADOX Montgomery multiply for the 4-limb Fr and the
 * 6-limb Fq (DESIGN.md §12).
 *
 * The kernel is the "no-carry" CIOS of Botrel–Gutoski (gnark-crypto,
 * 2020) on Intel's dual carry chains (Gopal et al., "New Instructions
 * Supporting Large Integer Arithmetic on Intel Architecture
 * Processors", 2012): MULX multiplies without touching the flags, so
 * the low halves of a row of products ride the OF chain (ADOX) while
 * the high halves ride the CF chain (ADCX), and the accumulator row
 * stays in N registers. When the top limb of p is below 2^63 - 1, the
 * running total fits N limbs after every outer step, so no carry word
 * is kept. That needs both operands below p; Fp guarantees it because
 * every raw-limb entry reduces first (Fp::from_repr).
 *
 * The kernel is chosen once per process by CPUID (BMI2 for MULX, ADX
 * for ADCX/ADOX); the portable CIOS in field.hpp is the fallback and
 * the oracle the tests check this path against bit for bit.
 */
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && defined(__GNUC__)
#include <cpuid.h>
#define ZKSPEED_MULX_ADX_KERNEL 1
#else
#define ZKSPEED_MULX_ADX_KERNEL 0
#endif

namespace zkspeed::ff {

namespace detail {

/** True when this build carries the MULX/ADX kernel and the CPU has
 * both BMI2 and ADX (CPUID leaf 7, EBX bits 8 and 19). */
inline bool
cpu_has_mulx_adx()
{
#if ZKSPEED_MULX_ADX_KERNEL
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
    return (ebx & bit_BMI2) != 0 && (ebx & bit_ADX) != 0;
#else
    return false;
#endif
}

/** The process-wide selection, made once during static
 * initialisation. It is zero-initialised before that, so a multiply
 * run by an earlier initialiser takes the portable path, which gives
 * the same bits. */
inline const bool g_use_mulx_adx = cpu_has_mulx_adx();

#if ZKSPEED_MULX_ADX_KERNEL

// One asm line per step. Operand names: t0..t5 the accumulator row, A
// the word above it, lo/hi one product, a/b the operands, p the
// modulus limbs followed by -p^{-1} mod 2^64; rdx feeds MULX.
#define ZK_LINE(s) s "\n\t"

/** t := a[0] * b. First limb: t is zero, so only the CF chain runs. */
#define ZK_ROW0_FIRST ZK_LINE("movq 0(%[a]), %%rdx")                    \
    ZK_LINE("xorl %k[A], %k[A]")                                        \
    ZK_LINE("mulxq 0(%[b]), %[t0], %[t1]")
#define ZK_ROW0(off, tj, tj1) ZK_LINE("mulxq " #off "(%[b]), %[lo], %[" #tj1 "]") \
    ZK_LINE("adcxq %[lo], %[" #tj "]")
#define ZK_ROW0_LAST(off, tl) ZK_LINE("mulxq " #off "(%[b]), %[lo], %[A]") \
    ZK_LINE("adcxq %[lo], %[" #tl "]")                                  \
    ZK_LINE("movl $0, %k[lo]")                                          \
    ZK_LINE("adcxq %[lo], %[A]")

/** (A, t) += a[i] * b: low halves on OF, high halves on CF. */
#define ZK_ROW_FIRST(aoff) ZK_LINE("movq " #aoff "(%[a]), %%rdx")       \
    ZK_LINE("xorl %k[A], %k[A]")
#define ZK_ROW(off, tj, tj1) ZK_LINE("mulxq " #off "(%[b]), %[lo], %[hi]") \
    ZK_LINE("adoxq %[lo], %[" #tj "]")                                  \
    ZK_LINE("adcxq %[hi], %[" #tj1 "]")
#define ZK_ROW_LAST(off, tl) ZK_LINE("mulxq " #off "(%[b]), %[lo], %[A]") \
    ZK_LINE("adoxq %[lo], %[" #tl "]")                                  \
    ZK_LINE("movl $0, %k[lo]")                                          \
    ZK_LINE("adcxq %[lo], %[A]")                                        \
    ZK_LINE("adoxq %[lo], %[A]")

/** t := (t + m p) / 2^64 with m = t0 * (-p^{-1}); the top limb takes A. */
#define ZK_REDUCE_FIRST(invoff) ZK_LINE("movq %[t0], %%rdx")           \
    ZK_LINE("imulq " #invoff "(%[p]), %%rdx")                           \
    ZK_LINE("xorl %k[lo], %k[lo]")                                      \
    ZK_LINE("mulxq 0(%[p]), %[lo], %[hi]")                              \
    ZK_LINE("adcxq %[t0], %[lo]")
#define ZK_REDUCE(off, tprev, tcur) ZK_LINE("movq %[hi], %[" #tprev "]") \
    ZK_LINE("adcxq %[" #tcur "], %[" #tprev "]")                        \
    ZK_LINE("mulxq " #off "(%[p]), %[lo], %[hi]")                       \
    ZK_LINE("adoxq %[lo], %[" #tprev "]")
#define ZK_REDUCE_LAST(tl) ZK_LINE("movq %[hi], %[" #tl "]")            \
    ZK_LINE("movl $0, %k[lo]")                                          \
    ZK_LINE("adcxq %[lo], %[" #tl "]")                                  \
    ZK_LINE("adoxq %[A], %[" #tl "]")

/** t := t - p when t >= p, branch-free (scratch s, then CMOVNC). */
#define ZK_SUB_FIRST(s, tj) ZK_LINE("movq %[" #tj "], " s)               \
    ZK_LINE("subq 0(%[p]), " s)
#define ZK_SUB(off, s, tj) ZK_LINE("movq %[" #tj "], " s)                \
    ZK_LINE("sbbq " #off "(%[p]), " s)
#define ZK_PICK(s, tj) ZK_LINE("cmovncq " s ", %[" #tj "]")

// The asm reads a, b and p through the pointer registers. Optimised
// builds tell the compiler exactly which memory that is; an -O0 build
// has no registers to spare for those operands' addresses, so it
// declares a memory clobber instead.
#if defined(__OPTIMIZE__)
#define ZK_MEM_IN , "m"(*(Limbs)a), "m"(*(Limbs)b), "m"(*(Consts)p)
#define ZK_CLOBBERS "cc"
#else
#define ZK_MEM_IN
#define ZK_CLOBBERS "cc", "memory"
#endif

/**
 * out := a * b * 2^{-64N} mod p for N = 4 or 6.
 * @pre a, b < p; `p` holds the N modulus limbs then -p^{-1} mod 2^64.
 */
template <size_t N>
inline void
mont_mul_mulx_adx(uint64_t *out, const uint64_t *a, const uint64_t *b,
                  const uint64_t *p)
{
    static_assert(N == 4 || N == 6, "MULX/ADX kernel covers Fr and Fq");
    using Limbs = const uint64_t(*)[N];
    using Consts = const uint64_t(*)[N + 1];
    uint64_t t0, t1, t2, t3, A, lo, hi, rdx;
    if constexpr (N == 4) {
#define ZK_ROUND4(aoff)                                                 \
    ZK_ROW_FIRST(aoff) ZK_ROW(0, t0, t1) ZK_ROW(8, t1, t2)              \
    ZK_ROW(16, t2, t3) ZK_ROW_LAST(24, t3)
#define ZK_REDUCE4                                                      \
    ZK_REDUCE_FIRST(32) ZK_REDUCE(8, t0, t1) ZK_REDUCE(16, t1, t2)      \
    ZK_REDUCE(24, t2, t3) ZK_REDUCE_LAST(t3)
        __asm__(ZK_ROW0_FIRST ZK_ROW0(8, t1, t2) ZK_ROW0(16, t2, t3)
                ZK_ROW0_LAST(24, t3) ZK_REDUCE4
                ZK_ROUND4(8) ZK_REDUCE4
                ZK_ROUND4(16) ZK_REDUCE4
                ZK_ROUND4(24) ZK_REDUCE4
                ZK_SUB_FIRST("%[A]", t0) ZK_SUB(8, "%[lo]", t1)
                ZK_SUB(16, "%[hi]", t2) ZK_SUB(24, "%%rdx", t3)
                ZK_PICK("%[A]", t0) ZK_PICK("%[lo]", t1)
                ZK_PICK("%[hi]", t2) ZK_PICK("%%rdx", t3)
                : [t0] "=&r"(t0), [t1] "=&r"(t1), [t2] "=&r"(t2),
                  [t3] "=&r"(t3), [A] "=&r"(A), [lo] "=&r"(lo),
                  [hi] "=&r"(hi), "=&d"(rdx)
                : [a] "r"(a), [b] "r"(b), [p] "r"(p) ZK_MEM_IN
                : ZK_CLOBBERS);
#undef ZK_ROUND4
#undef ZK_REDUCE4
        out[0] = t0, out[1] = t1, out[2] = t2, out[3] = t3;
    } else {
        uint64_t t4, t5;
#define ZK_ROUND6(aoff)                                                 \
    ZK_ROW_FIRST(aoff) ZK_ROW(0, t0, t1) ZK_ROW(8, t1, t2)              \
    ZK_ROW(16, t2, t3) ZK_ROW(24, t3, t4) ZK_ROW(32, t4, t5)            \
    ZK_ROW_LAST(40, t5)
#define ZK_REDUCE6                                                      \
    ZK_REDUCE_FIRST(48) ZK_REDUCE(8, t0, t1) ZK_REDUCE(16, t1, t2)      \
    ZK_REDUCE(24, t2, t3) ZK_REDUCE(32, t3, t4) ZK_REDUCE(40, t4, t5)   \
    ZK_REDUCE_LAST(t5)
        // a and b are dead after the last row, so the final
        // subtraction borrows their registers as scratch.
        __asm__(ZK_ROW0_FIRST ZK_ROW0(8, t1, t2) ZK_ROW0(16, t2, t3)
                ZK_ROW0(24, t3, t4) ZK_ROW0(32, t4, t5)
                ZK_ROW0_LAST(40, t5) ZK_REDUCE6
                ZK_ROUND6(8) ZK_REDUCE6
                ZK_ROUND6(16) ZK_REDUCE6
                ZK_ROUND6(24) ZK_REDUCE6
                ZK_ROUND6(32) ZK_REDUCE6
                ZK_ROUND6(40) ZK_REDUCE6
                ZK_SUB_FIRST("%[A]", t0) ZK_SUB(8, "%[lo]", t1)
                ZK_SUB(16, "%[hi]", t2) ZK_SUB(24, "%%rdx", t3)
                ZK_SUB(32, "%[a]", t4) ZK_SUB(40, "%[b]", t5)
                ZK_PICK("%[A]", t0) ZK_PICK("%[lo]", t1)
                ZK_PICK("%[hi]", t2) ZK_PICK("%%rdx", t3)
                ZK_PICK("%[a]", t4) ZK_PICK("%[b]", t5)
                : [t0] "=&r"(t0), [t1] "=&r"(t1), [t2] "=&r"(t2),
                  [t3] "=&r"(t3), [t4] "=&r"(t4), [t5] "=&r"(t5),
                  [A] "=&r"(A), [lo] "=&r"(lo), [hi] "=&r"(hi),
                  "=&d"(rdx), [a] "+r"(a), [b] "+r"(b)
                : [p] "r"(p) ZK_MEM_IN
                : ZK_CLOBBERS);
#undef ZK_ROUND6
#undef ZK_REDUCE6
        out[0] = t0, out[1] = t1, out[2] = t2;
        out[3] = t3, out[4] = t4, out[5] = t5;
    }
}

#undef ZK_LINE
#undef ZK_ROW0_FIRST
#undef ZK_ROW0
#undef ZK_ROW0_LAST
#undef ZK_ROW_FIRST
#undef ZK_ROW
#undef ZK_ROW_LAST
#undef ZK_REDUCE_FIRST
#undef ZK_REDUCE
#undef ZK_REDUCE_LAST
#undef ZK_SUB_FIRST
#undef ZK_SUB
#undef ZK_PICK
#undef ZK_MEM_IN
#undef ZK_CLOBBERS

#endif  // ZKSPEED_MULX_ADX_KERNEL

}  // namespace detail

/** Name of the Montgomery multiply this process selected: "mulx-adx"
 * or "portable". The build identity's features list carries it. */
inline const char *
mont_mul_kernel()
{
    return detail::cpu_has_mulx_adx() ? "mulx-adx" : "portable";
}

}  // namespace zkspeed::ff
