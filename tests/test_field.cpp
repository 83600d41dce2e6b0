/**
 * @file
 * Unit and property tests for the Montgomery prime fields Fr and Fq.
 */
#include <gtest/gtest.h>

#include <random>

#include "ff/batch_inverse.hpp"
#include "ff/fq.hpp"
#include "ff/fr.hpp"
#include "ff/lanes8.hpp"

namespace {

using zkspeed::ff::Fq;
using zkspeed::ff::Fr;

template <typename F>
class FieldTest : public ::testing::Test
{
};

using FieldTypes = ::testing::Types<Fr, Fq>;
TYPED_TEST_SUITE(FieldTest, FieldTypes);

TYPED_TEST(FieldTest, MontgomeryConstants)
{
    using F = TypeParam;
    // R and R^2 must be properly reduced.
    EXPECT_TRUE(F::kR < F::kModulus);
    EXPECT_TRUE(F::kR2 < F::kModulus);
    // kInv * p == -1 mod 2^64.
    EXPECT_EQ(F::kInv * F::kModulus.limbs[0], ~0ull);
    // Modulus bit width matches the declared field size.
    EXPECT_EQ(F::kModulus.num_bits(), F::kBits);
}

TYPED_TEST(FieldTest, IdentityAndReprRoundTrip)
{
    using F = TypeParam;
    EXPECT_TRUE(F::zero().is_zero());
    EXPECT_TRUE(F::one().is_one());
    EXPECT_EQ(F::from_uint(0), F::zero());
    EXPECT_EQ(F::from_uint(1), F::one());
    EXPECT_EQ(F::from_uint(12345).to_repr().limbs[0], 12345u);

    std::mt19937_64 rng(1);
    for (int i = 0; i < 50; ++i) {
        F x = F::random(rng);
        EXPECT_EQ(F::from_repr(x.to_repr()), x);
    }
}

TYPED_TEST(FieldTest, FieldAxioms)
{
    using F = TypeParam;
    std::mt19937_64 rng(2);
    for (int i = 0; i < 50; ++i) {
        F a = F::random(rng), b = F::random(rng), c = F::random(rng);
        EXPECT_EQ(a + b, b + a);
        EXPECT_EQ(a * b, b * a);
        EXPECT_EQ((a + b) + c, a + (b + c));
        EXPECT_EQ((a * b) * c, a * (b * c));
        EXPECT_EQ(a * (b + c), a * b + a * c);
        EXPECT_EQ(a + F::zero(), a);
        EXPECT_EQ(a * F::one(), a);
        EXPECT_EQ(a - a, F::zero());
        EXPECT_EQ(a + (-a), F::zero());
        EXPECT_EQ(a.dbl(), a + a);
        EXPECT_EQ(a.square(), a * a);
    }
}

TYPED_TEST(FieldTest, SmallIntegerArithmeticMatches)
{
    using F = TypeParam;
    // 123 * 456 = 56088, 1000 - 1 = 999 etc., checked through Montgomery.
    EXPECT_EQ(F::from_uint(123) * F::from_uint(456), F::from_uint(56088));
    EXPECT_EQ(F::from_uint(1000) - F::from_uint(1), F::from_uint(999));
    EXPECT_EQ(F::from_uint(7).pow(uint64_t(13)),
              F::from_uint(96889010407ull));  // 7^13
}

TYPED_TEST(FieldTest, InverseFermat)
{
    using F = TypeParam;
    std::mt19937_64 rng(3);
    for (int i = 0; i < 25; ++i) {
        F a = F::random(rng);
        if (a.is_zero()) continue;
        F inv = a.inverse();
        EXPECT_EQ(a * inv, F::one());
    }
    EXPECT_TRUE(F::zero().inverse().is_zero());
    EXPECT_EQ(F::one().inverse(), F::one());
}

TYPED_TEST(FieldTest, NegationEdgeCases)
{
    using F = TypeParam;
    EXPECT_EQ(-F::zero(), F::zero());
    F pm1 = F::zero() - F::one();  // p - 1
    EXPECT_EQ(pm1 * pm1, F::one());
    EXPECT_EQ(pm1 + F::one(), F::zero());
}

TYPED_TEST(FieldTest, PowLaws)
{
    using F = TypeParam;
    std::mt19937_64 rng(4);
    F a = F::random(rng);
    EXPECT_EQ(a.pow(uint64_t(0)), F::one());
    EXPECT_EQ(a.pow(uint64_t(1)), a);
    EXPECT_EQ(a.pow(uint64_t(5)) * a.pow(uint64_t(7)), a.pow(uint64_t(12)));
    // Fermat: a^p == a.
    EXPECT_EQ(a.pow(F::kModulus), a);
}

TYPED_TEST(FieldTest, BytesRoundTripAndReduce)
{
    using F = TypeParam;
    std::mt19937_64 rng(5);
    for (int i = 0; i < 20; ++i) {
        F x = F::random(rng);
        uint8_t buf[F::kByteSize];
        x.to_bytes(buf);
        EXPECT_EQ(F::from_bytes_reduce(buf, sizeof(buf)), x);
    }
    // Reduction of an over-size value: 2^{8*len} style inputs.
    std::array<uint8_t, 64> big;
    big.fill(0xff);
    F v = F::from_bytes_reduce(big.data(), big.size());
    // Value must be consistent with Horner evaluation: spot check via sum.
    F expect = F::zero();
    F base = F::from_uint(256);
    F pw = F::one();
    for (size_t i = 0; i < big.size(); ++i) {
        expect += F::from_uint(big[i]) * pw;
        pw *= base;
    }
    EXPECT_EQ(v, expect);
}

TYPED_TEST(FieldTest, BatchInverse)
{
    using F = TypeParam;
    std::mt19937_64 rng(6);
    for (size_t n : {0u, 1u, 2u, 7u, 64u, 255u}) {
        std::vector<F> xs(n), ref(n);
        for (size_t i = 0; i < n; ++i) xs[i] = F::random(rng);
        if (n > 2) xs[n / 2] = F::zero();  // zeros must survive
        ref = xs;
        zkspeed::ff::batch_inverse(xs);
        for (size_t i = 0; i < n; ++i) {
            if (ref[i].is_zero()) {
                EXPECT_TRUE(xs[i].is_zero());
            } else {
                EXPECT_EQ(ref[i] * xs[i], F::one());
            }
        }
    }
}

TYPED_TEST(FieldTest, BatchInverseSkipsZerosAndCostsThreeMulsPerLink)
{
    // Zeros at both ends and in the middle: the chain starts at the
    // first non-zero element, so k non-zero elements cost exactly
    // 3(k-1) muls plus one inversion (whose own muls are measured).
    using F = TypeParam;
    std::mt19937_64 rng(61);
    const F probe = F::random(rng);
    uint64_t inversion_muls;
    {
        zkspeed::ff::ModmulScope scope;
        (void)probe.inverse();
        inversion_muls = scope.total_delta();
    }
    for (size_t k : {1u, 2u, 9u}) {
        std::vector<F> xs = {F::zero(), F::zero()};
        for (size_t i = 0; i < k; ++i) {
            xs.push_back(F::random(rng));
            if (i == k / 2) xs.push_back(F::zero());
        }
        xs.push_back(F::zero());
        const std::vector<F> ref = xs;
        zkspeed::ff::ModmulScope scope;
        zkspeed::ff::batch_inverse(xs);
        EXPECT_EQ(scope.total_delta(), 3 * (k - 1) + inversion_muls) << k;
        EXPECT_EQ(scope.inv_fr_delta() + scope.inv_fq_delta(), 1u) << k;
        for (size_t i = 0; i < xs.size(); ++i) {
            if (ref[i].is_zero()) {
                EXPECT_TRUE(xs[i].is_zero()) << k << " " << i;
            } else {
                EXPECT_EQ(ref[i] * xs[i], F::one()) << k << " " << i;
            }
        }
    }
    std::vector<F> zeros(3, F::zero());
    zkspeed::ff::ModmulScope scope;
    zkspeed::ff::batch_inverse(zeros);
    EXPECT_EQ(scope.total_delta(), 0u);
    for (const F &z : zeros) EXPECT_TRUE(z.is_zero());
}

TYPED_TEST(FieldTest, UnrolledCiosMatchesSchoolbookReference)
{
    // The fused, compile-time-unrolled CIOS multiplier (PR 8) against
    // the obviously-correct path: widen to 2N limbs, schoolbook
    // multiply, long-divide by p. Also pins the worst-case operands
    // (p-1)^2 and values with all-ones limbs that maximise the carry
    // chains the fusion reorders.
    using F = TypeParam;
    using Wide = zkspeed::ff::BigInt<2 * F::kLimbs>;
    auto reference_mul = [](const F &a, const F &b) {
        Wide prod = a.to_repr().mul_wide(b.to_repr());
        Wide q, r;
        zkspeed::ff::divmod(prod, zkspeed::ff::widen<2 * F::kLimbs>(
                                      F::kModulus),
                            q, r);
        typename F::Repr lo;
        for (size_t i = 0; i < F::kLimbs; ++i) lo.limbs[i] = r.limbs[i];
        return lo;
    };

    std::mt19937_64 rng(55);
    std::vector<F> specials = {F::zero(), F::one(), -F::one(),
                               F::one() + F::one()};
    auto maxlimbs = typename F::Repr(0);
    for (size_t i = 0; i + 1 < F::kLimbs; ++i) {
        maxlimbs.limbs[i] = ~uint64_t(0);
    }
    specials.push_back(F::from_repr(maxlimbs));
    for (const F &a : specials) {
        for (const F &b : specials) {
            EXPECT_EQ((a * b).to_repr(), reference_mul(a, b));
        }
    }
    for (int it = 0; it < 200; ++it) {
        F a = F::random(rng), b = F::random(rng);
        EXPECT_EQ((a * b).to_repr(), reference_mul(a, b));
        EXPECT_EQ(a.square().to_repr(), reference_mul(a, a));
    }
}

TYPED_TEST(FieldTest, FromReprReducesEveryRawLimbPattern)
{
    // from_repr is the one entry for raw limbs, and the MULX/ADX
    // kernel needs operands below p, so it reduces first. Pin the
    // largest raw value, 2^{64N} - 1, against division by p.
    using F = TypeParam;
    using Wide = zkspeed::ff::BigInt<2 * F::kLimbs>;
    typename F::Repr ones;
    for (auto &l : ones.limbs) l = ~uint64_t(0);
    Wide q, r;
    zkspeed::ff::divmod(zkspeed::ff::widen<2 * F::kLimbs>(ones),
                        zkspeed::ff::widen<2 * F::kLimbs>(F::kModulus), q,
                        r);
    typename F::Repr want;
    for (size_t i = 0; i < F::kLimbs; ++i) want.limbs[i] = r.limbs[i];
    F x = F::from_repr(ones);
    EXPECT_EQ(x.to_repr(), want);
    // The portable CIOS accepts any a < R, so it is a second oracle.
    EXPECT_EQ(x.mont_repr(), F::mont_mul_portable(ones, F::kR2));
    EXPECT_EQ(F::from_repr(F::kModulus), F::zero());
}

TYPED_TEST(FieldTest, MulxAdxKernelMatchesPortableBitForBit)
{
    using F = TypeParam;
    using Repr = typename F::Repr;
    namespace ff = zkspeed::ff;
    // Selection: the fast kernel runs whenever the CPU has it.
    EXPECT_EQ(ff::detail::g_use_mulx_adx, ff::detail::cpu_has_mulx_adx());
    EXPECT_STREQ(ff::mont_mul_kernel(), ff::detail::cpu_has_mulx_adx()
                                            ? "mulx-adx"
                                            : "portable");
#if !ZKSPEED_MULX_ADX_KERNEL
    GTEST_SKIP() << "this build has no x86-64 MULX/ADX kernel";
#else
    if (!ff::detail::cpu_has_mulx_adx()) {
        GTEST_SKIP() << "CPUID lacks bmi2 or adx";
    }
    auto minus_one = [](Repr v) {
        v.sub_assign(Repr(1));
        return v;
    };
    // Edge operands, all canonical: 0, 1, p-1, p-2, R mod p, R^2 mod p,
    // and all-ones limbs below p (the top limb one below p's, or zero).
    Repr ones_under_top, ones_top_zero;
    for (size_t i = 0; i + 1 < F::kLimbs; ++i) {
        ones_under_top.limbs[i] = ~uint64_t(0);
        ones_top_zero.limbs[i] = ~uint64_t(0);
    }
    ones_under_top.limbs[F::kLimbs - 1] =
        F::kModulus.limbs[F::kLimbs - 1] - 1;
    std::vector<Repr> edges = {Repr(0),
                               Repr(1),
                               minus_one(F::kModulus),
                               minus_one(minus_one(F::kModulus)),
                               F::kR,
                               F::kR2,
                               ones_under_top,
                               ones_top_zero};
    for (const Repr &a : edges) {
        ASSERT_LT(a.cmp(F::kModulus), 0);
        for (const Repr &b : edges) {
            EXPECT_EQ(F::mont_mul_mulx_adx(a, b), F::mont_mul_portable(a, b))
                << a.to_hex() << " * " << b.to_hex();
        }
    }
    std::mt19937_64 rng(2012);
    size_t mismatches = 0;
    for (int it = 0; it < 100000; ++it) {
        Repr a = F::random(rng).mont_repr(), b = F::random(rng).mont_repr();
        if (F::mont_mul_mulx_adx(a, b) != F::mont_mul_portable(a, b)) {
            ADD_FAILURE() << a.to_hex() << " * " << b.to_hex();
            if (++mismatches == 5) break;
        }
    }
    EXPECT_EQ(mismatches, 0u);
#endif
}

TEST(FieldTest, FqLanes8MatchOperatorMulBitForBit)
{
    namespace ff = zkspeed::ff;
    // Edge operands: 0, 1, p - 1, p - 2, R mod p and 2^381 - 1 reduced,
    // every pair of them spread over the lanes, then seeded randoms.
    Fq::Repr top_ones;
    for (auto &l : top_ones.limbs) l = ~uint64_t(0);
    top_ones.limbs[5] >>= 64 * 6 - 381;  // 2^381 - 1 > p
    const std::vector<Fq> edges = {Fq::zero(),
                                   Fq::one(),
                                   -Fq::one(),
                                   -Fq::from_uint(2),
                                   Fq::from_repr(Fq::kR),
                                   Fq::from_repr(top_ones)};
    std::vector<std::pair<Fq, Fq>> pairs;
    for (const Fq &a : edges) {
        for (const Fq &b : edges) pairs.push_back({a, b});
    }
    std::mt19937_64 rng(2016);
    while (pairs.size() < 8 * 4096) {
        pairs.push_back({Fq::random(rng), Fq::random(rng)});
    }
    auto check = [&](ff::LaneKernel k) {
        size_t mismatches = 0;
        for (size_t i = 0; i < pairs.size(); i += ff::kLanes) {
            Fq a[ff::kLanes], b[ff::kLanes], out[ff::kLanes];
            for (unsigned c = 0; c < ff::kLanes; ++c) {
                const auto &pr = pairs[(i + c) % pairs.size()];
                a[c] = pr.first;
                b[c] = pr.second;
            }
            ff::ModmulScope muls;
            ff::mul_lanes8(k, out, a, b);
            EXPECT_EQ(muls.fq_delta(), ff::kLanes);
            for (unsigned c = 0; c < ff::kLanes; ++c) {
                if (out[c] != a[c] * b[c] && ++mismatches <= 5) {
                    ADD_FAILURE() << (k == ff::LaneKernel::ifma8
                                          ? "ifma8"
                                          : "portable8")
                                  << " lane " << c << ": " << a[c].to_hex()
                                  << " * " << b[c].to_hex();
                }
            }
        }
        EXPECT_EQ(mismatches, 0u);
    };
    check(ff::LaneKernel::portable8);
    // Selection: the IFMA lanes run whenever the CPU has them.
    EXPECT_EQ(ff::detail::g_use_ifma_lanes, ff::detail::cpu_has_avx512ifma());
    EXPECT_STREQ(ff::lane_kernel_name(),
                 ff::detail::cpu_has_avx512ifma() ? "ifma8" : "portable8");
    if (!ff::detail::cpu_has_avx512ifma()) {
        GTEST_SKIP() << "IFMA lanes not compared: "
#if ZKSPEED_IFMA_KERNEL
                        "CPUID or XCR0 lacks avx512f, avx512ifma or ZMM "
                        "state; the portable lanes passed";
#else
                        "this build has no x86-64 IFMA kernel; the portable "
                        "lanes passed";
#endif
    }
    check(ff::LaneKernel::ifma8);
}

TEST(FrSpecific, ModulusValue)
{
    EXPECT_EQ(Fr::kModulus.to_hex(),
              "0x73eda753299d7d483339d80809a1d805"
              "53bda402fffe5bfeffffffff00000001");
    EXPECT_EQ(Fr::kBits, 255u);
}

TEST(FqSpecific, ModulusValue)
{
    EXPECT_EQ(Fq::kBits, 381u);
    // p mod 4 == 3 for BLS12-381 (used by sqrt-free pairing towers).
    EXPECT_EQ(Fq::kModulus.limbs[0] & 3, 3u);
}

TEST(Counters, ModmulCountsIncrease)
{
    auto &c = zkspeed::ff::modmul_counters();
    std::mt19937_64 rng(7);
    Fr a = Fr::random(rng), b = Fr::random(rng);
    Fq x = Fq::random(rng), y = Fq::random(rng);
    zkspeed::ff::ModmulScope scope;
    (void)(a * b);
    (void)(x * y);
    (void)(x * y);
    EXPECT_EQ(scope.fr_delta(), 1u);
    EXPECT_EQ(scope.fq_delta(), 2u);
    EXPECT_EQ(scope.total_delta(), 3u);
    (void)c;
}

}  // namespace
