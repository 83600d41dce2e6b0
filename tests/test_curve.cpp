/**
 * @file
 * Group-law, MSM and extension-tower tests for the BLS12-381 curve layer.
 */
#include <gtest/gtest.h>

#include <random>

#include "curve/batch_affine.hpp"
#include "curve/fq12.hpp"
#include "curve/g1.hpp"
#include "curve/g2.hpp"
#include "curve/msm.hpp"
#include "ff/lanes8.hpp"
#include "ff/parallel.hpp"

namespace {

using namespace zkspeed::curve;
using zkspeed::ff::Fr;
using zkspeed::ff::Fq;

TEST(G1, GeneratorOnCurve)
{
    EXPECT_TRUE(G1Params::generator().is_on_curve());
    EXPECT_FALSE(G1Params::generator().is_identity());
}

TEST(G2, GeneratorOnCurve)
{
    EXPECT_TRUE(G2Params::generator().is_on_curve());
}

TEST(G1, GeneratorHasOrderR)
{
    // r * G == identity, and (r-1) * G == -G.
    G1 g = g1_generator();
    EXPECT_TRUE(g.mul(Fr::kModulus).is_identity());
    auto rm1 = Fr::kModulus;
    rm1.sub_assign(zkspeed::ff::BigInt<4>(1));
    EXPECT_EQ(g.mul(rm1), g.neg());
}

TEST(G2, GeneratorHasOrderR)
{
    G2 h = g2_generator();
    EXPECT_TRUE(h.mul(Fr::kModulus).is_identity());
}

template <typename Group>
void
group_law_suite(Group g)
{
    using G = Group;
    // Identity behaviour.
    EXPECT_EQ(g + G::identity(), g);
    EXPECT_EQ(G::identity() + g, g);
    EXPECT_TRUE((g + g.neg()).is_identity());
    // Doubling consistency.
    EXPECT_EQ(g.dbl(), g + g);
    EXPECT_EQ(g.dbl() + g, g.mul(Fr::from_uint(3)));
    // Associativity / commutativity on random multiples.
    std::mt19937_64 rng(11);
    Fr a = Fr::random(rng), b = Fr::random(rng);
    G ga = g.mul(a), gb = g.mul(b);
    EXPECT_EQ(ga + gb, gb + ga);
    EXPECT_EQ((ga + gb) + g, ga + (gb + g));
    // Distributivity of scalar mul: (a+b)G == aG + bG.
    EXPECT_EQ(g.mul(a + b), ga + gb);
    // (ab)G == a(bG).
    EXPECT_EQ(g.mul(a * b), gb.mul(a));
    // Affine round trips.
    auto aff = ga.to_affine();
    EXPECT_TRUE(aff.is_on_curve());
    EXPECT_EQ(G::from_affine(aff), ga);
}

TEST(G1, GroupLaws) { group_law_suite(g1_generator()); }
TEST(G2, GroupLaws) { group_law_suite(g2_generator()); }

TEST(G1, MixedAddMatchesFullAdd)
{
    std::mt19937_64 rng(12);
    G1 g = g1_generator();
    for (int i = 0; i < 10; ++i) {
        G1 p = g.mul(Fr::random(rng));
        G1 q = g.mul(Fr::random(rng));
        auto q_aff = q.to_affine();
        EXPECT_EQ(p.add_mixed(q_aff), p + q);
        // Degenerate cases: doubling and cancellation via mixed add.
        EXPECT_EQ(p.add_mixed(p.to_affine()), p.dbl());
        EXPECT_TRUE(p.add_mixed(p.neg().to_affine()).is_identity());
    }
}

TEST(G1, BatchToAffine)
{
    std::mt19937_64 rng(13);
    G1 g = g1_generator();
    std::vector<G1> pts;
    for (int i = 0; i < 17; ++i) pts.push_back(g.mul(Fr::random(rng)));
    pts.push_back(G1::identity());
    auto affs = batch_to_affine<G1Params>(pts);
    ASSERT_EQ(affs.size(), pts.size());
    for (size_t i = 0; i < pts.size(); ++i) {
        EXPECT_EQ(affs[i], pts[i].to_affine());
    }
}

/** MSM sizes whose automatic windows are w = 3, 4, 5, 8 and 9: w divides
 * the 128-bit GLV halves at 16 and 512 points and does not at 2, 31 and
 * 1024 (where windows aggregate in groups). */
constexpr size_t kWindowSizes[] = {2, 16, 31, 512, 1024};

/** Index runs of length n over `cases` entries: consecutive slices when
 * n < cases (the last one wraps around), else one run cycling through
 * them all. */
std::vector<std::vector<size_t>>
runs_over(size_t cases, size_t n)
{
    std::vector<std::vector<size_t>> runs;
    for (size_t start = 0; start < cases; start += n) {
        std::vector<size_t> run(n);
        for (size_t i = 0; i < n; ++i) run[i] = (start + i) % cases;
        runs.push_back(std::move(run));
    }
    return runs;
}

/** n points P_0 = G, P_{i+1} = 2 P_i + G: distinct and nonzero. */
std::vector<G1Affine>
doubling_chain(size_t n)
{
    std::vector<G1> jac(n);
    G1 acc = g1_generator();
    for (size_t i = 0; i < n; ++i) {
        jac[i] = acc;
        acc = acc.dbl() + g1_generator();
    }
    return batch_to_affine<G1Params>(std::span<const G1>(jac));
}

class MsmTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(MsmTest, PippengerMatchesNaive)
{
    size_t n = GetParam();
    std::mt19937_64 rng(100 + n);
    G1 g = g1_generator();
    std::vector<G1Affine> points(n);
    std::vector<Fr> scalars(n);
    for (size_t i = 0; i < n; ++i) {
        points[i] = g.mul(Fr::random(rng)).to_affine();
        scalars[i] = Fr::random(rng);
    }
    EXPECT_EQ(msm(points, scalars), msm_naive(points, scalars));
}

// n = 1 is the unsplit path; the rest take the GLV split, and 16, 512
// and 1024 add the window widths of kWindowSizes.
INSTANTIATE_TEST_SUITE_P(Sizes, MsmTest,
                         ::testing::Values(1, 2, 3, 16, 31, 32, 33, 100, 257,
                                           512, 1024));

TEST(Msm, EdgeCaseScalars)
{
    std::mt19937_64 rng(14);
    G1 g = g1_generator();
    std::vector<G1Affine> points;
    std::vector<Fr> scalars;
    for (int i = 0; i < 16; ++i) {
        points.push_back(g.mul(Fr::random(rng)).to_affine());
    }
    // All-zero scalars.
    scalars.assign(16, Fr::zero());
    EXPECT_TRUE(msm(points, scalars).is_identity());
    // Scalar p-1 (all windows saturated).
    scalars.assign(16, -Fr::one());
    EXPECT_EQ(msm(points, scalars), msm_naive(points, scalars));
    // Mixed tiny scalars.
    for (int i = 0; i < 16; ++i) scalars[i] = Fr::from_uint(i);
    EXPECT_EQ(msm(points, scalars), msm_naive(points, scalars));
}

TEST(Msm, SparseMsmMatchesDenseAndCountsClasses)
{
    std::mt19937_64 rng(15);
    G1 g = g1_generator();
    const size_t n = 200;
    std::vector<G1Affine> points(n);
    std::vector<Fr> scalars(n);
    // Paper Section 6.2 statistics: 45% zeros, 45% ones, 10% dense.
    size_t zeros = 0, ones = 0, dense = 0;
    for (size_t i = 0; i < n; ++i) {
        points[i] = g.mul(Fr::random(rng)).to_affine();
        double u = std::uniform_real_distribution<>(0, 1)(rng);
        if (u < 0.45) {
            scalars[i] = Fr::zero();
            ++zeros;
        } else if (u < 0.90) {
            scalars[i] = Fr::one();
            ++ones;
        } else {
            scalars[i] = Fr::random(rng);
            ++dense;
        }
    }
    MsmStats stats;
    G1 got = msm_sparse(points, scalars, &stats);
    EXPECT_EQ(got, msm_naive(points, scalars));
    EXPECT_EQ(stats.zeros, zeros);
    EXPECT_EQ(stats.ones, ones);
    EXPECT_EQ(stats.dense, dense);
}

TEST(Msm, TreeSumMatchesSequential)
{
    std::mt19937_64 rng(16);
    G1 g = g1_generator();
    for (size_t n : {0u, 1u, 2u, 3u, 15u, 16u, 17u}) {
        std::vector<G1Affine> pts(n);
        G1 expect = G1::identity();
        for (size_t i = 0; i < n; ++i) {
            pts[i] = g.mul(Fr::random(rng)).to_affine();
            expect += G1::from_affine(pts[i]);
        }
        EXPECT_EQ(tree_sum(pts), expect) << "n=" << n;
    }
}

TEST(Msm, SizeMismatchThrowsStructuredError)
{
    // A silent identity here turned a caller bug into a wrong-but-
    // valid-looking commitment (the PR 8 bugfix); every entry point
    // must throw with both lengths attached.
    std::vector<G1Affine> pts(3, g1_generator().to_affine());
    std::vector<Fr> scalars(2, Fr::one());
    try {
        msm(pts, scalars);
        FAIL() << "msm accepted mismatched spans";
    } catch (const MsmSizeError &e) {
        EXPECT_EQ(e.points, 3u);
        EXPECT_EQ(e.scalars, 2u);
        EXPECT_NE(std::string(e.what()).find("mismatch"),
                  std::string::npos);
    }
    EXPECT_THROW(msm_sparse(pts, scalars), MsmSizeError);
    EXPECT_THROW(msm_naive(pts, scalars), MsmSizeError);
    // Empty inputs are fine (identity), not an error.
    EXPECT_TRUE(msm(std::span<const G1Affine>(), std::span<const Fr>())
                    .is_identity());
}

TEST(Msm, SignedDigitAdversarialScalars)
{
    // Scalars chosen to stress the signed-digit recoding: 0, 1, r-1
    // (every digit maximal after recoding), single set bits at window
    // boundaries, digits exactly at +/- 2^{w-1}, and long carry chains
    // (0xFFFF... patterns propagate a carry across every window).
    std::mt19937_64 rng(78);
    std::vector<Fr> special;
    special.push_back(Fr::zero());
    special.push_back(Fr::one());
    special.push_back(-Fr::one());  // r - 1
    for (unsigned k : {1u, 7u, 8u, 63u, 64u, 127u, 128u, 254u}) {
        auto bits = Fr::Repr(0);
        bits.limbs[k / 64] = uint64_t(1) << (k % 64);
        special.push_back(Fr::from_repr(bits));  // 2^k < r for k <= 254
    }
    for (unsigned w = 2; w <= 13; ++w) {
        special.push_back(Fr::from_uint(uint64_t(1) << (w - 1)));      // +half
        special.push_back(Fr::from_uint((uint64_t(1) << (w - 1)) + 1));
        special.push_back(Fr::from_uint((uint64_t(1) << w) - 1));      // carry
    }
    auto all_ones = Fr::Repr(0);
    for (size_t l = 0; l < 3; ++l) all_ones.limbs[l] = ~uint64_t(0);
    special.push_back(Fr::from_repr(all_ones));  // 2^192 - 1 < r

    for (size_t n : kWindowSizes) {
        const auto pts = doubling_chain(n);
        for (const auto &run : runs_over(special.size(), n)) {
            std::vector<Fr> scalars(n);
            for (size_t i = 0; i < n; ++i) scalars[i] = special[run[i]];
            EXPECT_EQ(msm(pts, scalars), msm_naive(pts, scalars))
                << "n = " << n << ", first case " << run[0];
        }
    }
}

TEST(Msm, GlvSplitBoundaryScalars)
{
    // lambda = z^2 - 1 for the BLS parameter z, and r - 1 =
    // lambda * (lambda + 1). Scalars at and around multiples of lambda
    // put the split's quotient estimate at its correction boundary:
    // s1 = s mod lambda lands on 0 or lambda - 1, and r - 1 gives the
    // largest quotient, s2 = lambda + 1.
    const Fr z = Fr::from_uint(0xd201000000010000);
    const Fr lam = z * z - Fr::one();
    ASSERT_EQ(lam * (lam + Fr::one()), -Fr::one());
    const std::vector<Fr> cases = {lam - Fr::one(), lam, lam + Fr::one(),
                                   lam + lam, lam * lam, -Fr::one()};
    for (size_t n : {2u, 1024u}) {
        const auto pts = doubling_chain(n);
        for (const auto &run : runs_over(cases.size(), n)) {
            std::vector<Fr> scalars(n);
            for (size_t i = 0; i < n; ++i) scalars[i] = cases[run[i]];
            EXPECT_EQ(msm(pts, scalars), msm_naive(pts, scalars))
                << "n = " << n << ", first case " << run[0];
        }
    }
}

TEST(Msm, DuplicateAndNegatedPoints)
{
    // Duplicate points land in the same bucket and force the affine
    // batch kernel through its doubling branch (equal x, equal y);
    // P next to -P with equal scalars forces the cancellation branch
    // (equal x, opposite y). Identity points must decompose to nothing.
    std::mt19937_64 rng(79);
    G1Affine p = g1_generator().mul(Fr::from_uint(5)).to_affine();
    G1Affine q = g1_generator().mul(Fr::from_uint(9)).to_affine();
    G1Affine minus_p = p.neg();

    std::vector<G1Affine> pts;
    std::vector<Fr> scalars;
    // 64 copies of p with the same scalar: every window reduces a
    // bucket run of equal points (doubling ladder).
    Fr s = Fr::random(rng);
    for (int i = 0; i < 64; ++i) {
        pts.push_back(p);
        scalars.push_back(s);
    }
    // P and -P with the same scalar: cancels to identity pairwise.
    for (int i = 0; i < 7; ++i) {
        pts.push_back(p);
        scalars.push_back(s);
        pts.push_back(minus_p);
        scalars.push_back(s);
    }
    // A few distinct points and an explicit identity point.
    pts.push_back(q);
    scalars.push_back(Fr::random(rng));
    pts.push_back(G1Affine::identity());
    scalars.push_back(Fr::random(rng));

    for (size_t n : kWindowSizes) {
        for (const auto &run : runs_over(pts.size(), n)) {
            std::vector<G1Affine> p_run(n);
            std::vector<Fr> s_run(n);
            for (size_t i = 0; i < n; ++i) {
                p_run[i] = pts[run[i]];
                s_run[i] = scalars[run[i]];
            }
            EXPECT_EQ(msm(p_run, s_run), msm_naive(p_run, s_run))
                << "n = " << n << ", first case " << run[0];
        }
    }
    zkspeed::curve::MsmStats st;
    EXPECT_EQ(msm_sparse(pts, scalars, &st), msm_naive(pts, scalars));
}

TEST(Msm, GroupedAggregationMatchesNaive)
{
    // n >= 1024 picks windows of >= 256 buckets, whose aggregation runs
    // groups of windows in lockstep behind shared inversions. Two inputs
    // per size, each checked against msm_naive under budgets 1, 3 and 4
    // (same value, same Fq muls):
    //  - all-equal scalars over distinct points: each window fills one
    //    bucket, so a chunk's triangle chain adds its running sum to
    //    itself (doubling);
    //  - +-G and +-2G repeated, with scalars s and -s: buckets cancel or
    //    hold small multiples of G, so chain adds also cancel.
    std::mt19937_64 rng(81);
    const G1 g = g1_generator();
    const G1Affine ga = g.to_affine();
    const G1Affine g2 = g.dbl().to_affine();
    const Fr s = Fr::random(rng);
    // The first MSM in a process builds the GLV constants; keep those
    // one-off muls out of the budget-1 count.
    msm(std::vector{ga}, std::vector{Fr::one()});
    for (size_t n : {1024u, 2048u, 4096u}) {
        std::vector<G1> jac(n);
        G1 acc = g;
        const G1 step = g.mul(Fr::from_uint(11));
        for (size_t i = 0; i < n; ++i) {
            jac[i] = acc;
            acc += step;
        }
        const auto distinct =
            batch_to_affine<G1Params>(std::span<const G1>(jac));
        std::vector<G1Affine> repeated(n);
        std::vector<Fr> signs(n);
        for (size_t i = 0; i < n; ++i) {
            const G1Affine &p = (i % 3 == 0) ? g2 : ga;
            repeated[i] = (i % 5 < 2) ? p.neg() : p;
            signs[i] = (i % 7 < 3) ? -s : s;
        }
        const std::vector<Fr> equal(n, s);
        struct Case {
            const char *name;
            const std::vector<G1Affine> &pts;
            const std::vector<Fr> &scalars;
        };
        for (const Case &c : {Case{"all-equal scalars", distinct, equal},
                              Case{"repeated and negated points",
                                   repeated, signs}}) {
            const G1 want = msm_naive(c.pts, c.scalars);
            std::vector<uint64_t> fq;
            for (size_t budget : {1u, 3u, 4u}) {
                zkspeed::ff::WorkerBudgetScope scope(budget);
                zkspeed::ff::ModmulScope muls;
                EXPECT_EQ(msm(c.pts, c.scalars), want)
                    << c.name << ", n = " << n << ", budget " << budget;
                fq.push_back(muls.fq_delta());
            }
            EXPECT_EQ(fq[0], fq[1]) << c.name << ", n = " << n;
            EXPECT_EQ(fq[0], fq[2]) << c.name << ", n = " << n;
        }
    }
}

TEST(BatchAffine, PairwiseSumsHandleIdentityCancelAndDouble)
{
    const G1 g = g1_generator();
    const G1Affine p = g.mul(Fr::from_uint(3)).to_affine();
    const G1Affine q = g.mul(Fr::from_uint(8)).to_affine();
    const G1Affine o = G1Affine::identity();
    const std::vector<G1Affine> pts = {p, q, p, p, p, p.neg(),
                                       o, q, p, o, o, o};
    const auto sums = pairwise_sums(pts);
    ASSERT_EQ(sums.size(), 6u);
    EXPECT_EQ(sums[0], g.mul(Fr::from_uint(11)).to_affine());
    EXPECT_EQ(sums[1], g.mul(Fr::from_uint(6)).to_affine());
    EXPECT_TRUE(sums[2].is_identity());
    EXPECT_EQ(sums[3], q);
    EXPECT_EQ(sums[4], p);
    EXPECT_TRUE(sums[5].is_identity());
}

/** Fq muls of one Fermat inversion (a fixed exponent, so a constant). */
uint64_t
fq_inverse_muls()
{
    zkspeed::ff::ModmulScope muls;
    (void)Fq::from_uint(3).inverse();
    return muls.fq_delta();
}

TEST(BatchAffine, LaneKernelsMatchJacobianAndCount3mMinus3)
{
    // Queued adds P_j + Q_j over distinct points, with every 5th a
    // doubling (Q = P) and every 7th a cancelling pair (Q = -P, queued
    // as nothing). Each m = 1..40 covers every tail length and 0..5 full
    // lane groups; 4096 is the bucket phase's batch size.
    namespace ff = zkspeed::ff;
    const auto pool = doubling_chain(2 * 4800);  // m = 4096 uses j < 4780
    const uint64_t inv_muls = fq_inverse_muls();
    std::vector<size_t> sizes;
    for (size_t m = 1; m <= 40; ++m) sizes.push_back(m);
    sizes.push_back(4096);
    auto run = [&](size_t m, const char *kernel) {
        AffineBatch batch;
        std::vector<G1> want;
        std::vector<uint32_t> outs;
        for (size_t j = 0; want.size() < m; ++j) {
            const G1Affine &p = pool[2 * j];
            const G1Affine q = j % 7 == 6   ? p.neg()
                               : j % 5 == 4 ? p
                                            : pool[2 * j + 1];
            const bool queued = batch.add({p.x, p.y}, {q.x, q.y}, uint32_t(j));
            ASSERT_EQ(queued, j % 7 != 6) << kernel << ", m = " << m;
            if (!queued) continue;
            want.push_back(G1::from_affine(p) + G1::from_affine(q));
            outs.push_back(uint32_t(j));
        }
        const auto want_aff = batch_to_affine<G1Params>(
            std::span<const G1>(want));
        ASSERT_EQ(batch.size(), m);
        size_t i = 0;
        ff::ModmulScope muls;
        batch.complete([&](uint32_t out, const AffineSlot &sum) {
            ASSERT_LT(i, m);
            EXPECT_EQ(out, outs[i]) << kernel << ", m = " << m;
            EXPECT_EQ(G1Affine(sum.x, sum.y), want_aff[i])
                << kernel << ", m = " << m << ", add " << i;
            ++i;
        });
        EXPECT_EQ(i, m);
        EXPECT_TRUE(batch.empty());
        EXPECT_EQ(batch.completed(), m);
        // The inversion chains cost 3m - 3 muls and the sums 3 per add.
        EXPECT_EQ(muls.inv_fq_delta(), 1u) << kernel << ", m = " << m;
        EXPECT_EQ(muls.fq_delta() - inv_muls - 3 * m, 3 * m - 3)
            << kernel << ", m = " << m;
    };
    {
        ff::PortableLanesScope portable;
        for (size_t m : sizes) run(m, "portable8");
    }
    if (ff::lane_kernel() != ff::LaneKernel::ifma8) {
        GTEST_SKIP() << "IFMA lanes not run: this CPU or build lacks "
                        "avx512ifma; the portable lanes passed";
    }
    for (size_t m : sizes) run(m, "ifma8");
}

TEST(Msm, LaneKernelsGiveSameValuesAndCounts)
{
    namespace ff = zkspeed::ff;
    std::mt19937_64 rng(25);
    const G1 g = g1_generator();
    // The first msm call in a process derives the GLV constants; make
    // it here so the counts below cover the MSMs alone.
    (void)msm(std::vector<G1Affine>{g.to_affine()}, std::vector<Fr>{Fr::one()});
    for (size_t n : {2u, 31u, 512u, 4096u}) {
        std::vector<G1> jac(n);
        std::vector<Fr> scalars(n);
        for (size_t i = 0; i < n; ++i) {
            jac[i] = g.mul(Fr::random(rng));
            scalars[i] = Fr::random(rng);
        }
        const auto pts = batch_to_affine<G1Params>(std::span<const G1>(jac));
        struct Run {
            G1 value;
            uint64_t fq, inv;
        };
        auto run = [&] {
            ff::ModmulScope muls;
            const G1 v = msm(pts, scalars);
            return Run{v, muls.fq_delta(), muls.inv_fq_delta()};
        };
        Run portable;
        {
            ff::PortableLanesScope scope;
            portable = run();
        }
        const Run selected = run();
        EXPECT_EQ(selected.value, portable.value) << "n = " << n;
        EXPECT_EQ(selected.fq, portable.fq) << "n = " << n;
        EXPECT_EQ(selected.inv, portable.inv) << "n = " << n;
        if (n == 31) {
            EXPECT_EQ(portable.value, msm_naive(pts, scalars));
        }
    }
    if (ff::lane_kernel() != ff::LaneKernel::ifma8) {
        GTEST_SKIP() << "both runs used the portable lanes: this CPU or "
                        "build lacks avx512ifma";
    }
}

/** a + b * c on 256-bit limbs (b, c < 2^128); false on overflow. */
bool
mul_add_2x2(const Fr::Repr &a, const Fr::Repr &b, const Fr::Repr &c,
            Fr::Repr &out)
{
    using u128 = unsigned __int128;
    uint64_t prod[4] = {0, 0, 0, 0};
    for (int i = 0; i < 2; ++i) {
        u128 carry = 0;
        for (int j = 0; j < 2; ++j) {
            u128 cur = u128(b.limbs[i]) * c.limbs[j] + prod[i + j] + carry;
            prod[i + j] = uint64_t(cur);
            carry = cur >> 64;
        }
        prod[i + 2] = uint64_t(carry);
    }
    u128 carry = 0;
    for (int i = 0; i < 4; ++i) {
        u128 cur = u128(prod[i]) + a.limbs[i] + carry;
        out.limbs[i] = uint64_t(cur);
        carry = cur >> 64;
    }
    return carry == 0;
}

TEST(Msm, GlvSplitInvariant)
{
    // s = s1 + lambda * s2 exactly, s1 < lambda and s2 < 2^128, at the
    // quotient estimate's boundaries and on seeded random scalars.
    const Fr z = Fr::from_uint(0xd201000000010000);
    const Fr lam = z * z - Fr::one();
    const Fr::Repr lam_r = lam.to_repr();
    ASSERT_EQ(lam_r.limbs[2], 0u);
    ASSERT_EQ(lam_r.limbs[3], 0u);
    std::vector<Fr> cases = {Fr::zero(),      Fr::one(),  lam - Fr::one(),
                             lam,             lam + Fr::one(), lam + lam,
                             lam * lam,       -Fr::one()};
    std::mt19937_64 rng(2024);
    for (int i = 0; i < 10000; ++i) cases.push_back(Fr::random(rng));
    for (const Fr &c : cases) {
        const Fr::Repr s = c.to_repr();
        Fr::Repr s1, s2, back;
        zkspeed::curve::detail::glv_split(s, s1, s2);
        ASSERT_LT(s1.cmp(lam_r), 0) << s.to_hex();
        ASSERT_EQ(s2.limbs[2], 0u) << s.to_hex();
        ASSERT_EQ(s2.limbs[3], 0u) << s.to_hex();
        ASSERT_TRUE(mul_add_2x2(s1, lam_r, s2, back)) << s.to_hex();
        ASSERT_EQ(back, s) << s.to_hex();
    }
}

TEST(BatchAffine, FixedBaseMulMatchesDoubleAndAdd)
{
    // Covers zero, one, r - 1, scalars whose top windows are zero, and
    // a random run longer than one lockstep block.
    std::mt19937_64 rng(82);
    const G1 g = g1_generator();
    std::vector<Fr> scalars = {Fr::zero(), Fr::one(), -Fr::one(),
                               Fr::from_uint(255), Fr::from_uint(256)};
    while (scalars.size() < 1100) scalars.push_back(Fr::random(rng));
    const auto got = fixed_base_mul(g.to_affine(), scalars);
    ASSERT_EQ(got.size(), scalars.size());
    for (size_t i = 0; i < scalars.size(); ++i) {
        ASSERT_EQ(got[i], g.mul(scalars[i]).to_affine()) << "i = " << i;
    }
}

TEST(Msm, SignedKernelMatchesDiscreteLogOracle)
{
    // P_0 = G and P_{i+1} = 2 P_i + G give P_i = k_i G with
    // k_i = 2^{i+1} - 1, so the MSM must equal (sum_i s_i k_i) G: an
    // oracle that shares no code with Pippenger. 2^15 points reach GLV,
    // window threading and several kFlush batches.
    std::mt19937_64 rng(80);
    const G1 g = g1_generator();
    for (size_t n : {100u, 1000u, 4097u, 1u << 15}) {
        std::vector<G1> jac(n);
        std::vector<Fr> scalars(n);
        G1 acc = g;
        Fr k = Fr::one(), dlog = Fr::zero();
        for (size_t i = 0; i < n; ++i) {
            jac[i] = acc;
            acc = acc.dbl() + g;
            scalars[i] = Fr::random(rng);
            dlog += scalars[i] * k;
            k = k + k + Fr::one();
        }
        auto pts = batch_to_affine<G1Params>(std::span<const G1>(jac));
        EXPECT_EQ(msm(pts, scalars), g.mul(dlog)) << "n = " << n;
    }
}

TEST(Fq2Tower, FieldAxioms)
{
    std::mt19937_64 rng(17);
    for (int i = 0; i < 25; ++i) {
        Fq2 a = Fq2::random(rng), b = Fq2::random(rng), c = Fq2::random(rng);
        EXPECT_EQ(a * b, b * a);
        EXPECT_EQ((a * b) * c, a * (b * c));
        EXPECT_EQ(a * (b + c), a * b + a * c);
        EXPECT_EQ(a.square(), a * a);
        if (!a.is_zero()) {
            EXPECT_EQ(a * a.inverse(), Fq2::one());
        }
        // Nonresidue multiplication is multiplication by (u+1).
        Fq2 xi(Fq::one(), Fq::one());
        EXPECT_EQ(a.mul_by_nonresidue(), a * xi);
    }
}

TEST(Fq2Tower, USquaredIsMinusOne)
{
    Fq2 u(Fq::zero(), Fq::one());
    EXPECT_EQ(u.square(), -Fq2::one());
}

TEST(Fq6Fq12Tower, AxiomsAndSparseOps)
{
    std::mt19937_64 rng(18);
    for (int i = 0; i < 10; ++i) {
        Fq6 a(Fq2::random(rng), Fq2::random(rng), Fq2::random(rng));
        Fq6 b(Fq2::random(rng), Fq2::random(rng), Fq2::random(rng));
        EXPECT_EQ(a * b, b * a);
        EXPECT_EQ(a * a.inverse(), Fq6::one());
        // Sparse muls agree with dense.
        Fq2 s0 = Fq2::random(rng), s1 = Fq2::random(rng);
        EXPECT_EQ(a.mul_by_01(s0, s1), a * Fq6(s0, s1, Fq2::zero()));
        EXPECT_EQ(a.mul_by_1(s1), a * Fq6(Fq2::zero(), s1, Fq2::zero()));
        // v^3 == xi: multiplying three times by v equals scaling by xi.
        Fq6 v(Fq2::zero(), Fq2::one(), Fq2::zero());
        Fq6 xi(Fq2::one().mul_by_nonresidue(), Fq2::zero(), Fq2::zero());
        EXPECT_EQ(a * v * v * v, a * xi);

        Fq12 x(a, b);
        Fq12 y(b, a);
        EXPECT_EQ(x * y, y * x);
        EXPECT_EQ(x * x.inverse(), Fq12::one());
        EXPECT_EQ(x.square(), x * x);
        // Sparse 014 multiplication agrees with dense.
        Fq2 d0 = Fq2::random(rng), d1 = Fq2::random(rng),
            d4 = Fq2::random(rng);
        Fq12 sparse(Fq6(d0, d1, Fq2::zero()),
                    Fq6(Fq2::zero(), d4, Fq2::zero()));
        EXPECT_EQ(x.mul_by_014(d0, d1, d4), x * sparse);
    }
}

}  // namespace
