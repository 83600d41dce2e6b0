/**
 * @file
 * MLE table, eq/Build-MLE and virtual polynomial tests.
 */
#include <gtest/gtest.h>

#include <random>

#include "mle/mle.hpp"
#include "mle/virtual_poly.hpp"

namespace {

using namespace zkspeed::mle;
using zkspeed::ff::Fr;

std::vector<Fr>
random_point(size_t n, std::mt19937_64 &rng)
{
    std::vector<Fr> p(n);
    for (auto &x : p) x = Fr::random(rng);
    return p;
}

TEST(Mle, EvaluateAtBooleanPointsRecoversTable)
{
    std::mt19937_64 rng(31);
    Mle m = Mle::random(4, rng);
    for (size_t i = 0; i < m.size(); ++i) {
        std::vector<Fr> pt(4);
        for (size_t k = 0; k < 4; ++k) {
            pt[k] = ((i >> k) & 1) ? Fr::one() : Fr::zero();
        }
        EXPECT_EQ(m.evaluate(pt), m[i]) << "index " << i;
    }
}

TEST(Mle, FixFirstVariableMatchesEq2)
{
    // t'[i] = (t[2i+1] - t[2i]) * r + t[2i] (paper Eq. 2).
    std::mt19937_64 rng(32);
    Mle m = Mle::random(5, rng);
    Mle orig = m;
    Fr r = Fr::random(rng);
    m.fix_first_variable(r);
    ASSERT_EQ(m.num_vars(), 4u);
    for (size_t i = 0; i < m.size(); ++i) {
        EXPECT_EQ(m[i], (orig[2 * i + 1] - orig[2 * i]) * r + orig[2 * i]);
    }
}

TEST(Mle, FixVariableConsistentWithEvaluate)
{
    std::mt19937_64 rng(33);
    Mle m = Mle::random(6, rng);
    auto pt = random_point(6, rng);
    Fr direct = m.evaluate(pt);
    Mle folded = m;
    for (size_t k = 0; k < 6; ++k) folded.fix_first_variable(pt[k]);
    EXPECT_EQ(folded[0], direct);
}

TEST(Mle, MultilinearityInEachVariable)
{
    // f restricted to one variable is affine: f(..,t,..) =
    // f(..,0,..) + t*(f(..,1,..) - f(..,0,..)).
    std::mt19937_64 rng(34);
    Mle m = Mle::random(5, rng);
    for (size_t var = 0; var < 5; ++var) {
        auto pt = random_point(5, rng);
        Fr t = Fr::random(rng);
        auto p0 = pt, p1 = pt, pts = pt;
        p0[var] = Fr::zero();
        p1[var] = Fr::one();
        pts[var] = t;
        Fr f0 = m.evaluate(p0), f1 = m.evaluate(p1);
        EXPECT_EQ(m.evaluate(pts), f0 + t * (f1 - f0)) << "var " << var;
    }
}

TEST(Mle, EqTableMatchesClosedForm)
{
    std::mt19937_64 rng(35);
    auto r = random_point(5, rng);
    Mle eq = Mle::eq_table(r);
    ASSERT_EQ(eq.size(), 32u);
    // Each entry is the product formula.
    for (size_t i = 0; i < 32; ++i) {
        Fr expect = Fr::one();
        for (size_t k = 0; k < 5; ++k) {
            expect *= ((i >> k) & 1) ? r[k] : Fr::one() - r[k];
        }
        EXPECT_EQ(eq[i], expect);
    }
    // Table sums to 1.
    EXPECT_EQ(eq.sum(), Fr::one());
    // eq_eval agrees with evaluating the table.
    auto z = random_point(5, rng);
    EXPECT_EQ(eq.evaluate(z), Mle::eq_eval(z, r));
    EXPECT_EQ(Mle::eq_eval(z, r), Mle::eq_eval(r, z));
}

TEST(Mle, EqTableSelectsEvaluations)
{
    // sum_i f[i] * eq(z)[i] == f(z): the identity underlying both MLE
    // Evaluate and the OpenCheck structure.
    std::mt19937_64 rng(36);
    Mle f = Mle::random(6, rng);
    auto z = random_point(6, rng);
    Mle eq = Mle::eq_table(z);
    Fr acc = Fr::zero();
    for (size_t i = 0; i < f.size(); ++i) acc += f[i] * eq[i];
    EXPECT_EQ(acc, f.evaluate(z));
}

TEST(Mle, AddScaledAndSum)
{
    std::mt19937_64 rng(37);
    Mle a = Mle::random(4, rng);
    Mle b = Mle::random(4, rng);
    Fr c = Fr::random(rng);
    Mle combo = a;
    combo.add_scaled(b, c);
    auto z = random_point(4, rng);
    EXPECT_EQ(combo.evaluate(z), a.evaluate(z) + c * b.evaluate(z));
    EXPECT_EQ(combo.sum(), a.sum() + c * b.sum());
}

TEST(Mle, ZeroVariablePolynomial)
{
    Mle m = Mle::constant(0, Fr::from_uint(7));
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(m.evaluate({}), Fr::from_uint(7));
    EXPECT_EQ(m.sum(), Fr::from_uint(7));
}

TEST(VirtualPoly, EvaluateAndHypercubeSum)
{
    std::mt19937_64 rng(38);
    auto a = std::make_shared<Mle>(Mle::random(4, rng));
    auto b = std::make_shared<Mle>(Mle::random(4, rng));
    auto c = std::make_shared<Mle>(Mle::random(4, rng));
    VirtualPolynomial vp(4);
    Fr k1 = Fr::random(rng), k2 = Fr::random(rng);
    vp.add_product(k1, {*a, *b, *c});
    vp.add_product(k2, {*a, *a});
    EXPECT_EQ(vp.max_degree(), 3u);

    auto z = random_point(4, rng);
    Fr ea = a->evaluate(z), eb = b->evaluate(z), ec = c->evaluate(z);
    EXPECT_EQ(vp.evaluate(z), k1 * ea * eb * ec + k2 * ea * ea);

    // Hypercube sum matches a direct loop.
    Fr expect = Fr::zero();
    for (size_t i = 0; i < 16; ++i) {
        expect += k1 * (*a)[i] * (*b)[i] * (*c)[i] + k2 * (*a)[i] * (*a)[i];
    }
    EXPECT_EQ(vp.sum_over_hypercube(), expect);
}

TEST(VirtualPoly, MleDeduplication)
{
    std::mt19937_64 rng(39);
    auto a = std::make_shared<Mle>(Mle::random(3, rng));
    VirtualPolynomial vp(3);
    size_t i1 = vp.add_mle(*a);
    size_t i2 = vp.add_mle(*a);
    EXPECT_EQ(i1, i2);
    EXPECT_EQ(vp.mles().size(), 1u);
}

}  // namespace
