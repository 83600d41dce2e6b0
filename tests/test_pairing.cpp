/**
 * @file
 * Bilinearity and non-degeneracy tests for the optimal-ate pairing, and
 * the final exponentiation's Frobenius/cyclotomic chain against a
 * generic-power oracle.
 */
#include <gtest/gtest.h>

#include <random>

#include "curve/pairing.hpp"
#include "ff/counters.hpp"

namespace {

using namespace zkspeed::curve;
using zkspeed::ff::BigInt;
using zkspeed::ff::Fq;
using zkspeed::ff::Fr;

/**
 * Oracle: the final exponentiation as plain powers, f^{(q^6 - 1)(q^2 + 1)}
 * then ^(q^4 - q^2 + 1)/r with the exponent from big-integer division.
 */
Fq12
generic_final_exponentiation(const Fq12 &f)
{
    Fq12 t = f.conjugate() * f.inverse();
    BigInt<12> q2 = Fq::kModulus.mul_wide(Fq::kModulus);
    t = t.pow(q2) * t;
    BigInt<24> e = q2.mul_wide(q2);
    e.sub_assign(zkspeed::ff::widen<24>(q2));
    e.add_assign(BigInt<24>(1));
    BigInt<24> d, rem;
    zkspeed::ff::divmod(e, zkspeed::ff::widen<24>(Fr::kModulus), d, rem);
    EXPECT_TRUE(rem.is_zero());
    return t.pow(d);
}

Fq12
random_fq12(std::mt19937_64 &rng)
{
    return {Fq6(Fq2::random(rng), Fq2::random(rng), Fq2::random(rng)),
            Fq6(Fq2::random(rng), Fq2::random(rng), Fq2::random(rng))};
}

/** A multi-Miller-loop output over `n` random pairs. */
Fq12
random_miller_output(std::mt19937_64 &rng, size_t n)
{
    std::vector<G1Affine> ps;
    std::vector<G2Prepared> qs;
    for (size_t i = 0; i < n; ++i) {
        ps.push_back(g1_generator().mul(Fr::random(rng)).to_affine());
        qs.push_back(
            prepare_g2(g2_generator().mul(Fr::random(rng)).to_affine()));
    }
    return multi_miller_loop(ps, qs);
}

/** The easy part f^{(q^6 - 1)(q^2 + 1)}: lands in the cyclotomic group. */
Fq12
easy_part(const Fq12 &f)
{
    Fq12 t = f.conjugate() * f.inverse();
    return t.frobenius().frobenius() * t;
}

TEST(Pairing, NonDegenerate)
{
    Fq12 e = pairing(G1Params::generator(), G2Params::generator());
    EXPECT_FALSE(e.is_one());
    // e(g, h) lies in the order-r subgroup: e^r == 1.
    EXPECT_TRUE(e.pow(Fr::kModulus).is_one());
}

TEST(Pairing, IdentityInputsGiveOne)
{
    EXPECT_TRUE(pairing(G1Affine::identity(), G2Params::generator())
                    .is_one());
    EXPECT_TRUE(pairing(G1Params::generator(), G2Affine::identity())
                    .is_one());
}

TEST(Pairing, Bilinearity)
{
    std::mt19937_64 rng(21);
    Fr a = Fr::random(rng);
    Fr b = Fr::random(rng);
    G1Affine ga = g1_generator().mul(a).to_affine();
    G2Affine hb = g2_generator().mul(b).to_affine();
    Fq12 lhs = pairing(ga, hb);
    Fq12 rhs = pairing(G1Params::generator(), G2Params::generator())
                   .pow((a * b).to_repr());
    EXPECT_EQ(lhs, rhs) << "e(aG, bH) == e(G, H)^{ab}";
}

TEST(Pairing, LinearInFirstArgument)
{
    std::mt19937_64 rng(22);
    Fr a = Fr::random(rng), b = Fr::random(rng);
    G1 ga = g1_generator().mul(a);
    G1 gb = g1_generator().mul(b);
    G2Affine h = G2Params::generator();
    Fq12 lhs = pairing((ga + gb).to_affine(), h);
    Fq12 rhs = pairing(ga.to_affine(), h) * pairing(gb.to_affine(), h);
    EXPECT_EQ(lhs, rhs);
}

TEST(Pairing, ProductCheckDetectsEquality)
{
    // e(aG, H) * e(-G, aH) == 1.
    std::mt19937_64 rng(23);
    Fr a = Fr::random(rng);
    std::vector<G1Affine> ps = {
        g1_generator().mul(a).to_affine(),
        g1_generator().neg().to_affine(),
    };
    std::vector<G2Prepared> qs = {
        prepare_g2(G2Params::generator()),
        prepare_g2(g2_generator().mul(a).to_affine()),
    };
    EXPECT_TRUE(pairing_product_is_one(ps, qs));
    // Perturb one side: must fail.
    qs[1] = prepare_g2(g2_generator().mul(a + Fr::one()).to_affine());
    EXPECT_FALSE(pairing_product_is_one(ps, qs));
}

TEST(Pairing, PreparedHandlesIdentities)
{
    std::mt19937_64 rng(26);
    Fr a = Fr::random(rng);
    G2Prepared inf = prepare_g2(G2Affine::identity());
    EXPECT_TRUE(inf.infinity);
    EXPECT_TRUE(inf.coeffs.empty());
    std::vector<G1Affine> ps = {g1_generator().mul(a).to_affine(),
                                G1Affine::identity()};
    std::vector<G2Prepared> preps = {inf, prepare_g2(G2Params::generator())};
    // Both pairs degenerate: the product is 1 before final exp.
    EXPECT_TRUE(multi_miller_loop(ps, preps).is_one());
    EXPECT_TRUE(pairing_product_is_one(ps, preps));
}

TEST(Pairing, PreparedProductCheckDetectsEquality)
{
    // e(aG, H) * e(-G, aH) == 1, with one preparation re-used against
    // a changed G1 side (the point of preparing: the G2 work is done
    // once, as in the batch verifier's bisection probes).
    std::mt19937_64 rng(27);
    Fr a = Fr::random(rng);
    std::vector<G1Affine> ps = {
        g1_generator().mul(a).to_affine(),
        g1_generator().neg().to_affine(),
    };
    const std::vector<G2Prepared> preps = {
        prepare_g2(G2Params::generator()),
        prepare_g2(g2_generator().mul(a).to_affine()),
    };
    EXPECT_TRUE(pairing_product_is_one(ps, preps));
    ps[0] = g1_generator().mul(a + Fr::one()).to_affine();
    EXPECT_FALSE(pairing_product_is_one(ps, preps));
    ps[0] = g1_generator().mul(a).to_affine();
    EXPECT_TRUE(pairing_product_is_one(ps, preps));
}

TEST(Pairing, MultiMillerMatchesProductOfPairings)
{
    std::mt19937_64 rng(24);
    std::vector<G1Affine> ps;
    std::vector<G2Prepared> qs;
    Fq12 expect = Fq12::one();
    for (int i = 0; i < 3; ++i) {
        Fr a = Fr::random(rng), b = Fr::random(rng);
        ps.push_back(g1_generator().mul(a).to_affine());
        G2Affine q = g2_generator().mul(b).to_affine();
        qs.push_back(prepare_g2(q));
        expect *= pairing(ps.back(), q);
    }
    EXPECT_EQ(final_exponentiation(multi_miller_loop(ps, qs)), expect);
}

TEST(FinalExponentiation, MatchesGenericPowerOracle)
{
    std::mt19937_64 rng(31);
    EXPECT_TRUE(final_exponentiation(Fq12::one()).is_one());
    EXPECT_EQ(final_exponentiation(Fq12::one()),
              generic_final_exponentiation(Fq12::one()));
    for (size_t n : {1, 2, 3}) {
        Fq12 f = random_miller_output(rng, n);
        EXPECT_EQ(final_exponentiation(f), generic_final_exponentiation(f))
            << n << "-pair Miller output";
    }
    // Any nonzero element, not just Miller outputs.
    Fq12 f = random_fq12(rng);
    EXPECT_EQ(final_exponentiation(f), generic_final_exponentiation(f));
}

TEST(FinalExponentiation, FrobeniusIsThePowerQ)
{
    std::mt19937_64 rng(32);
    for (int i = 0; i < 3; ++i) {
        Fq12 f = random_fq12(rng);
        EXPECT_EQ(f.frobenius(), f.pow(Fq::kModulus));
        Fq12 g = f;
        for (int k = 0; k < 12; ++k) g = g.frobenius();
        EXPECT_EQ(g, f) << "x^{q^12} == x in Fq12";
    }
}

TEST(FinalExponentiation, SquareMatchesMultiply)
{
    std::mt19937_64 rng(33);
    for (int i = 0; i < 3; ++i) {
        Fq12 f = random_fq12(rng);
        EXPECT_EQ(f.square(), f * f);
    }
}

TEST(FinalExponentiation, CyclotomicSquareMatchesSquareAfterEasyPart)
{
    std::mt19937_64 rng(34);
    for (int i = 0; i < 3; ++i) {
        Fq12 t = easy_part(i == 0 ? random_miller_output(rng, 2)
                                  : random_fq12(rng));
        EXPECT_EQ(t.cyclotomic_square(), t.square());
        // Unitary: conjugation inverts.
        EXPECT_TRUE((t * t.conjugate()).is_one());
    }
}

TEST(FinalExponentiation, CostsAtMost33kFqMuls)
{
    std::mt19937_64 rng(35);
    Fq12 f = random_miller_output(rng, 2);
    final_exponentiation(f);  // derive the one-time constants first
    zkspeed::ff::ModmulScope muls;
    final_exponentiation(f);
    EXPECT_LE(muls.fq_delta(), 33000u);
    EXPECT_EQ(muls.fr_delta(), 0u);
}

}  // namespace
