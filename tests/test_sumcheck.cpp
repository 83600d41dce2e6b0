/**
 * @file
 * SumCheck completeness, soundness and interpolation tests.
 */
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "hyperplonk/sumcheck.hpp"

namespace {

using namespace zkspeed::hyperplonk;
using zkspeed::ff::Fr;
namespace mle = zkspeed::mle;
namespace hash = zkspeed::hash;

TEST(Interpolation, RecoversPolynomialValues)
{
    std::mt19937_64 rng(41);
    // Every degree the protocol uses: a random polynomial evaluated at
    // 0..d, interpolated at x, with no Fr inversion per call.
    for (size_t d = 1; d <= 7; ++d) {
        std::vector<Fr> coeffs(d + 1);
        for (auto &c : coeffs) c = Fr::random(rng);
        auto poly_eval = [&](const Fr &x) {
            Fr acc = Fr::zero(), p = Fr::one();
            for (const auto &c : coeffs) {
                acc += c * p;
                p *= x;
            }
            return acc;
        };
        std::vector<Fr> evals(d + 1);
        for (size_t k = 0; k <= d; ++k) evals[k] = poly_eval(Fr::from_uint(k));
        zkspeed::ff::ModmulScope scope;
        // At the nodes themselves.
        for (size_t k = 0; k <= d; ++k) {
            EXPECT_EQ(interpolate_univariate(evals, Fr::from_uint(k)),
                      evals[k]);
        }
        // At random points.
        for (int i = 0; i < 10; ++i) {
            Fr x = Fr::random(rng);
            EXPECT_EQ(interpolate_univariate(evals, x), poly_eval(x));
        }
        EXPECT_EQ(scope.inv_fr_delta(), 0u) << "degree " << d;
    }
}

TEST(Interpolation, RejectsDegreesOutsideOneToSeven)
{
    for (size_t n : {0, 1, 9}) {
        std::vector<Fr> evals(n, Fr::one());
        EXPECT_THROW(interpolate_univariate(evals, Fr::one()),
                     std::invalid_argument)
            << n << " evaluations";
    }
}

TEST(Interpolation, DegreeOneAndTwo)
{
    // g(x) = 3 + 5x from evals at 0,1.
    std::vector<Fr> lin = {Fr::from_uint(3), Fr::from_uint(8)};
    EXPECT_EQ(interpolate_univariate(lin, Fr::from_uint(10)),
              Fr::from_uint(53));
    // g(x) = x^2 from evals at 0,1,2.
    std::vector<Fr> quad = {Fr::from_uint(0), Fr::from_uint(1),
                            Fr::from_uint(4)};
    EXPECT_EQ(interpolate_univariate(quad, Fr::from_uint(7)),
              Fr::from_uint(49));
}

class SumcheckRoundTrip
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>>
{
};

TEST_P(SumcheckRoundTrip, ProveThenVerify)
{
    auto [nv, degree] = GetParam();
    std::mt19937_64 rng(100 * nv + degree);
    VirtualPolynomial vp(nv);
    // Build `degree` stacked products of random MLEs plus a linear term.
    std::vector<std::shared_ptr<mle::Mle>> ms;
    for (size_t i = 0; i < degree; ++i) {
        ms.push_back(std::make_shared<mle::Mle>(mle::Mle::random(nv, rng)));
    }
    std::vector<size_t> all;
    for (const auto &m : ms) all.push_back(vp.add_mle(*m));
    vp.add_term(Fr::random(rng), all);
    vp.add_term(Fr::random(rng), {all[0]});
    if (degree >= 2) vp.add_term(Fr::random(rng), {all[1], all[0]});

    Fr claim = vp.sum_over_hypercube();
    hash::Transcript tp("sumcheck-test");
    auto pres = sumcheck_prove(vp, tp);
    hash::Transcript tv("sumcheck-test");
    auto vres = sumcheck_verify(claim, nv, vp.max_degree(),
                                pres.proof, tv);
    ASSERT_TRUE(vres.ok);
    EXPECT_EQ(vres.challenges, pres.challenges);
    // The verifier's final value matches evaluating the polynomial at r.
    EXPECT_EQ(vres.final_value, vp.evaluate(vres.challenges));
    // And matches combining the prover's final per-MLE values.
    EXPECT_EQ(vres.final_value,
              vp.evaluate_from_mle_values(pres.final_mle_values));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SumcheckRoundTrip,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(1, 2, 3, 5)));

TEST(Sumcheck, RejectsWrongClaim)
{
    std::mt19937_64 rng(42);
    VirtualPolynomial vp(4);
    const auto a = mle::Mle::random(4, rng), b = mle::Mle::random(4, rng);
    vp.add_product(Fr::one(), {a, b});
    hash::Transcript tp("sumcheck-test");
    auto pres = sumcheck_prove(vp, tp);
    Fr bad_claim = vp.sum_over_hypercube() + Fr::one();
    hash::Transcript tv("sumcheck-test");
    EXPECT_FALSE(sumcheck_verify(bad_claim, 4, 2, pres.proof, tv).ok);
}

TEST(Sumcheck, RejectsTamperedRounds)
{
    std::mt19937_64 rng(43);
    VirtualPolynomial vp(5);
    auto a = std::make_shared<mle::Mle>(mle::Mle::random(5, rng));
    auto b = std::make_shared<mle::Mle>(mle::Mle::random(5, rng));
    vp.add_product(Fr::one(), {*a, *b});
    Fr claim = vp.sum_over_hypercube();
    hash::Transcript tp("sumcheck-test");
    auto pres = sumcheck_prove(vp, tp);

    // Tamper with each round message in turn; every variant must fail
    // either the running-claim check or the final-value check.
    for (size_t round = 0; round < 5; ++round) {
        auto proof = pres.proof;
        proof.round_evals[round][1] += Fr::one();
        hash::Transcript tv("sumcheck-test");
        auto vres = sumcheck_verify(claim, 5, 2, proof, tv);
        bool final_matches =
            vres.ok && vres.final_value == vp.evaluate(vres.challenges);
        EXPECT_FALSE(final_matches) << "tampered round " << round;
    }
}

TEST(Sumcheck, RejectsMalformedShapes)
{
    std::mt19937_64 rng(44);
    VirtualPolynomial vp(3);
    const auto a = mle::Mle::random(3, rng);
    vp.add_product(Fr::one(), {a});
    Fr claim = vp.sum_over_hypercube();
    hash::Transcript tp("sumcheck-test");
    auto pres = sumcheck_prove(vp, tp);
    {
        auto proof = pres.proof;
        proof.round_evals.pop_back();  // missing round
        hash::Transcript tv("sumcheck-test");
        EXPECT_FALSE(sumcheck_verify(claim, 3, 1, proof, tv).ok);
    }
    {
        auto proof = pres.proof;
        proof.round_evals[0].push_back(Fr::one());  // degree overflow
        hash::Transcript tv("sumcheck-test");
        EXPECT_FALSE(sumcheck_verify(claim, 3, 1, proof, tv).ok);
    }
    {
        hash::Transcript tv("sumcheck-test");
        EXPECT_FALSE(sumcheck_verify(claim, 4, 1, pres.proof, tv).ok)
            << "wrong variable count";
    }
}

TEST(Sumcheck, ZeroPolynomialSumsToZero)
{
    VirtualPolynomial vp(4);
    const mle::Mle z(4);  // all-zero table
    vp.add_product(Fr::one(), {z, z});
    hash::Transcript tp("sumcheck-test");
    auto pres = sumcheck_prove(vp, tp);
    hash::Transcript tv("sumcheck-test");
    auto vres = sumcheck_verify(Fr::zero(), 4, 2, pres.proof, tv);
    EXPECT_TRUE(vres.ok);
    EXPECT_TRUE(vres.final_value.is_zero());
}

TEST(Sumcheck, CostBreakdownIsPlausible)
{
    std::mt19937_64 rng(45);
    const size_t nv = 6;
    VirtualPolynomial vp(nv);
    auto a = std::make_shared<mle::Mle>(mle::Mle::random(nv, rng));
    auto b = std::make_shared<mle::Mle>(mle::Mle::random(nv, rng));
    vp.add_product(Fr::one(), {*a, *b});
    hash::Transcript tp("sumcheck-test");
    SumcheckCosts costs;
    sumcheck_prove(vp, tp, &costs);
    EXPECT_GT(costs.round_modmuls, 0u);
    // MLE Update: 2 tables, sum over rounds of 2^{nv-1-k} muls each.
    EXPECT_EQ(costs.update_modmuls, 2 * ((size_t(1) << nv) - 1));
    // Bytes: reads of both tables across all rounds.
    EXPECT_EQ(costs.round_bytes_in, 2 * 32 * (2 * ((size_t(1) << nv) - 1)));
}

}  // namespace
