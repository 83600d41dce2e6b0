/**
 * @file
 * Multilinear-KZG commitment tests: commit/open/verify, homomorphism,
 * the halving-MSM structure, and pairing verification.
 */
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>

#include "pcs/mkzg.hpp"

namespace {

using namespace zkspeed::pcs;
using zkspeed::curve::G1;
using zkspeed::ff::Fr;

std::vector<Fr>
random_point(size_t n, std::mt19937_64 &rng)
{
    std::vector<Fr> p(n);
    for (auto &x : p) x = Fr::random(rng);
    return p;
}

class PcsRoundTrip : public ::testing::TestWithParam<size_t>
{
};

TEST_P(PcsRoundTrip, CommitOpenVerify)
{
    const size_t mu = GetParam();
    std::mt19937_64 rng(70 + mu);
    Srs srs = Srs::generate(mu, rng);
    Mle f = Mle::random(mu, rng);
    auto comm = commit(srs, f);
    auto z = random_point(mu, rng);
    auto [proof, value] = open(srs, f, z);
    EXPECT_EQ(value, f.evaluate(z));
    EXPECT_EQ(proof.quotients.size(), mu);
    EXPECT_TRUE(verify(srs, comm, z, value, proof));
    // Wrong value must fail.
    EXPECT_FALSE(verify(srs, comm, z, value + Fr::one(), proof));
    // Wrong point must fail.
    auto z2 = random_point(mu, rng);
    EXPECT_FALSE(verify(srs, comm, z2, value, proof));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PcsRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 10));

TEST(Pcs, PairingVerificationRejectsBadQuotientAndValue)
{
    const size_t mu = 4;
    std::mt19937_64 rng(71);
    Srs srs = Srs::generate(mu, rng);
    Mle f = Mle::random(mu, rng);
    auto comm = commit(srs, f);
    auto z = random_point(mu, rng);
    auto [proof, value] = open(srs, f, z);
    EXPECT_TRUE(verify(srs, comm, z, value, proof));
    // A corrupted quotient is rejected.
    auto bad = proof;
    bad.quotients[1] =
        (G1::from_affine(bad.quotients[1]) + zkspeed::curve::g1_generator())
            .to_affine();
    EXPECT_FALSE(verify(srs, comm, z, value, bad));
    // So is a wrong value.
    EXPECT_FALSE(verify(srs, comm, z, value + Fr::one(), proof));
}

TEST(Pcs, CommitmentIsEvaluationAtTau)
{
    // commit(f) == f(tau) * g: the defining property of the eq basis.
    const size_t mu = 5;
    std::mt19937_64 rng(72);
    // generate draws tau first, so a copy of its rng replays tau.
    std::mt19937_64 replay = rng;
    Srs srs = Srs::generate(mu, rng);
    auto tau = random_point(mu, replay);
    Mle f = Mle::random(mu, rng);
    Fr f_tau = f.evaluate(tau);
    EXPECT_EQ(G1::from_affine(commit(srs, f)),
              zkspeed::curve::g1_generator().mul(f_tau));
}

TEST(Pcs, DerivedSrsMatchesPerLevelEqTable)
{
    // Srs::generate builds only the top level and sums adjacent pairs
    // down. The oracle is the per-level construction: level k is the eq
    // table over the last k taus, each entry times g by double-and-add.
    const G1 g = zkspeed::curve::g1_generator();
    for (size_t mu : {0u, 1u, 3u, 8u}) {
        std::mt19937_64 rng(77 + mu);
        std::mt19937_64 replay = rng;
        Srs srs = Srs::generate(mu, rng);
        auto tau = random_point(mu, replay);
        ASSERT_EQ(srs.lagrange.size(), mu + 1);
        for (size_t k = 0; k <= mu; ++k) {
            Mle eq = Mle::eq_table(
                std::span<const Fr>(tau.data() + (mu - k), k));
            ASSERT_EQ(srs.lagrange[k].size(), eq.size());
            for (size_t i = 0; i < eq.size(); ++i) {
                ASSERT_EQ(srs.lagrange[k][i], g.mul(eq[i]).to_affine())
                    << "mu = " << mu << ", level " << k << ", entry " << i;
            }
        }
    }
}

TEST(Pcs, OversizedPolynomialThrows)
{
    // A 2^6 table against a 2^3 SRS would index past the last Lagrange
    // level; every entry point rejects it naming both sizes.
    std::mt19937_64 rng(78);
    Srs srs = Srs::generate(3, rng);
    Mle big = Mle::random(6, rng);
    auto z = random_point(6, rng);
    EXPECT_THROW(commit(srs, big), std::invalid_argument);
    EXPECT_THROW(commit_sparse(srs, big), std::invalid_argument);
    EXPECT_THROW(open(srs, big, z), std::invalid_argument);
    try {
        commit(srs, big);
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("2^6"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("2^3"), std::string::npos);
    }
    // A point with the wrong number of coordinates is rejected too.
    Mle small = Mle::random(3, rng);
    EXPECT_THROW(open(srs, small, random_point(2, rng)),
                 std::invalid_argument);
}

TEST(Pcs, CommitmentHomomorphism)
{
    // commit(a*f + b*h) == a*commit(f) + b*commit(h); the verifier's
    // batch-opening reduction relies on this.
    const size_t mu = 4;
    std::mt19937_64 rng(73);
    Srs srs = Srs::generate(mu, rng);
    Mle f = Mle::random(mu, rng);
    Mle h = Mle::random(mu, rng);
    Fr a = Fr::random(rng), b = Fr::random(rng);
    Mle combo(mu);
    combo.add_scaled(f, a);
    combo.add_scaled(h, b);
    G1 lhs = G1::from_affine(commit(srs, combo));
    G1 rhs = G1::from_affine(commit(srs, f)).mul(a) +
             G1::from_affine(commit(srs, h)).mul(b);
    EXPECT_EQ(lhs, rhs);
}

TEST(Pcs, SparseCommitMatchesDense)
{
    const size_t mu = 6;
    std::mt19937_64 rng(74);
    Srs srs = Srs::generate(mu, rng);
    Mle f(mu);
    // 0/1-heavy table, like a witness MLE.
    for (size_t i = 0; i < f.size(); ++i) {
        double u = std::uniform_real_distribution<>(0, 1)(rng);
        f[i] = u < 0.45 ? Fr::zero()
                        : (u < 0.9 ? Fr::one() : Fr::random(rng));
    }
    zkspeed::curve::MsmStats st;
    auto sparse = commit_sparse(srs, f, &st);
    auto dense = commit(srs, f);
    EXPECT_EQ(G1::from_affine(sparse), G1::from_affine(dense));
    EXPECT_GT(st.ones + st.zeros, st.dense);
}

TEST(Pcs, OpeningAtBooleanPointRecoversTableEntry)
{
    const size_t mu = 4;
    std::mt19937_64 rng(75);
    Srs srs = Srs::generate(mu, rng);
    Mle f = Mle::random(mu, rng);
    auto comm = commit(srs, f);
    for (size_t idx : {0u, 5u, 15u}) {
        std::vector<Fr> z(mu);
        for (size_t k = 0; k < mu; ++k) {
            z[k] = ((idx >> k) & 1) ? Fr::one() : Fr::zero();
        }
        auto [proof, value] = open(srs, f, z);
        EXPECT_EQ(value, f[idx]);
        EXPECT_TRUE(verify(srs, comm, z, value, proof));
    }
}

TEST(Pcs, ZeroPolynomial)
{
    const size_t mu = 3;
    std::mt19937_64 rng(76);
    Srs srs = Srs::generate(mu, rng);
    Mle f(mu);  // identically zero
    auto comm = commit(srs, f);
    EXPECT_TRUE(comm.is_identity());
    auto z = random_point(mu, rng);
    auto [proof, value] = open(srs, f, z);
    EXPECT_TRUE(value.is_zero());
    EXPECT_TRUE(verify(srs, comm, z, value, proof));
}

}  // namespace
