/**
 * @file
 * Property-based sweeps: randomized algebraic laws and protocol
 * invariants exercised across seed/size grids with parameterized gtest.
 *
 * Every seed grid is offset by ZKSPEED_TEST_SEED (default 0), and each
 * randomized test announces its effective seed via SCOPED_TRACE, so any
 * red run reproduces with a single `ZKSPEED_TEST_SEED=<seed> ctest -R
 * test_properties`.
 */
#include <gtest/gtest.h>

#include <random>

#include "hyperplonk/prover.hpp"
#include "pcs/mkzg.hpp"
#include "scenarios/seed.hpp"
#include "sim/chip.hpp"

namespace {

using namespace zkspeed;
using ff::Fr;
using ff::Fq;

/** Base offset applied to every seed grid below. */
const uint64_t kSeedBase = scenarios::test_seed(0);

#define ZKSPEED_TRACE_SEED(seed)                                        \
    SCOPED_TRACE(::testing::Message()                                   \
                 << "rerun with: ZKSPEED_TEST_SEED=" << kSeedBase       \
                 << " ctest -R test_properties  (effective seed "       \
                 << (seed) << ")")

// ---------------------------------------------------------------------
// Field laws over many seeds.
// ---------------------------------------------------------------------
class FieldLaws : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FieldLaws, RandomizedAlgebra)
{
    ZKSPEED_TRACE_SEED(GetParam());
    std::mt19937_64 rng(GetParam());
    for (int i = 0; i < 20; ++i) {
        Fr a = Fr::random(rng), b = Fr::random(rng), c = Fr::random(rng);
        // (a - b) + b == a; a*(b - c) == ab - ac.
        EXPECT_EQ((a - b) + b, a);
        EXPECT_EQ(a * (b - c), a * b - a * c);
        // Fermat inverse is a two-sided inverse.
        if (!a.is_zero()) {
            EXPECT_EQ(a.inverse() * a, Fr::one());
            EXPECT_EQ((a * b).inverse(), a.inverse() * b.inverse());
        }
        // Squaring consistency under addition: (a+b)^2 = a^2+2ab+b^2.
        EXPECT_EQ((a + b).square(),
                  a.square() + (a * b).dbl() + b.square());
        // Exponent laws with random small exponents.
        uint64_t e1 = rng() % 64, e2 = rng() % 64;
        EXPECT_EQ(a.pow(e1) * a.pow(e2), a.pow(e1 + e2));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FieldLaws,
                         ::testing::Range<uint64_t>(kSeedBase + 1,
                                                    kSeedBase + 9));

// ---------------------------------------------------------------------
// MSM linearity in the scalar vector.
// ---------------------------------------------------------------------
class MsmLinearity : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(MsmLinearity, LinearInScalars)
{
    ZKSPEED_TRACE_SEED(GetParam());
    std::mt19937_64 rng(GetParam());
    const size_t n = 24;
    std::vector<curve::G1Affine> pts(n);
    std::vector<Fr> s(n), t(n), mix(n);
    Fr a = Fr::random(rng), b = Fr::random(rng);
    for (size_t i = 0; i < n; ++i) {
        pts[i] = curve::g1_generator().mul(Fr::random(rng)).to_affine();
        s[i] = Fr::random(rng);
        t[i] = Fr::random(rng);
        mix[i] = a * s[i] + b * t[i];
    }
    curve::G1 lhs = curve::msm(pts, mix);
    curve::G1 rhs = curve::msm(pts, s).mul(a) + curve::msm(pts, t).mul(b);
    EXPECT_EQ(lhs, rhs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MsmLinearity,
                         ::testing::Range<uint64_t>(kSeedBase + 10,
                                                    kSeedBase + 16));

// ---------------------------------------------------------------------
// PCS: opening value equals direct evaluation at random points, and
// commitments are binding across distinct polynomials.
// ---------------------------------------------------------------------
class PcsProperties
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>>
{
};

TEST_P(PcsProperties, OpeningConsistency)
{
    auto [mu, seed] = GetParam();
    ZKSPEED_TRACE_SEED(seed);
    std::mt19937_64 rng(seed);
    pcs::Srs srs = pcs::Srs::generate(mu, rng);
    mle::Mle f = mle::Mle::random(mu, rng);
    auto comm = pcs::commit(srs, f);
    for (int k = 0; k < 3; ++k) {
        std::vector<Fr> z(mu);
        for (auto &x : z) x = Fr::random(rng);
        auto [proof, value] = pcs::open(srs, f, z);
        EXPECT_EQ(value, f.evaluate(z));
        EXPECT_TRUE(pcs::verify(srs, comm, z, value, proof));
    }
    // Distinct polynomials get distinct commitments (binding, whp).
    mle::Mle g = f;
    g[0] += Fr::one();
    EXPECT_FALSE(curve::G1::from_affine(pcs::commit(srs, g)) ==
                 curve::G1::from_affine(comm));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PcsProperties,
    ::testing::Combine(::testing::Values(2, 4, 6),
                       ::testing::Values(kSeedBase + 21, kSeedBase + 22,
                                         kSeedBase + 23)));

// ---------------------------------------------------------------------
// End-to-end prove/verify across a (size, seed) grid.
// ---------------------------------------------------------------------
class E2eGrid
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>>
{
};

TEST_P(E2eGrid, ProveVerifyAndSingleBitTamper)
{
    auto [mu, seed] = GetParam();
    ZKSPEED_TRACE_SEED(seed);
    std::mt19937_64 rng(seed);
    auto [index, wit] = hyperplonk::random_circuit(mu, rng);
    auto srs =
        std::make_shared<pcs::Srs>(pcs::Srs::generate(mu, rng));
    auto [pk, vk] = hyperplonk::keygen(std::move(index), srs);
    auto proof = hyperplonk::prove(pk, wit);
    auto publics = wit.public_inputs(pk.index);
    ASSERT_TRUE(hyperplonk::verify(vk, publics, proof));
    // Deterministic proving: same inputs, same proof bytes.
    auto proof2 = hyperplonk::prove(pk, wit);
    EXPECT_EQ(proof2.gprime_value, proof.gprime_value);
    EXPECT_EQ(proof2.evals.flatten(), proof.evals.flatten());
    // Random single-field tamper in the batch evals must be rejected.
    auto bad = proof;
    size_t victim = rng() % 8;
    bad.evals.at_perm[victim] += Fr::one();
    EXPECT_FALSE(hyperplonk::verify(vk, publics, bad));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, E2eGrid,
    ::testing::Combine(::testing::Values(3, 4, 5),
                       ::testing::Values(kSeedBase + 31, kSeedBase + 32,
                                         kSeedBase + 33)));

// ---------------------------------------------------------------------
// An SRS (which keeps no tau) verifies openings via pairings.
// ---------------------------------------------------------------------
TEST(Pcs, SrsVerifiesViaPairings)
{
    ZKSPEED_TRACE_SEED(kSeedBase + 41);
    std::mt19937_64 rng(kSeedBase + 41);
    pcs::Srs srs = pcs::Srs::generate(3, rng);
    mle::Mle f = mle::Mle::random(3, rng);
    auto comm = pcs::commit(srs, f);
    std::vector<Fr> z = {Fr::random(rng), Fr::random(rng),
                         Fr::random(rng)};
    auto [proof, value] = pcs::open(srs, f, z);
    EXPECT_TRUE(pcs::verify(srs, comm, z, value, proof));
}

// ---------------------------------------------------------------------
// Simulator: knob monotonicity sweeps.
// ---------------------------------------------------------------------
class SimMonotonicity : public ::testing::TestWithParam<size_t>
{
};

TEST_P(SimMonotonicity, RuntimeMonotoneInResources)
{
    using namespace zkspeed::sim;
    const size_t mu = GetParam();
    Workload wl = Workload::mock(mu);
    DesignConfig base = DesignConfig::paper_default();
    base.sram_target_mu = mu;
    double t_base = Chip(base).run(wl).runtime_ms;
    // Doubling any single resource must not slow the design down.
    {
        DesignConfig c = base;
        c.msm_cores = 2;
        EXPECT_LE(Chip(c).run(wl).runtime_ms, t_base * 1.001);
    }
    {
        DesignConfig c = base;
        c.sumcheck_pes = 4;
        EXPECT_LE(Chip(c).run(wl).runtime_ms, t_base * 1.001);
    }
    {
        DesignConfig c = base;
        c.mle_update_modmuls = 8;
        EXPECT_LE(Chip(c).run(wl).runtime_ms, t_base * 1.001);
    }
    {
        DesignConfig c = base;
        c.frac_pes = 4;
        EXPECT_LE(Chip(c).run(wl).runtime_ms, t_base * 1.001);
    }
    {
        DesignConfig c = base;
        c.bandwidth_gbps = 4096;
        EXPECT_LE(Chip(c).run(wl).runtime_ms, t_base * 1.001);
    }
    // And larger problems always take longer on the same design.
    Workload bigger = Workload::mock(mu + 1);
    EXPECT_GT(Chip(base).run(bigger).runtime_ms, t_base);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SimMonotonicity,
                         ::testing::Values(17, 19, 21, 23));

// ---------------------------------------------------------------------
// Hash avalanche property.
// ---------------------------------------------------------------------
TEST(Keccak, AvalancheOnSingleBitFlips)
{
    std::string msg = "the quick brown fox jumps over the lazy dog";
    auto base = hash::sha3_256(msg);
    for (size_t bit : {0u, 7u, 100u, 300u}) {
        std::string flipped = msg;
        flipped[bit / 8] ^= char(1 << (bit % 8));
        auto d = hash::sha3_256(flipped);
        // Hamming distance should be near 128 of 256 bits.
        int dist = 0;
        for (size_t i = 0; i < d.size(); ++i) {
            dist += __builtin_popcount(unsigned(d[i] ^ base[i]));
        }
        EXPECT_GT(dist, 80) << "bit " << bit;
        EXPECT_LT(dist, 176) << "bit " << bit;
    }
}

}  // namespace
