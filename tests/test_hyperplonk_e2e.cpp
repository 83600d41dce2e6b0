/**
 * @file
 * End-to-end HyperPlonk tests: prove + verify on builder and random
 * circuits, pairing-mode verification, and exhaustive tamper rejection.
 */
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>

#include "hyperplonk/serialize.hpp"
#include "proof_shapes.hpp"

namespace {

using namespace zkspeed::hyperplonk;
using zkspeed::ff::Fr;
using zkspeed::pcs::Srs;
namespace curve = zkspeed::curve;
using zkspeed::test::kProofShapes;
using zkspeed::test::proved;

struct E2eContext {
    ProvingKey pk;
    VerifyingKey vk;
    Witness wit;
    std::vector<Fr> publics;
};

E2eContext
make_setup(size_t mu, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    auto [index, wit] = random_circuit(mu, rng);
    auto srs = std::make_shared<Srs>(Srs::generate(mu, rng));
    auto [pk, vk] = keygen(std::move(index), srs);
    std::vector<Fr> publics = wit.public_inputs(pk.index);
    return {std::move(pk), std::move(vk), std::move(wit),
            std::move(publics)};
}

class E2eTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(E2eTest, ProveAndVerifyRandomCircuit)
{
    E2eContext s = make_setup(GetParam(), 80 + GetParam());
    Proof proof = prove(s.pk, s.wit);
    EXPECT_TRUE(verify(s.vk, s.publics, proof));
}

INSTANTIATE_TEST_SUITE_P(Sizes, E2eTest, ::testing::Values(3, 4, 5, 6, 8));

TEST(E2e, PairingModeVerifies)
{
    E2eContext s = make_setup(4, 90);
    Proof proof = prove(s.pk, s.wit);
    EXPECT_TRUE(verify(s.vk, s.publics, proof));
}

TEST(E2e, BuilderCircuitProves)
{
    CircuitBuilder cb;
    // Prove knowledge of x,y with (x + y) * x == 77 and x public.
    Var x = cb.add_public_input(Fr::from_uint(7));
    Var y = cb.add_variable(Fr::from_uint(4));
    Var s = cb.add_addition(x, y);
    Var p = cb.add_multiplication(s, x);
    cb.assert_constant(p, Fr::from_uint(77));
    auto [index, wit] = cb.build(3);
    ASSERT_TRUE(wit.satisfies_gates(index));

    std::mt19937_64 small_rng(7);
    auto small = std::make_shared<Srs>(
        Srs::generate(index.num_vars - 1, small_rng));
    EXPECT_THROW(keygen(index, small), std::invalid_argument);

    std::mt19937_64 rng(91);
    auto srs = std::make_shared<Srs>(Srs::generate(index.num_vars, rng));
    auto [pk, vk] = keygen(std::move(index), srs);
    Proof proof = prove(pk, wit);
    auto publics = wit.public_inputs(pk.index);
    EXPECT_TRUE(verify(vk, publics, proof));
    // Wrong public input must fail.
    std::vector<Fr> bad = publics;
    bad[0] += Fr::one();
    EXPECT_FALSE(verify(vk, bad, proof));
}

TEST(E2e, ProofSizeIsSuccinct)
{
    E2eContext s = make_setup(8, 92);
    Proof proof = prove(s.pk, s.wit);
    // HyperPlonk proofs are a few KB (paper: ~5 KB); ours must be within
    // the same order, and crucially much smaller than the witness.
    size_t witness_bytes = 3 * (size_t(1) << 8) * 32;
    EXPECT_LT(proof.size_bytes(), witness_bytes / 2);
    EXPECT_LT(proof.size_bytes(), 16 * 1024u);
}

TEST(E2e, RejectsCheatingWitness)
{
    E2eContext s = make_setup(5, 93);
    // Corrupt the witness so a gate is violated; the prover will emit
    // *some* proof but the verifier must reject it.
    Witness bad = s.wit;
    bad.w[2][7] += Fr::one();
    ASSERT_FALSE(bad.satisfies_gates(s.pk.index));
    Proof proof = prove(s.pk, bad);
    EXPECT_FALSE(verify(s.vk, s.publics, proof));
}

TEST(E2e, WitnessOfTheWrongSizeThrows)
{
    // A 2^6 witness against a 2^3 key would commit against Lagrange
    // levels the SRS does not have; prove rejects it naming both sizes.
    E2eContext s = make_setup(3, 94);
    std::mt19937_64 rng(95);
    Witness big = random_circuit(6, rng).second;
    EXPECT_THROW(prove(s.pk, big), std::invalid_argument);
    try {
        prove(s.pk, big);
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("2^6"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("2^3"), std::string::npos);
    }
    // One short column is enough.
    Witness ragged = s.wit;
    ragged.w[1] = Mle(2);
    EXPECT_THROW(prove(s.pk, ragged), std::invalid_argument);
}

TEST(E2e, RejectsBrokenWiring)
{
    E2eContext s = make_setup(5, 94);
    // Find a slot that is copy-constrained and break only the copy.
    Mle id = s.pk.index.identity_mle(1);
    size_t victim = SIZE_MAX;
    for (size_t i = 0; i < s.pk.index.num_gates(); ++i) {
        if (!(s.pk.index.sigma[1][i] == id[i])) {
            victim = i;
            break;
        }
    }
    ASSERT_NE(victim, SIZE_MAX);
    Witness bad = s.wit;
    // Keep the gate satisfied by recomputing w3 but break the copy.
    bad.w[1][victim] += Fr::one();
    bad.w[2][victim] = s.pk.index.q_l[victim] * bad.w[0][victim] +
                       s.pk.index.q_r[victim] * bad.w[1][victim] +
                       s.pk.index.q_m[victim] * bad.w[0][victim] *
                           bad.w[1][victim] +
                       s.pk.index.q_c[victim];
    Proof proof = prove(s.pk, bad);
    EXPECT_FALSE(verify(s.vk, s.publics, proof));
}

/** Every prover message is attacked in turn; all must be rejected. */
class TamperTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        s_ = std::make_unique<E2eContext>(make_setup(4, 95));
        proof_ = prove(s_->pk, s_->wit);
        ASSERT_TRUE(verify(s_->vk, s_->publics, proof_));
    }

    std::unique_ptr<E2eContext> s_;
    Proof proof_;

    bool
    verify_tampered(const Proof &p)
    {
        return verify(s_->vk, s_->publics, p);
    }

    static curve::G1Affine
    bump(const curve::G1Affine &p)
    {
        return (curve::G1::from_affine(p) + zkspeed::curve::g1_generator())
            .to_affine();
    }
};

TEST_F(TamperTest, WitnessCommitment)
{
    for (size_t j = 0; j < 3; ++j) {
        Proof p = proof_;
        p.witness_comms[j] = bump(p.witness_comms[j]);
        EXPECT_FALSE(verify_tampered(p)) << "witness comm " << j;
    }
}

TEST_F(TamperTest, PhiPiCommitments)
{
    {
        Proof p = proof_;
        p.phi_comm = bump(p.phi_comm);
        EXPECT_FALSE(verify_tampered(p));
    }
    {
        Proof p = proof_;
        p.pi_comm = bump(p.pi_comm);
        EXPECT_FALSE(verify_tampered(p));
    }
}

TEST_F(TamperTest, SumcheckMessages)
{
    {
        Proof p = proof_;
        p.zerocheck.round_evals[0][0] += Fr::one();
        EXPECT_FALSE(verify_tampered(p));
    }
    {
        Proof p = proof_;
        p.permcheck.round_evals[1][2] += Fr::one();
        EXPECT_FALSE(verify_tampered(p));
    }
    {
        Proof p = proof_;
        p.opencheck.round_evals[2][1] += Fr::one();
        EXPECT_FALSE(verify_tampered(p));
    }
}

TEST_F(TamperTest, EveryBatchEvaluation)
{
    // Every claim of the plain (22), custom-gate (23) and lookup (33)
    // tables: the bumped proof still decodes, and verify rejects it.
    const size_t claims[] = {22, 23, 33};
    for (size_t i = 0; i < std::size(kProofShapes); ++i) {
        const auto &s = proved(kProofShapes[i]);
        const char *family = kProofShapes[i].family;
        ASSERT_EQ(s.proof.evals.size(), claims[i]) << family;
        for (size_t c = 0; c < claims[i]; ++c) {
            Proof p = s.proof;
            p.evals[c] += Fr::one();
            auto back = serde::deserialize_proof(serde::serialize_proof(p));
            ASSERT_TRUE(back.has_value()) << family << " claim " << c;
            EXPECT_FALSE(verify(s.vk, s.publics, *back))
                << family << " claim " << c;
        }
    }
}

TEST_F(TamperTest, OpeningProofAndValue)
{
    {
        Proof p = proof_;
        p.gprime_value += Fr::one();
        EXPECT_FALSE(verify_tampered(p));
    }
    for (size_t k = 0; k < proof_.gprime_proof.quotients.size(); ++k) {
        Proof p = proof_;
        p.gprime_proof.quotients[k] = bump(p.gprime_proof.quotients[k]);
        EXPECT_FALSE(verify_tampered(p)) << "quotient " << k;
    }
}

TEST_F(TamperTest, ProofsAreNotTransferable)
{
    // A proof for one circuit/witness must not verify under another vk.
    E2eContext other = make_setup(4, 96);
    EXPECT_FALSE(verify(other.vk, other.publics, proof_));
}

}  // namespace
