/**
 * @file
 * Tests for the high-degree custom-gate extension (q_H w1^5, the
 * Jellyfish direction of the paper's Section 8): circuit semantics,
 * end-to-end proving with the degree-7 ZeroCheck and 23-claim batch
 * opening, serialization, and cross-flag rejection.
 */
#include <gtest/gtest.h>

#include <random>

#include "hyperplonk/gadgets.hpp"
#include "hyperplonk/serialize.hpp"

namespace {

using namespace zkspeed::hyperplonk;
namespace g = zkspeed::hyperplonk::gadgets;
using zkspeed::ff::Fr;
using zkspeed::pcs::Srs;

TEST(CustomGates, Pow5GateSemantics)
{
    CircuitBuilder cb;
    Var x = cb.add_variable(Fr::from_uint(3));
    Var y = cb.add_pow5_gate(x);
    EXPECT_EQ(cb.value(y), Fr::from_uint(243));  // 3^5
    auto [index, wit] = cb.build();
    EXPECT_TRUE(index.custom_gates);
    EXPECT_TRUE(wit.satisfies_gates(index));
    EXPECT_TRUE(wit.satisfies_wiring(index));
    // A wrong output value must violate the gate.
    Witness bad = wit;
    bad.w[2][0] += Fr::one();  // pow5 gate is the first (no publics)
    // Locate the custom gate row robustly.
    bool violated = !bad.satisfies_gates(index);
    EXPECT_TRUE(violated);
}

TEST(CustomGates, PlainCircuitsStayBaseProtocol)
{
    CircuitBuilder cb;
    Var x = cb.add_variable(Fr::from_uint(2));
    cb.add_multiplication(x, x);
    auto [index, wit] = cb.build();
    EXPECT_FALSE(index.custom_gates);
    (void)wit;
}

TEST(CustomGates, EndToEndProveVerify)
{
    // x public, prove knowledge of y with y^5 + x == 7779.
    CircuitBuilder cb;
    Var x = cb.add_public_input(Fr::from_uint(4));
    Var y = cb.add_variable(Fr::from_uint(6));
    Var y5 = cb.add_pow5_gate(y);  // 7776
    Var s = cb.add_addition(y5, x);
    cb.assert_constant(s, Fr::from_uint(7780));
    auto [index, wit] = cb.build(3);
    ASSERT_TRUE(index.custom_gates);
    ASSERT_TRUE(wit.satisfies_gates(index));

    std::mt19937_64 rng(401);
    auto srs = std::make_shared<Srs>(Srs::generate(index.num_vars, rng));
    auto [pk, vk] = keygen(std::move(index), srs);
    EXPECT_TRUE(vk.custom_gates);
    Proof proof = prove(pk, wit);
    // Degree-7 ZeroCheck: 8 evaluations per round.
    EXPECT_EQ(proof.zerocheck.degree, 7u);
    EXPECT_EQ(proof.evals.count(), 23u);
    auto publics = wit.public_inputs(pk.index);
    EXPECT_TRUE(verify(vk, publics, proof));

    // Tampering with the q_H evaluation must be rejected.
    Proof bad = proof;
    bad.evals.qh_at_gate += Fr::one();
    EXPECT_FALSE(verify(vk, publics, bad));
    // Flag mismatch must be rejected.
    bad = proof;
    bad.evals.custom = false;
    EXPECT_FALSE(verify(vk, publics, bad));
}

TEST(CustomGates, RescueWithCustomGatesSavesGates)
{
    Fr a = Fr::from_uint(10), b = Fr::from_uint(20);
    Fr expect = g::rescue_hash2_value(a, b);

    auto build = [&](const g::RescueParams &params) {
        CircuitBuilder cb;
        Var va = cb.add_variable(a);
        Var vb = cb.add_variable(b);
        Var h = g::rescue_hash2(cb, va, vb, params);
        EXPECT_EQ(cb.value(h), expect);
        return cb.num_gates();
    };
    size_t plain = build(g::RescueParams::standard());
    size_t custom = build(g::RescueParams::with_custom_gates());
    // Each forward S-box shrinks from 3 gates to 1 (3 lanes x rounds).
    EXPECT_EQ(plain - custom,
              size_t(2 * 3 * g::RescueParams::standard().rounds));
}

TEST(CustomGates, RescueCustomCircuitProves)
{
    Fr a = Fr::from_uint(5), b = Fr::from_uint(9);
    Fr h = g::rescue_hash2_value(a, b);
    CircuitBuilder cb;
    Var pub = cb.add_public_input(h);
    Var va = cb.add_variable(a);
    Var vb = cb.add_variable(b);
    Var out =
        g::rescue_hash2(cb, va, vb, g::RescueParams::with_custom_gates());
    cb.assert_equal(out, pub);
    auto [index, wit] = cb.build();
    ASSERT_TRUE(index.custom_gates);
    ASSERT_TRUE(wit.satisfies_gates(index));

    std::mt19937_64 rng(402);
    auto srs = std::make_shared<Srs>(Srs::generate(index.num_vars, rng));
    auto [pk, vk] = keygen(std::move(index), srs);
    Proof proof = prove(pk, wit);
    EXPECT_TRUE(verify(vk, wit.public_inputs(pk.index), proof));
}

TEST(CustomGates, SerializationRoundTrip)
{
    CircuitBuilder cb;
    Var x = cb.add_public_input(Fr::from_uint(2));
    Var y = cb.add_pow5_gate(x);
    (void)y;
    auto [index, wit] = cb.build(3);
    std::mt19937_64 rng(403);
    auto srs = std::make_shared<Srs>(Srs::generate(index.num_vars, rng));
    auto [pk, vk] = keygen(std::move(index), srs);
    Proof proof = prove(pk, wit);
    auto publics = wit.public_inputs(pk.index);
    ASSERT_TRUE(verify(vk, publics, proof));

    auto bytes = serde::serialize_proof(proof);
    auto back = serde::deserialize_proof(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(back->evals.custom);
    EXPECT_TRUE(verify(vk, publics, *back));

    auto vk_bytes = serde::serialize_verifying_key(vk);
    auto vk2 = serde::deserialize_verifying_key(vk_bytes);
    ASSERT_TRUE(vk2.has_value());
    EXPECT_TRUE(vk2->custom_gates);
    EXPECT_TRUE(verify(*vk2, publics, proof));
}

}  // namespace
