/**
 * @file
 * In-circuit keccak suite (suite #22): the src/keccak gadget library on
 * the fused multi-table lookup argument.
 *
 *  - Reference vectors: the round-parameterised circuit permutation
 *    matches hash::keccak_f1600 at every tested round count and limb
 *    width, and at the full 24 rounds the sponge node digest equals the
 *    real hash::keccak_256 across input vectors and Merkle depths.
 *  - Completeness: a reduced-round keccak-Merkle statement proves and
 *    verifies on the direct, deferred and batched paths, and its proof
 *    serialization round-trips canonically.
 *  - Cross-table soundness sweep: a triple valid under table A claimed
 *    under table B's tag is refused at the witness front door, and a
 *    proof forced past it is rejected by every verifier; a pairing-side
 *    proof mutation is isolated by batch bisection (REJECT_PROOF with
 *    the bisection fingering exactly the mutated proof).
 */
#include <gtest/gtest.h>

#include <memory>
#include <random>

#include "hash/keccak.hpp"
#include "hyperplonk/serialize.hpp"
#include "keccak/merkle.hpp"
#include "scenarios/circuits.hpp"
#include "scenarios/registry.hpp"
#include "scenarios/seed.hpp"
#include "verify/batch_verifier.hpp"

namespace {

using namespace zkspeed;
using namespace zkspeed::keccak;
using ff::Fr;
using hyperplonk::CircuitBuilder;
using hyperplonk::CircuitIndex;
using hyperplonk::Var;
using hyperplonk::Witness;

const uint64_t kSeed = scenarios::test_seed(2026);

std::string
repro()
{
    return "rerun with: ZKSPEED_TEST_SEED=" + std::to_string(kSeed) +
           " ctest -R test_keccak_circuit";
}

/** Random 5x5 lane state. */
std::array<uint64_t, 25>
random_state(std::mt19937_64 &rng)
{
    std::array<uint64_t, 25> st;
    for (auto &lane : st) lane = rng();
    return st;
}

struct ProvenStatement {
    CircuitIndex circuit;
    Witness witness;
    hyperplonk::VerifyingKey vk;
    std::vector<Fr> publics;
    hyperplonk::Proof proof;
};

/** keygen + prove a reduced-round keccak-Merkle statement. */
ProvenStatement
prove_keccak_merkle(uint64_t seed, size_t depth = 1, unsigned rounds = 1)
{
    std::mt19937_64 rng(seed);
    scenarios::circuits::KeccakMerkleParams p;
    p.depth = depth;
    p.rounds = rounds;
    auto [index, wit] = scenarios::circuits::keccak_merkle(p, rng);
    std::mt19937_64 srs_rng(seed ^ 0x5eed);
    auto srs = std::make_shared<pcs::Srs>(
        pcs::Srs::generate(index.num_vars, srs_rng));
    auto [pk, vk] = hyperplonk::keygen(index, srs);
    ProvenStatement st;
    st.publics = wit.public_inputs(index);
    st.proof = hyperplonk::prove(pk, wit);
    st.vk = vk;
    st.circuit = pk.index;
    st.witness = wit;
    return st;
}

TEST(KeccakTables, ChiTableEncodesTheNonlinearity)
{
    auto chi = lookup::Table::chi_table(3);
    ASSERT_EQ(chi.size(), 64u);
    for (uint64_t a = 0; a < 8; ++a) {
        for (uint64_t b = 0; b < 8; ++b) {
            const auto &row = chi.rows[a * 8 + b];
            EXPECT_EQ(row[0], Fr::from_uint(a));
            EXPECT_EQ(row[1], Fr::from_uint(b));
            EXPECT_EQ(row[2], Fr::from_uint(~a & b & 7));
        }
    }
}

TEST(KeccakCircuit, PermutationMatchesNativeAcrossRoundsAndWidths)
{
    SCOPED_TRACE(repro());
    std::mt19937_64 rng(kSeed + 1);
    for (unsigned rounds : {1u, 3u}) {
        for (unsigned limb_bits : {2u, 4u}) {
            SCOPED_TRACE("rounds=" + std::to_string(rounds) +
                         " limb_bits=" + std::to_string(limb_bits));
            auto in = random_state(rng);
            auto expect = in;
            hash::keccak_f1600(expect, rounds);

            CircuitBuilder cb;
            KeccakGadget g(cb,
                           KeccakParams::lookup(rounds, limb_bits));
            std::array<Lane, 25> st;
            for (int k = 0; k < 25; ++k) {
                st[k] = g.from_var(
                    cb.add_variable(Fr::from_uint(in[k])));
            }
            st = g.permute(std::move(st));
            for (int k = 0; k < 25; ++k) {
                EXPECT_EQ(g.value(st[k]), expect[k]) << "lane " << k;
            }
            auto [index, wit] = cb.build(2);
            EXPECT_TRUE(wit.satisfies_gates(index));
            EXPECT_TRUE(wit.satisfies_wiring(index));
            EXPECT_TRUE(wit.satisfies_lookups(index));
        }
    }
}

TEST(KeccakCircuit, FullRoundNodeDigestEqualsKeccak256Reference)
{
    SCOPED_TRACE(repro());
    std::mt19937_64 rng(kSeed + 2);
    // Several vectors: the 24-round circuit witness must reproduce the
    // reference hash::keccak_256 of the concatenated child digests.
    for (int vec = 0; vec < 3; ++vec) {
        DigestWords l{}, r{};
        for (auto &w : l) w = rng();
        for (auto &w : r) w = rng();
        uint8_t buf[64];
        for (int k = 0; k < 4; ++k) {
            for (int b = 0; b < 8; ++b) {
                buf[k * 8 + b] = uint8_t(l[k] >> (8 * b));
                buf[32 + k * 8 + b] = uint8_t(r[k] >> (8 * b));
            }
        }
        DigestWords ref = digest_to_words(
            hash::keccak_256(std::span<const uint8_t>(buf, 64)));
        EXPECT_EQ(native_node(l, r, 24), ref);

        CircuitBuilder cb;
        KeccakGadget g(cb, KeccakParams::lookup(24, 4));
        DigestLanes ll, rl;
        for (int k = 0; k < 4; ++k) {
            ll[k] = g.from_var(cb.add_variable(Fr::from_uint(l[k])));
            rl[k] = g.from_var(cb.add_variable(Fr::from_uint(r[k])));
        }
        DigestLanes out = node_hash(g, ll, rl);
        for (int k = 0; k < 4; ++k) {
            EXPECT_EQ(g.value(out[k]), ref[k]);
        }
        // The 74k-gate witness satisfies every constraint system layer
        // (proving at 2^17 stays in the bench/soak tier).
        auto [index, wit] = cb.build(2);
        EXPECT_TRUE(wit.satisfies_gates(index));
        EXPECT_TRUE(wit.satisfies_lookups(index));
    }
}

TEST(KeccakCircuit, MerklePathMatchesNativeAcrossDepths)
{
    SCOPED_TRACE(repro());
    std::mt19937_64 rng(kSeed + 3);
    for (size_t depth : {1ul, 3ul}) {
        DigestWords leaf{};
        for (auto &w : leaf) w = rng();
        std::vector<MerkleStep> path(depth);
        for (auto &step : path) {
            for (auto &w : step.sibling) w = rng();
            step.right = (rng() & 1) != 0;
        }
        // Chained native nodes are the ground truth for the helper.
        DigestWords expect = leaf;
        for (const auto &step : path) {
            expect = step.right
                         ? native_node(step.sibling, expect, 24)
                         : native_node(expect, step.sibling, 24);
        }
        EXPECT_EQ(native_path(leaf, path, 24), expect);

        // Reduced rounds in-circuit (full rounds covered above).
        CircuitBuilder cb;
        KeccakGadget g(cb, KeccakParams::lookup(2, 4));
        DigestLanes lanes;
        for (int k = 0; k < 4; ++k) {
            lanes[k] =
                g.from_var(cb.add_variable(Fr::from_uint(leaf[k])));
        }
        DigestLanes root = merkle_path(g, lanes, path);
        DigestWords want = native_path(leaf, path, 2);
        for (int k = 0; k < 4; ++k) {
            EXPECT_EQ(g.value(root[k]), want[k]);
        }
        auto [index, wit] = cb.build(2);
        EXPECT_TRUE(wit.satisfies_gates(index));
        EXPECT_TRUE(wit.satisfies_lookups(index));
    }
}

TEST(KeccakProof, ReducedRoundMerkleProvesOnEveryPath)
{
    SCOPED_TRACE(repro());
    auto st = prove_keccak_merkle(kSeed + 4);
    EXPECT_TRUE(hyperplonk::verify(st.vk, st.publics, st.proof));
    verifier::PairingAccumulator acc;
    ASSERT_TRUE(
        hyperplonk::verify_deferred(st.vk, st.publics, st.proof, acc));
    EXPECT_TRUE(acc.check());

    // The proof serializes canonically with its fused-lookup artifacts.
    auto bytes = hyperplonk::serde::serialize_proof(st.proof);
    auto back = hyperplonk::serde::deserialize_proof(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(hyperplonk::serde::serialize_proof(*back), bytes);
    EXPECT_TRUE(hyperplonk::verify(st.vk, st.publics, *back));

    // Forged public leaf word: every path must reject (the scenario
    // registry's keccak-merkle-wrong-leaf family).
    auto forged = st.publics;
    forged.front() += Fr::one();
    EXPECT_FALSE(hyperplonk::verify(st.vk, forged, st.proof));
}

TEST(KeccakProof, RegistryFamiliesRespectTheRoundsKnob)
{
    SCOPED_TRACE(repro());
    const auto &reg = scenarios::Registry::global();
    ASSERT_NE(reg.find("keccak-merkle"), nullptr);
    ASSERT_NE(reg.find("keccak-merkle-wrong-path"), nullptr);
    ASSERT_NE(reg.find("keccak-merkle-wrong-leaf"), nullptr);
    scenarios::Spec one, two;
    one.name = two.name = "keccak-merkle";
    one.seed = two.seed = kSeed + 5;
    one.knobs["rounds"] = 1;
    two.knobs["rounds"] = 2;
    auto a = reg.build(one);
    auto b = reg.build(two);
    EXPECT_TRUE(a.witness.satisfies_lookups(a.circuit));
    EXPECT_TRUE(b.witness.satisfies_lookups(b.circuit));
    EXPECT_GT(b.circuit.num_lookup_gates(), a.circuit.num_lookup_gates())
        << "a second round added no lookups";
    auto wrong = one;
    wrong.name = "keccak-merkle-wrong-path";
    auto w = reg.build(wrong);
    EXPECT_FALSE(w.witness.satisfies_gates(w.circuit))
        << "wrong-path family must break the root equality gates";
    EXPECT_TRUE(w.witness.satisfies_lookups(w.circuit));
}

// ---------------------------------------------------------------------
// Cross-table soundness sweep: a triple that IS a row of table A,
// claimed under table B's tag. The tagged LogUp fold must keep the
// banks apart: the front door refuses the witness, and a proof forced
// past it dies at verification.
// ---------------------------------------------------------------------

struct CrossTableCase {
    const char *name;
    /** Index into the gadget's bank registration order:
     * 0 = xor4, 1 = chi4, 2..4 = range1..range3. */
    size_t valid_under, claimed_under;
    uint64_t a, b, c;
};

TEST(KeccakSoundness, CrossTableClaimsAreRefusedAndUnprovable)
{
    SCOPED_TRACE(repro());
    // (3,5,6): an xor4 row (3^5). chi4(3,5) = ~3&5 = 4, so (3,5,4) is a
    // chi row. (5,0,0) is a range3 row but not a range1 row, and
    // 5^0 != 0 so it is no xor row either.
    const CrossTableCase kCases[] = {
        {"xor row under chi tag", 0, 1, 3, 5, 6},
        {"chi row under xor tag", 1, 0, 3, 5, 4},
        {"range row under xor tag", 4, 0, 5, 0, 0},
        {"wide range row under narrow range tag", 4, 2, 5, 0, 0},
    };
    std::mt19937_64 srs_seed(kSeed + 6);
    for (const auto &cc : kCases) {
        SCOPED_TRACE(cc.name);
        CircuitBuilder cb;
        KeccakGadget g(cb, KeccakParams::lookup(1, 4));
        // Table tags in registration order (xor, chi, range1..3) are
        // 1-based and contiguous.
        size_t tag_of[5] = {1, 2, 3, 4, 5};
        // An honest lookup keeps the bank populated.
        Var hx = cb.add_variable(Fr::from_uint(2));
        Var hy = cb.add_variable(Fr::from_uint(7));
        Var hz = cb.add_variable(Fr::from_uint(2 ^ 7));
        cb.add_lookup_gate(tag_of[0], hx, hy, hz);
        // The forged claim.
        Var fa = cb.add_variable(Fr::from_uint(cc.a));
        Var fb = cb.add_variable(Fr::from_uint(cc.b));
        Var fc = cb.add_variable(Fr::from_uint(cc.c));
        cb.add_lookup_gate(tag_of[cc.claimed_under], fa, fb, fc);
        auto [index, wit] = cb.build(2);
        // Sanity: the triple IS valid under its home table.
        {
            CircuitBuilder honest;
            KeccakGadget g2(honest, KeccakParams::lookup(1, 4));
            Var a2 = honest.add_variable(Fr::from_uint(cc.a));
            Var b2 = honest.add_variable(Fr::from_uint(cc.b));
            Var c2 = honest.add_variable(Fr::from_uint(cc.c));
            honest.add_lookup_gate(tag_of[cc.valid_under], a2, b2, c2);
            auto [hi, hw] = honest.build(2);
            EXPECT_TRUE(hw.satisfies_lookups(hi))
                << "case is miswired: triple not in its home table";
        }
        // Front door: REJECT_WITNESS.
        EXPECT_TRUE(wit.satisfies_gates(index));
        EXPECT_FALSE(wit.satisfies_lookups(index));
        // Forced past the front door: REJECT_PROOF on both PCS modes.
        std::mt19937_64 srs_rng(srs_seed());
        auto srs = std::make_shared<pcs::Srs>(
            pcs::Srs::generate(index.num_vars, srs_rng));
        auto [pk, vk] = hyperplonk::keygen(index, srs);
        auto proof = hyperplonk::prove(pk, wit);
        EXPECT_FALSE(hyperplonk::verify(vk, wit.public_inputs(index), proof));
    }
}

TEST(KeccakSoundness, BisectionFingersAPairingSideKeccakMutation)
{
    SCOPED_TRACE(repro());
    auto honest_a = prove_keccak_merkle(kSeed + 7);
    auto victim = prove_keccak_merkle(kSeed + 8);

    // Pairing-side corruption: survives every algebraic check, so only
    // the folded pairing flush can catch it — and bisection must finger
    // exactly the mutated proof without dragging the honest mate down.
    auto mutated = victim.proof;
    auto &q = mutated.gprime_proof.quotients[0];
    q = (curve::G1::from_affine(q) + curve::g1_generator()).to_affine();

    verifier::BatchVerifier bv;
    {
        verifier::PairingAccumulator a;
        ASSERT_TRUE(hyperplonk::verify_deferred(
            honest_a.vk, honest_a.publics, honest_a.proof, a));
        bv.add(std::move(a));
    }
    {
        verifier::PairingAccumulator a;
        ASSERT_TRUE(hyperplonk::verify_deferred(victim.vk, victim.publics,
                                                mutated, a));
        bv.add(std::move(a));
    }
    auto result = bv.flush();
    ASSERT_EQ(result.verdicts.size(), 2u);
    EXPECT_TRUE(result.verdicts[0]) << "honest keccak proof rejected";
    EXPECT_FALSE(result.verdicts[1]) << "mutation not detected";
    EXPECT_GT(result.stats.bisection_steps, 0u);
}

}  // namespace
