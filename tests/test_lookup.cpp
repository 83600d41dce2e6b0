/**
 * @file
 * Lookup-argument suite (suite #21): table builders, tagged LogUp
 * helper algebra over fused multi-table banks, completeness/soundness
 * property tests under ZKSPEED_TEST_SEED, lookup-proof serialization
 * round trips, a proof-field mutation sweep over the lookup artifacts
 * (every mutation rejected; pairing-side ones isolated by batch
 * bisection), table-registration ergonomics (set_table alias,
 * structured TableSizeError), parallel-multiplicity determinism, and
 * the wire/request round trip for single- and multi-table circuits.
 */
#include <gtest/gtest.h>

#include <random>

#include "ff/parallel.hpp"
#include "hyperplonk/gadgets.hpp"
#include "hyperplonk/protocol_common.hpp"
#include "hyperplonk/serialize.hpp"
#include "lookup/logup.hpp"
#include "runtime/wire.hpp"
#include "scenarios/circuits.hpp"
#include "scenarios/seed.hpp"
#include "verify/batch_verifier.hpp"

namespace {

using namespace zkspeed;
using ff::Fr;
using hyperplonk::CircuitBuilder;
using hyperplonk::CircuitIndex;
using hyperplonk::Witness;
namespace gadgets = hyperplonk::gadgets;

const uint64_t kSeed = scenarios::test_seed(2026);

std::string
repro()
{
    return "rerun with: ZKSPEED_TEST_SEED=" + std::to_string(kSeed) +
           " ctest -R test_lookup";
}

struct ProvenStatement {
    CircuitIndex circuit;
    Witness witness;
    hyperplonk::VerifyingKey vk;
    std::vector<Fr> publics;
    hyperplonk::Proof proof;
};

/** keygen + prove a lookup range bank (values 6-bit values). */
ProvenStatement
prove_range_lookup(uint64_t seed, size_t values = 4, unsigned bits = 5)
{
    std::mt19937_64 rng(seed);
    auto [index, wit] =
        scenarios::circuits::range_bank_lookup(values, bits, rng);
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

TEST(Table, BuildersProduceTheDeclaredRows)
{
    auto range = lookup::Table::range(4);
    ASSERT_EQ(range.size(), 16u);
    EXPECT_EQ(range.rows[7][0], Fr::from_uint(7));
    EXPECT_TRUE(range.rows[7][1].is_zero());
    EXPECT_TRUE(range.rows[7][2].is_zero());

    auto xt = lookup::Table::xor_table(3);
    ASSERT_EQ(xt.size(), 64u);
    for (uint64_t a = 0; a < 8; ++a) {
        for (uint64_t b = 0; b < 8; ++b) {
            const auto &row = xt.rows[a * 8 + b];
            EXPECT_EQ(row[0], Fr::from_uint(a));
            EXPECT_EQ(row[1], Fr::from_uint(b));
            EXPECT_EQ(row[2], Fr::from_uint(a ^ b));
        }
    }
}

TEST(Table, CircuitEmbeddingAndWitnessChecks)
{
    SCOPED_TRACE(repro());
    std::mt19937_64 rng(kSeed + 1);
    auto [index, wit] =
        scenarios::circuits::range_bank_lookup(3, 4, rng, 2);
    ASSERT_TRUE(index.has_lookup);
    EXPECT_EQ(index.table_rows, 16u);
    EXPECT_GE(index.num_gates(), index.table_rows);
    // One lookup gate per value.
    size_t lookups = 0;
    for (size_t i = 0; i < index.q_lookup.size(); ++i) {
        if (!index.q_lookup[i].is_zero()) ++lookups;
    }
    EXPECT_EQ(lookups, 3u);
    EXPECT_TRUE(wit.satisfies_gates(index));
    EXPECT_TRUE(wit.satisfies_wiring(index));
    EXPECT_TRUE(wit.satisfies_lookups(index));

    // Perturb a looked-up wire: only the lookup check must trip.
    Witness bad = wit;
    for (size_t i = 0; i < index.q_lookup.size(); ++i) {
        if (!index.q_lookup[i].is_zero()) {
            bad.w[1][i] += Fr::one();
            break;
        }
    }
    EXPECT_TRUE(bad.satisfies_gates(index));
    EXPECT_FALSE(bad.satisfies_lookups(index));
}

TEST(LogUp, MultiplicitiesCountEveryLookupAndFractionsBalance)
{
    SCOPED_TRACE(repro());
    std::mt19937_64 rng(kSeed + 2);
    auto [index, wit] =
        scenarios::circuits::xor_rescue_lookup(5, 3, rng, 2);
    ASSERT_TRUE(index.has_lookup);
    const std::array<const mle::Mle *, 3> wires = {&wit.w[0], &wit.w[1],
                                                   &wit.w[2]};
    mle::Mle m = lookup::multiplicities(index.q_lookup, index.table_tag,
                                        index.table, index.table_rows,
                                        wires);
    // Total multiplicity == number of active lookup rows.
    Fr total = Fr::zero(), lookups = Fr::zero();
    for (size_t i = 0; i < m.size(); ++i) {
        total += m[i];
        lookups += index.q_lookup[i];
    }
    EXPECT_EQ(total, lookups);

    // The fractional identity holds for any challenge draw.
    std::mt19937_64 chal(kSeed + 3);
    Fr lambda = Fr::random(chal), gamma = Fr::random(chal);
    auto oracles = lookup::build_helper_oracles(
        index.q_lookup, index.table_tag, index.table, wires, m, lambda,
        gamma);
    Fr lhs = Fr::zero(), rhs = Fr::zero();
    for (size_t i = 0; i < m.size(); ++i) {
        lhs += (*oracles.h_f)[i];
        rhs += (*oracles.h_t)[i];
    }
    EXPECT_EQ(lhs, rhs) << "sum h_f != sum h_t on an honest witness";

    // Per-row well-formedness: h_f (lambda + f) == q_lookup and
    // h_t (lambda + t) == m, with the tagged 4-column folds.
    for (size_t i = 0; i < m.size(); ++i) {
        Fr f = lambda + lookup::fold_tagged(index.q_lookup[i],
                                            wit.w[0][i], wit.w[1][i],
                                            wit.w[2][i], gamma);
        Fr t = lambda + lookup::fold_tagged(index.table_tag[i],
                                            index.table[0][i],
                                            index.table[1][i],
                                            index.table[2][i], gamma);
        EXPECT_EQ((*oracles.h_f)[i] * f, index.q_lookup[i]);
        EXPECT_EQ((*oracles.h_t)[i] * t, m[i]);
    }
}

TEST(LogUp, ParallelMultiplicityConstructionMatchesSerial)
{
    SCOPED_TRACE(repro());
    // Big enough that ff::parallel_for actually forks (2^mu rows carry
    // several grains of work): ~2000 lookup gates put the circuit at
    // 2^13 rows.
    std::mt19937_64 rng(kSeed + 40);
    auto [index, wit] =
        scenarios::circuits::range_bank_lookup(2000, 8, rng, 2);
    const std::array<const mle::Mle *, 3> wires = {&wit.w[0], &wit.w[1],
                                                   &wit.w[2]};
    mle::Mle serial, parallel;
    {
        zkspeed::ff::WorkerBudgetScope budget(1);
        serial = lookup::multiplicities(index.q_lookup, index.table_tag,
                                        index.table, index.table_rows,
                                        wires);
    }
    {
        zkspeed::ff::WorkerBudgetScope budget(8);
        parallel = lookup::multiplicities(index.q_lookup, index.table_tag,
                                          index.table, index.table_rows,
                                          wires);
    }
    EXPECT_EQ(serial, parallel)
        << "parallel multiplicity pass is not bit-identical to serial";
}

TEST(LookupProof, CompletenessAcrossEveryVerificationPath)
{
    SCOPED_TRACE(repro());
    auto st = prove_range_lookup(kSeed + 4);
    EXPECT_TRUE(hyperplonk::verify(st.vk, st.publics, st.proof));
    verifier::PairingAccumulator acc;
    ASSERT_TRUE(
        hyperplonk::verify_deferred(st.vk, st.publics, st.proof, acc));
    EXPECT_TRUE(acc.check());

    // XOR table flavour too (3-column relation rows).
    std::mt19937_64 rng(kSeed + 5);
    auto [index, wit] = scenarios::circuits::xor_rescue_lookup(4, 3, rng);
    std::mt19937_64 srs_rng(kSeed + 6);
    auto srs = std::make_shared<pcs::Srs>(
        pcs::Srs::generate(index.num_vars, srs_rng));
    auto [pk, vk] = hyperplonk::keygen(index, srs);
    auto proof = hyperplonk::prove(pk, wit);
    EXPECT_TRUE(hyperplonk::verify(vk, wit.public_inputs(index), proof));
}

TEST(LookupProof, OutOfTableWitnessCannotProduceAValidProof)
{
    SCOPED_TRACE(repro());
    std::mt19937_64 rng(kSeed + 7);
    auto [index, wit] = scenarios::circuits::range_bank_lookup(4, 5, rng);
    // Push a looked-up triple out of the table (past the front door).
    bool broke = false;
    for (size_t i = 0; i < index.q_lookup.size(); ++i) {
        if (!index.q_lookup[i].is_zero()) {
            wit.w[1][i] += Fr::one();
            broke = true;
            break;
        }
    }
    ASSERT_TRUE(broke);
    ASSERT_FALSE(wit.satisfies_lookups(index));
    std::mt19937_64 srs_rng(kSeed + 8);
    auto srs = std::make_shared<pcs::Srs>(
        pcs::Srs::generate(index.num_vars, srs_rng));
    auto [pk, vk] = hyperplonk::keygen(index, srs);
    // Force a prove anyway: soundness demands the proof not verify.
    auto proof = hyperplonk::prove(pk, wit);
    EXPECT_FALSE(hyperplonk::verify(vk, wit.public_inputs(index), proof));
}

TEST(LookupProof, SerializationRoundTripPreservesLookupArtifacts)
{
    SCOPED_TRACE(repro());
    auto st = prove_range_lookup(kSeed + 9);
    ASSERT_TRUE(st.proof.has_lookup);
    auto bytes = hyperplonk::serde::serialize_proof(st.proof);
    EXPECT_EQ(bytes.size(), st.proof.size_bytes());
    auto back = hyperplonk::serde::deserialize_proof(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(back->has_lookup);
    EXPECT_EQ(back->m_comm, st.proof.m_comm);
    EXPECT_EQ(back->hf_comm, st.proof.hf_comm);
    EXPECT_EQ(back->ht_comm, st.proof.ht_comm);
    EXPECT_EQ(back->lookupcheck.round_evals,
              st.proof.lookupcheck.round_evals);
    EXPECT_EQ(back->evals, st.proof.evals);
    // Canonical: re-encoding reproduces the bytes, and the decoded
    // proof still verifies.
    EXPECT_EQ(hyperplonk::serde::serialize_proof(*back), bytes);
    EXPECT_TRUE(hyperplonk::verify(st.vk, st.publics, *back));

    // The vk round-trips its lookup commitments (pairing-mode SRS).
    auto vk_bytes = hyperplonk::serde::serialize_verifying_key(st.vk);
    auto vk_back =
        hyperplonk::serde::deserialize_verifying_key(vk_bytes);
    ASSERT_TRUE(vk_back.has_value());
    EXPECT_TRUE(vk_back->has_lookup);
    EXPECT_EQ(vk_back->lookup_comms, st.vk.lookup_comms);
    EXPECT_TRUE(hyperplonk::verify(*vk_back, st.publics, *back));

    // Truncations die in strict decoding.
    for (size_t len : {0ul, 9ul, bytes.size() / 2, bytes.size() - 1}) {
        auto cut = std::span<const uint8_t>(bytes.data(), len);
        EXPECT_FALSE(
            hyperplonk::serde::deserialize_proof(cut).has_value())
            << len;
    }
    // Unknown flag bits die too (byte 8 is the flags byte).
    auto bad_flags = bytes;
    bad_flags[8] |= 0x80;
    EXPECT_FALSE(
        hyperplonk::serde::deserialize_proof(bad_flags).has_value());
}

// ---------------------------------------------------------------------
// Proof-field mutation sweep over the lookup artifacts: every mutation
// must decode and then be rejected — inline by the algebra, or, for
// pairing-side fields, by the batch fold with bisection fingering
// exactly the mutated proof.
// ---------------------------------------------------------------------

struct LookupMutation {
    const char *field;
    std::function<void(hyperplonk::Proof &)> apply;
};

std::vector<LookupMutation>
lookup_mutations()
{
    auto bump_g1 = [](curve::G1Affine &p) {
        p = (curve::G1::from_affine(p) + curve::g1_generator()).to_affine();
    };
    std::vector<LookupMutation> muts;
    muts.push_back({"m_comm", [bump_g1](hyperplonk::Proof &p) {
                        bump_g1(p.m_comm);
                    }});
    muts.push_back({"hf_comm", [bump_g1](hyperplonk::Proof &p) {
                        bump_g1(p.hf_comm);
                    }});
    muts.push_back({"ht_comm", [bump_g1](hyperplonk::Proof &p) {
                        bump_g1(p.ht_comm);
                    }});
    muts.push_back({"lookupcheck.round_evals[0][0]",
                    [](hyperplonk::Proof &p) {
                        p.lookupcheck.round_evals[0][0] += Fr::one();
                    }});
    // The 11 LookupCheck-point claims trail the claim table.
    static const char *kNames[] = {
        "evals[w1 at r_l]", "evals[w2 at r_l]", "evals[w3 at r_l]",
        "evals[q_lookup at r_l]", "evals[tag at r_l]", "evals[t1 at r_l]",
        "evals[t2 at r_l]", "evals[t3 at r_l]", "evals[m at r_l]",
        "evals[h_f at r_l]", "evals[h_t at r_l]"};
    for (size_t e = 0; e < std::size(kNames); ++e) {
        muts.push_back({kNames[e], [e](hyperplonk::Proof &p) {
                            p.evals.at(p.evals.size() - 11 + e) += Fr::one();
                        }});
    }
    muts.push_back({"gprime_proof.quotients[0]",
                    [bump_g1](hyperplonk::Proof &p) {
                        bump_g1(p.gprime_proof.quotients[0]);
                    }});
    return muts;
}

TEST(LookupMutation, EveryFieldMutationIsRejectedAndBisectionFingersIt)
{
    SCOPED_TRACE(repro());
    auto honest_a = prove_range_lookup(kSeed + 10);
    auto honest_b = prove_range_lookup(kSeed + 11);
    auto victim = prove_range_lookup(kSeed + 12);

    size_t algebra_rejections = 0, batch_rejections = 0;
    for (const LookupMutation &mut : lookup_mutations()) {
        SCOPED_TRACE(mut.field);
        auto mutated = victim.proof;
        mut.apply(mutated);

        // The mutation must survive the serialization boundary.
        auto bytes = hyperplonk::serde::serialize_proof(mutated);
        auto decoded = hyperplonk::serde::deserialize_proof(bytes);
        ASSERT_TRUE(decoded.has_value());

        verifier::PairingAccumulator acc;
        bool algebra_ok = hyperplonk::verify_deferred(
            victim.vk, victim.publics, *decoded, acc);
        EXPECT_FALSE(hyperplonk::verify(victim.vk, victim.publics, *decoded));
        if (!algebra_ok) {
            EXPECT_TRUE(acc.empty());
            ++algebra_rejections;
            continue;
        }

        // Algebraically clean: the folded pairing check must catch it,
        // and bisection must isolate exactly the mutated proof.
        verifier::BatchVerifier bv;
        for (const ProvenStatement *st : {&honest_a, &victim, &honest_b}) {
            verifier::PairingAccumulator a;
            const hyperplonk::Proof &pr =
                st == &victim ? *decoded : st->proof;
            ASSERT_TRUE(
                hyperplonk::verify_deferred(st->vk, st->publics, pr, a));
            bv.add(std::move(a));
        }
        auto result = bv.flush();
        ASSERT_EQ(result.verdicts.size(), 3u);
        EXPECT_TRUE(result.verdicts[0]) << "honest batch-mate rejected";
        EXPECT_FALSE(result.verdicts[1]) << "mutation not detected";
        EXPECT_TRUE(result.verdicts[2]) << "honest batch-mate rejected";
        EXPECT_GT(result.stats.bisection_steps, 0u);
        ++batch_rejections;
    }
    // The transcript binds the lookup commitments and claimed evals, so
    // those mutations die algebraically; the quotient mutation is the
    // pairing-side corruption only the batch flush can see.
    EXPECT_GE(algebra_rejections, 14u);
    EXPECT_GE(batch_rejections, 1u);
}

TEST(LookupWire, RequestRoundTripCarriesTheTable)
{
    SCOPED_TRACE(repro());
    std::mt19937_64 rng(kSeed + 13);
    auto [index, wit] = scenarios::circuits::range_bank_lookup(3, 4, rng);
    runtime::JobRequest req;
    req.request_id = 77;
    req.circuit = index;
    req.witness = wit;
    auto bytes = runtime::wire::encode_request(req);
    auto back = runtime::wire::decode_request(bytes);
    ASSERT_TRUE(back.has_value());
    ASSERT_TRUE(back->circuit.has_lookup);
    EXPECT_EQ(back->circuit.table_rows, index.table_rows);
    EXPECT_EQ(back->circuit.table_row_counts, index.table_row_counts);
    EXPECT_EQ(back->circuit.q_lookup, index.q_lookup);
    // The tag column is reconstructed from the counts, bit for bit.
    EXPECT_EQ(back->circuit.table_tag, index.table_tag);
    for (size_t k = 0; k < 3; ++k) {
        EXPECT_EQ(back->circuit.table[k], index.table[k]);
    }
    EXPECT_EQ(runtime::wire::encode_request(*back), bytes);

    // Strictness: non-boolean q_lookup and oversized table_rows reject.
    auto non_bool = req;
    for (size_t i = 0; i < non_bool.circuit.q_lookup.size(); ++i) {
        if (!non_bool.circuit.q_lookup[i].is_zero()) {
            non_bool.circuit.q_lookup[i] = Fr::from_uint(2);
            break;
        }
    }
    EXPECT_FALSE(runtime::wire::decode_request(
                     runtime::wire::encode_request(non_bool))
                     .has_value());
    auto oversized = req;
    oversized.circuit.table_row_counts[0] = index.num_gates() + 1;
    EXPECT_FALSE(runtime::wire::decode_request(
                     runtime::wire::encode_request(oversized))
                     .has_value());
    auto too_many_tables = req;
    too_many_tables.circuit.table_row_counts.assign(
        runtime::wire::kMaxRequestTables + 1, 1);
    EXPECT_FALSE(runtime::wire::decode_request(
                     runtime::wire::encode_request(too_many_tables))
                     .has_value());
    // A count huge enough to wrap the running total must be rejected
    // before it can size the tag-column reconstruction (the decoder
    // bounds each count before accumulating).
    auto wrapping = req;
    wrapping.circuit.table_row_counts = {1, ~uint64_t(0)};
    EXPECT_FALSE(runtime::wire::decode_request(
                     runtime::wire::encode_request(wrapping))
                     .has_value());
    // Padding rows must be copies of row 0: a garbage row past
    // table_rows would widen the committed table beyond the declared
    // one (the LogUp sum runs over all 2^mu rows). Build with a
    // table shorter than the circuit so padding rows exist.
    std::mt19937_64 rng2(kSeed + 14);
    auto [pad_index, pad_wit] =
        scenarios::circuits::range_bank_lookup(3, 3, rng2, 4);
    runtime::JobRequest widened;
    widened.request_id = 78;
    widened.circuit = pad_index;
    widened.witness = pad_wit;
    ASSERT_GT(widened.circuit.table[0].size(), pad_index.table_rows);
    EXPECT_TRUE(runtime::wire::decode_request(
                    runtime::wire::encode_request(widened))
                    .has_value());
    widened.circuit.table[0][pad_index.table_rows] = Fr::from_uint(999);
    EXPECT_FALSE(runtime::wire::decode_request(
                     runtime::wire::encode_request(widened))
                     .has_value());
}

// ---------------------------------------------------------------------
// Multi-table fusion: several tables in one circuit fold into one
// tagged LogUp argument.
// ---------------------------------------------------------------------

/** A circuit mixing a range(bits) table and an xor(bits) table: every
 * drawn value is range-checked under tag 1 and XOR-folded into a
 * running checksum under tag 2, checksum public. */
std::pair<CircuitIndex, Witness>
fused_range_xor_circuit(uint64_t seed, size_t values = 4,
                        unsigned bits = 3)
{
    std::mt19937_64 rng(seed);
    const uint64_t mask = (uint64_t(1) << bits) - 1;
    CircuitBuilder cb;
    size_t range_tag = cb.add_table(lookup::Table::range(bits));
    size_t xor_tag = cb.add_table(lookup::Table::xor_table(bits));
    uint64_t acc_val = rng() & mask;
    hyperplonk::Var acc = cb.add_variable(Fr::from_uint(acc_val));
    gadgets::range_via_lookup(cb, acc, range_tag);
    for (size_t i = 0; i < values; ++i) {
        uint64_t v = rng() & mask;
        hyperplonk::Var x = cb.add_variable(Fr::from_uint(v));
        gadgets::range_via_lookup(cb, x, range_tag);
        acc = gadgets::xor_via_lookup(cb, acc, x, xor_tag);
        acc_val ^= v;
    }
    hyperplonk::Var pub = cb.add_public_input(Fr::from_uint(acc_val));
    cb.assert_equal(pub, acc);
    return cb.build(2);
}

TEST(MultiTable, FusedBankEmbedsTagsAndCounts)
{
    SCOPED_TRACE(repro());
    auto [index, wit] = fused_range_xor_circuit(kSeed + 20);
    ASSERT_TRUE(index.has_lookup);
    ASSERT_EQ(index.num_tables(), 2u);
    EXPECT_EQ(index.table_row_counts[0], 8u);   // range3
    EXPECT_EQ(index.table_row_counts[1], 64u);  // xor3
    EXPECT_EQ(index.table_rows, 72u);
    // Tag column: 1 over the range slice, 2 over the xor slice, and
    // padding copies bank row 0 (tag 1).
    EXPECT_EQ(index.table_tag[0], Fr::one());
    EXPECT_EQ(index.table_tag[7], Fr::one());
    EXPECT_EQ(index.table_tag[8], Fr::from_uint(2));
    EXPECT_EQ(index.table_tag[71], Fr::from_uint(2));
    EXPECT_EQ(index.table_tag[72], Fr::one());
    // q_lookup carries the per-gate tags.
    bool saw_tag1 = false, saw_tag2 = false;
    for (size_t i = 0; i < index.q_lookup.size(); ++i) {
        if (index.q_lookup[i] == Fr::one()) saw_tag1 = true;
        if (index.q_lookup[i] == Fr::from_uint(2)) saw_tag2 = true;
    }
    EXPECT_TRUE(saw_tag1);
    EXPECT_TRUE(saw_tag2);
    EXPECT_TRUE(wit.satisfies_gates(index));
    EXPECT_TRUE(wit.satisfies_lookups(index));
}

TEST(MultiTable, FusedProofVerifiesOnEveryPath)
{
    SCOPED_TRACE(repro());
    auto [index, wit] = fused_range_xor_circuit(kSeed + 21);
    std::mt19937_64 srs_rng(kSeed + 22);
    auto srs = std::make_shared<pcs::Srs>(
        pcs::Srs::generate(index.num_vars, srs_rng));
    auto [pk, vk] = hyperplonk::keygen(index, srs);
    auto proof = hyperplonk::prove(pk, wit);
    auto publics = wit.public_inputs(index);
    EXPECT_TRUE(hyperplonk::verify(vk, publics, proof));
    verifier::PairingAccumulator acc;
    ASSERT_TRUE(hyperplonk::verify_deferred(vk, publics, proof, acc));
    EXPECT_TRUE(acc.check());
    // Serialization round-trips the fused proof canonically.
    auto bytes = hyperplonk::serde::serialize_proof(proof);
    auto back = hyperplonk::serde::deserialize_proof(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(hyperplonk::serde::serialize_proof(*back), bytes);
    // Wire round trip carries both tables.
    runtime::JobRequest req;
    req.request_id = 99;
    req.circuit = index;
    req.witness = wit;
    auto frame = runtime::wire::encode_request(req);
    auto decoded = runtime::wire::decode_request(frame);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->circuit.table_row_counts, index.table_row_counts);
    EXPECT_EQ(decoded->circuit.table_tag, index.table_tag);
}

TEST(MultiTable, CrossTableClaimIsRejected)
{
    SCOPED_TRACE(repro());
    // A triple valid under the range table (tag 1) claimed under the
    // xor table's tag must fail: (v, 0, 0) is only an xor row when
    // v = 0, so pick v != 0.
    CircuitBuilder cb;
    size_t range_tag = cb.add_table(lookup::Table::range(3));
    size_t xor_tag = cb.add_table(lookup::Table::xor_table(3));
    hyperplonk::Var v = cb.add_variable(Fr::from_uint(5));
    gadgets::range_via_lookup(cb, v, range_tag);
    // The forged gate: same (5, 0, 0) triple, wrong tag.
    hyperplonk::Var z1 = cb.add_variable(Fr::zero());
    hyperplonk::Var z2 = cb.add_variable(Fr::zero());
    cb.add_lookup_gate(xor_tag, v, z1, z2);
    auto [index, wit] = cb.build(2);
    // Front door: the tagged membership check must refuse the witness.
    EXPECT_TRUE(wit.satisfies_gates(index));
    EXPECT_FALSE(wit.satisfies_lookups(index));
    // Pushed past the front door, the proof must not verify: the
    // (tag, triple) pole has no matching bank pole.
    std::mt19937_64 srs_rng(kSeed + 24);
    auto srs = std::make_shared<pcs::Srs>(
        pcs::Srs::generate(index.num_vars, srs_rng));
    auto [pk, vk] = hyperplonk::keygen(index, srs);
    auto proof = hyperplonk::prove(pk, wit);
    EXPECT_FALSE(hyperplonk::verify(vk, wit.public_inputs(index), proof));
}

TEST(TableRegistration, SetTableIsAThinAliasOverAddTable)
{
    CircuitBuilder cb;
    cb.set_table(lookup::Table::range(3));
    EXPECT_EQ(cb.num_tables(), 1u);
    EXPECT_EQ(cb.table().name, "range3");
    // A second set_table must refuse (add_table is the fusion API).
    EXPECT_THROW(cb.set_table(lookup::Table::xor_table(2)),
                 std::logic_error);
    EXPECT_EQ(cb.add_table(lookup::Table::xor_table(2)), 2u);
    EXPECT_EQ(cb.table(2).name, "xor2");
}

TEST(TableRegistration, OversizedBankThrowsStructuredError)
{
    CircuitBuilder cb;
    cb.set_max_vars(4);  // bank bound 2^4 = 16 rows
    cb.add_table(lookup::Table::range(3));  // 8 rows: fits
    try {
        cb.add_table(lookup::Table::xor_table(3));  // 64 rows: breaks
        FAIL() << "oversized table registration did not throw";
    } catch (const lookup::TableSizeError &e) {
        EXPECT_EQ(e.table, "xor3");
        EXPECT_EQ(e.table_rows, 64u);
        EXPECT_EQ(e.total_rows, 72u);
        EXPECT_EQ(e.max_vars, 4u);
        EXPECT_NE(std::string(e.what()).find("xor3"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("2^4"), std::string::npos);
    }
    // Lowering the bound below an already-registered bank throws the
    // same structured error (the bound cannot be bypassed by ordering).
    CircuitBuilder late;
    late.add_table(lookup::Table::xor_table(3));  // 64 rows, fits 2^20
    EXPECT_THROW(late.set_max_vars(4), lookup::TableSizeError);
}

}  // namespace
