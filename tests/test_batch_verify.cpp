/**
 * @file
 * Batch verification subsystem tests: deferred-pairing accumulator
 * equivalence with inline verification, RLC batch folding, bisection
 * isolation of corrupted proofs, the VERIFY wire frames (including
 * malformed-frame fuzzing), and mixed prove/verify service traffic.
 */
#include <gtest/gtest.h>

#include <random>

#include <set>

#include "hyperplonk/serialize.hpp"
#include "obs/window.hpp"
#include "runtime/key_cache.hpp"
#include "runtime/service.hpp"
#include "scenarios/registry.hpp"
#include "sim/replay.hpp"
#include "verify/batch_verifier.hpp"

namespace {

using namespace zkspeed;
using ff::Fr;
using runtime::JobKind;
using runtime::JobStatus;

/** keygen a random satisfiable circuit and prove it. */
struct ProvenStatement {
    hyperplonk::VerifyingKey vk;
    std::vector<Fr> publics;
    hyperplonk::Proof proof;
};

ProvenStatement
prove_random(size_t mu, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    auto [index, witness] = hyperplonk::random_circuit(mu, rng);
    std::mt19937_64 srs_rng(0x5eed0 + mu);
    auto srs =
        std::make_shared<pcs::Srs>(pcs::Srs::generate(mu, srs_rng));
    auto [pk, vk] = hyperplonk::keygen(index, srs);
    ProvenStatement st;
    st.publics = witness.public_inputs(index);
    st.proof = hyperplonk::prove(pk, witness);
    st.vk = vk;
    return st;
}

/** Tamper with a proof so only the deferred pairing check can notice:
 * the quotients enter the transcript after every challenge is drawn,
 * so all algebraic checks still pass. */
void
corrupt_pairing_side(hyperplonk::Proof &proof)
{
    ASSERT_FALSE(proof.gprime_proof.quotients.empty());
    auto &q = proof.gprime_proof.quotients[0];
    q = (curve::G1::from_affine(q) + curve::g1_generator()).to_affine();
}

/**
 * Whole-run total of `service`'s registry series matching `name` and
 * the label subset `labels`: counter values plus histogram observation
 * counts (obs::WindowDelta::total over a window opened at zero).
 */
uint64_t
series_total(const runtime::ProofService &service, const char *name,
             obs::LabelSet labels = {})
{
    labels.emplace_back("service", service.instance_label());
    auto run = obs::WindowDelta::between(
        obs::MetricsRegistry::global().snapshot(), obs::Snapshot{}, 0.0);
    return run.total({name, std::move(labels)});
}

TEST(Accumulator, PcsAccumulateMatchesInlineVerify)
{
    std::mt19937_64 rng(101);
    const size_t mu = 4;
    auto srs = pcs::Srs::generate(mu, rng);
    mle::Mle poly = mle::Mle::random(mu, rng);
    auto comm = pcs::commit(srs, poly);
    std::vector<Fr> point(mu);
    for (auto &z : point) z = Fr::random(rng);
    auto [proof, value] = pcs::open(srs, poly, point);

    EXPECT_TRUE(pcs::verify(srs, comm, point, value, proof));

    // A single commitment is the one-term combination 1 * comm.
    const Fr one = Fr::one();
    const std::span<const curve::G1Affine> comm1(&comm, 1);
    const std::span<const Fr> one1(&one, 1);
    verifier::PairingAccumulator acc;
    ASSERT_TRUE(pcs::accumulate(srs, comm1, one1, point, value, proof, acc));
    verifier::BatchStats stats;
    EXPECT_TRUE(acc.check(&stats));
    // Decomposed onto the fixed basis {h, h^{tau_k}}: mu+1 pairings.
    EXPECT_EQ(stats.num_pairings, mu + 1);

    // A wrong claimed value must fail both paths.
    Fr bad = value + Fr::one();
    EXPECT_FALSE(pcs::verify(srs, comm, point, bad, proof));
    verifier::PairingAccumulator acc_bad;
    ASSERT_TRUE(pcs::accumulate(srs, comm1, one1, point, bad, proof,
                                acc_bad));
    EXPECT_FALSE(acc_bad.check());
}

TEST(Accumulator, DeferredHyperplonkVerifyMatchesInline)
{
    auto st = prove_random(4, 202);
    EXPECT_TRUE(hyperplonk::verify(st.vk, st.publics, st.proof));
    verifier::PairingAccumulator acc;
    ASSERT_TRUE(
        hyperplonk::verify_deferred(st.vk, st.publics, st.proof, acc));
    EXPECT_FALSE(acc.empty());
    EXPECT_TRUE(acc.check());

    // Algebraic failure (wrong publics) rejects before accumulating.
    auto bad_publics = st.publics;
    ASSERT_FALSE(bad_publics.empty());
    bad_publics[0] += Fr::one();
    verifier::PairingAccumulator acc2;
    EXPECT_FALSE(hyperplonk::verify_deferred(st.vk, bad_publics, st.proof,
                                             acc2));
    EXPECT_TRUE(acc2.empty());

    // Pairing-side corruption passes algebra but fails the flush.
    auto bad_proof = st.proof;
    corrupt_pairing_side(bad_proof);
    verifier::PairingAccumulator acc3;
    ASSERT_TRUE(hyperplonk::verify_deferred(st.vk, st.publics, bad_proof,
                                            acc3));
    EXPECT_FALSE(acc3.check());
}

TEST(Accumulator, CheckAgreesWithBatchOfOne)
{
    // check() is the batch fold over one accumulator with unit weight:
    // the same verdict as a one-proof flush, no Fr mul (no weight, no
    // transcript), and one pairing check over the distinct G2 points.
    ff::WorkerBudgetScope budget(1);
    auto st = prove_random(4, 203);
    auto tampered = st.proof;
    corrupt_pairing_side(tampered);
    for (const auto *proof : {&st.proof, &tampered}) {
        const bool honest = proof == &st.proof;
        verifier::PairingAccumulator acc;
        ASSERT_TRUE(
            hyperplonk::verify_deferred(st.vk, st.publics, *proof, acc));
        verifier::BatchStats stats;
        ff::ModmulScope muls;
        const bool verdict = acc.check(&stats);
        EXPECT_EQ(muls.fr_delta(), 0u);
        EXPECT_EQ(verdict, honest);
        EXPECT_EQ(stats.pairing_checks, 1u);
        EXPECT_EQ(stats.num_pairings, acc.g2_points().size());
        EXPECT_EQ(stats.msm_points, acc.size());

        verifier::BatchVerifier bv;
        bv.add(acc);
        const auto result = bv.flush();
        ASSERT_EQ(result.verdicts.size(), 1u);
        EXPECT_EQ(result.verdicts[0], verdict);
    }
}

TEST(BatchVerifier, CleanBatchFoldsIntoOneCheck)
{
    verifier::BatchVerifier bv;
    for (uint64_t seed : {301, 302, 303, 304}) {
        auto st = prove_random(4, seed);
        verifier::PairingAccumulator acc;
        ASSERT_TRUE(
            hyperplonk::verify_deferred(st.vk, st.publics, st.proof, acc));
        bv.add(std::move(acc));
    }
    ASSERT_EQ(bv.size(), 4u);
    auto result = bv.flush();
    EXPECT_TRUE(result.all_ok());
    EXPECT_EQ(result.stats.pairing_checks, 1u)
        << "a clean batch must be decided by a single folded check";
    EXPECT_EQ(result.stats.bisection_steps, 0u);
    EXPECT_GT(result.stats.msm_points, 4u);
    EXPECT_TRUE(bv.empty()) << "flush resets the verifier";
}

TEST(BatchVerifier, CorruptedProofIsolatedByBisection)
{
    const size_t kBad = 2;
    verifier::BatchVerifier bv;
    for (size_t i = 0; i < 5; ++i) {
        auto st = prove_random(4, 400 + i);
        if (i == kBad) corrupt_pairing_side(st.proof);
        verifier::PairingAccumulator acc;
        ASSERT_TRUE(
            hyperplonk::verify_deferred(st.vk, st.publics, st.proof, acc));
        bv.add(std::move(acc));
    }
    auto result = bv.flush();
    ASSERT_EQ(result.verdicts.size(), 5u);
    for (size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(result.verdicts[i], i != kBad) << "proof " << i;
    }
    EXPECT_FALSE(result.all_ok());
    EXPECT_GT(result.stats.bisection_steps, 0u);
    EXPECT_GT(result.stats.pairing_checks, 1u);
}

TEST(BatchVerifier, MixedCircuitSizesShareOneFlush)
{
    verifier::BatchVerifier bv;
    size_t distinct_g2 = 0;
    for (auto [mu, seed] : {std::pair<size_t, uint64_t>{3, 501},
                            {4, 502},
                            {3, 503}}) {
        auto st = prove_random(mu, seed);
        verifier::PairingAccumulator acc;
        ASSERT_TRUE(
            hyperplonk::verify_deferred(st.vk, st.publics, st.proof, acc));
        bv.add(std::move(acc));
        distinct_g2 = std::max(distinct_g2, mu + 1);
    }
    auto result = bv.flush();
    EXPECT_TRUE(result.all_ok());
    EXPECT_EQ(result.stats.pairing_checks, 1u);
    // Two SRS instances: the multi-pairing spans both G2 bases.
    EXPECT_GT(result.stats.num_pairings, distinct_g2);
}

TEST(BatchVerifier, SingleBadProofBatchRejects)
{
    auto st = prove_random(3, 600);
    corrupt_pairing_side(st.proof);
    verifier::PairingAccumulator acc;
    ASSERT_TRUE(
        hyperplonk::verify_deferred(st.vk, st.publics, st.proof, acc));
    verifier::BatchVerifier bv;
    bv.add(std::move(acc));
    auto result = bv.flush();
    ASSERT_EQ(result.verdicts.size(), 1u);
    EXPECT_FALSE(result.verdicts[0]);
}

// ---------------------------------------------------------------------
// The verify-batch service workload's families (rescue-chain,
// sparse-arithmetic and range-via-lookup at log size 5 and 8, registry
// floors applied): the algebraic stage does no G1 work, and a mixed-size
// 16-proof flush pays for every proof's g' terms in its own MSM.
// ---------------------------------------------------------------------

/** One proof per (family, log size), keyed like the proving service. */
const std::vector<ProvenStatement> &
family_statements()
{
    static const std::vector<ProvenStatement> kStatements = [] {
        runtime::KeyCache cache(8, runtime::ServiceConfig{}.srs_seed);
        std::vector<ProvenStatement> out;
        uint64_t seed = 1;
        for (const char *family :
             {"rescue-chain", "sparse-arithmetic", "range-via-lookup"}) {
            for (size_t log_size : {5, 8}) {
                scenarios::Spec spec;
                spec.name = family;
                spec.log_size = log_size;
                spec.seed = seed++;
                auto inst = scenarios::Registry::global().build(spec);
                auto keys = cache.get_or_create(inst.circuit).first;
                ProvenStatement st;
                st.vk = *keys.vk;
                st.publics = inst.witness.public_inputs(inst.circuit);
                st.proof = hyperplonk::prove(*keys.pk, inst.witness);
                out.push_back(std::move(st));
            }
        }
        return out;
    }();
    return kStatements;
}

TEST(DeferredVerify, AlgebraicStageSpendsNoFqMuls)
{
    for (const ProvenStatement &st : family_statements()) {
        SCOPED_TRACE("2^" + std::to_string(st.vk.num_vars));
        verifier::PairingAccumulator acc;
        ff::ModmulScope muls;
        ASSERT_TRUE(
            hyperplonk::verify_deferred(st.vk, st.publics, st.proof, acc));
        EXPECT_EQ(muls.fq_delta(), 0u)
            << "verify_deferred must leave all G1 work to the flush";
        EXPECT_GT(muls.fr_delta(), 0u);
        // C_{g'} arrives unscaled: more terms than the mu+2 of a single
        // opened commitment, at most 22 more.
        const size_t mu = st.vk.num_vars;
        EXPECT_GT(acc.size(), 2 * mu + 2);
        EXPECT_LE(acc.size(), 2 * mu + 2 + 22);
    }
}

TEST(DeferredVerify, MixedSizeSixteenProofBatch)
{
    const auto &sts = family_statements();
    const size_t kBad = 7;
    std::set<size_t> sizes;
    verifier::BatchVerifier clean, poisoned;
    size_t terms = 0;
    for (size_t i = 0; i < 16; ++i) {
        const ProvenStatement &st = sts[i % sts.size()];
        sizes.insert(st.vk.num_vars);
        verifier::PairingAccumulator acc;
        ASSERT_TRUE(
            hyperplonk::verify_deferred(st.vk, st.publics, st.proof, acc));
        terms += acc.size();
        clean.add(std::move(acc));

        auto proof = st.proof;
        if (i == kBad) corrupt_pairing_side(proof);
        verifier::PairingAccumulator bad_acc;
        ASSERT_TRUE(
            hyperplonk::verify_deferred(st.vk, st.publics, proof, bad_acc));
        poisoned.add(std::move(bad_acc));
    }
    EXPECT_GE(sizes.size(), 3u) << "the batch must mix circuit sizes";

    auto result = clean.flush();
    EXPECT_TRUE(result.all_ok());
    EXPECT_EQ(result.stats.pairing_checks, 1u);
    EXPECT_EQ(result.stats.msm_points, terms);

    auto bad = poisoned.flush();
    ASSERT_EQ(bad.verdicts.size(), 16u);
    for (size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(bad.verdicts[i], i != kBad) << "proof " << i;
    }
    EXPECT_GT(bad.stats.bisection_steps, 0u);
}

TEST(DeferredVerify, EveryFamilyAcceptsHonestAndRejectsEitherSide)
{
    for (const ProvenStatement &st : family_statements()) {
        SCOPED_TRACE("2^" + std::to_string(st.vk.num_vars));
        EXPECT_TRUE(hyperplonk::verify(st.vk, st.publics, st.proof));
        auto quotient = st.proof;
        corrupt_pairing_side(quotient);
        EXPECT_FALSE(hyperplonk::verify(st.vk, st.publics, quotient));
        auto witness = st.proof;
        witness.witness_comms[1] =
            (curve::G1::from_affine(witness.witness_comms[1]) +
             curve::g1_generator())
                .to_affine();
        EXPECT_FALSE(hyperplonk::verify(st.vk, st.publics, witness));
    }
}

// ---------------------------------------------------------------------
// Systematic proof mutation: corrupt every structural field of a proof
// in turn. Each mutated proof must still decode (the mutations keep
// points on-curve and scalars canonical), and then be rejected — either
// by the inline algebraic checks, or, for pairing-side fields, by the
// batch fold with bisection fingering exactly the mutated proof.
// ---------------------------------------------------------------------

struct ProofMutation {
    const char *field;
    std::function<void(hyperplonk::Proof &)> apply;
};

std::vector<ProofMutation>
proof_mutations()
{
    auto bump_g1 = [](curve::G1Affine &p) {
        p = (curve::G1::from_affine(p) + curve::g1_generator()).to_affine();
    };
    std::vector<ProofMutation> muts;
    muts.push_back({"witness_comms[0]", [bump_g1](hyperplonk::Proof &p) {
                        bump_g1(p.witness_comms[0]);
                    }});
    muts.push_back({"zerocheck.round_evals[0][0]",
                    [](hyperplonk::Proof &p) {
                        p.zerocheck.round_evals[0][0] += Fr::one();
                    }});
    muts.push_back({"phi_comm", [bump_g1](hyperplonk::Proof &p) {
                        bump_g1(p.phi_comm);
                    }});
    muts.push_back({"pi_comm", [bump_g1](hyperplonk::Proof &p) {
                        bump_g1(p.pi_comm);
                    }});
    muts.push_back({"permcheck.round_evals[0][0]",
                    [](hyperplonk::Proof &p) {
                        p.permcheck.round_evals[0][0] += Fr::one();
                    }});
    // Claim indices of the plain 22-claim table (detail::claim_list).
    static const std::pair<const char *, size_t> kClaims[] = {
        {"evals[5] (w1 at r_g)", 5},    {"evals[11] (s1 at r_p)", 11},
        {"evals[16] (phi at u0)", 16},  {"evals[19] (pi at u1)", 19},
        {"evals[20] (pi at root)", 20}, {"evals[21] (w1 at z_pub)", 21},
    };
    for (const auto &[name, c] : kClaims) {
        muts.push_back({name, [c](hyperplonk::Proof &p) {
                            p.evals.at(c) += Fr::one();
                        }});
    }
    muts.push_back({"opencheck.round_evals[0][0]",
                    [](hyperplonk::Proof &p) {
                        p.opencheck.round_evals[0][0] += Fr::one();
                    }});
    muts.push_back({"gprime_value", [](hyperplonk::Proof &p) {
                        p.gprime_value += Fr::one();
                    }});
    muts.push_back({"gprime_proof.quotients[0]",
                    [bump_g1](hyperplonk::Proof &p) {
                        bump_g1(p.gprime_proof.quotients[0]);
                    }});
    muts.push_back({"gprime_proof.quotients.back()",
                    [bump_g1](hyperplonk::Proof &p) {
                        bump_g1(p.gprime_proof.quotients.back());
                    }});
    return muts;
}

TEST(ProofMutation, EveryFieldMutationIsRejectedAndBisectionFingersIt)
{
    auto honest_a = prove_random(3, 800);
    auto honest_b = prove_random(3, 801);
    auto victim = prove_random(3, 802);

    size_t algebra_rejections = 0, batch_rejections = 0;
    for (const ProofMutation &mut : proof_mutations()) {
        SCOPED_TRACE(mut.field);
        auto mutated = victim.proof;
        mut.apply(mutated);

        // The mutation must survive the serialization boundary: this
        // sweep tests verification soundness, not decode strictness.
        auto bytes = hyperplonk::serde::serialize_proof(mutated);
        auto decoded = hyperplonk::serde::deserialize_proof(bytes);
        ASSERT_TRUE(decoded.has_value());

        verifier::PairingAccumulator acc;
        bool algebra_ok = hyperplonk::verify_deferred(
            victim.vk, victim.publics, *decoded, acc);
        EXPECT_FALSE(hyperplonk::verify(victim.vk, victim.publics, *decoded));
        if (!algebra_ok) {
            // Caught inline before any pairing work.
            EXPECT_TRUE(acc.empty());
            ++algebra_rejections;
            continue;
        }

        // Algebraically clean: only the folded pairing check can catch
        // it. Sandwich it between honest proofs and demand bisection
        // isolate exactly the mutated one.
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
    // The transcript binds everything except the opening quotients, so
    // most mutations die algebraically; the quotient mutations are the
    // pairing-side corruptions the batch path exists to catch.
    EXPECT_GE(algebra_rejections, 10u);
    EXPECT_GE(batch_rejections, 2u);
}

TEST(ProofMutation, SerializedBitFlipsNeverVerify)
{
    auto st = prove_random(3, 810);
    auto bytes = hyperplonk::serde::serialize_proof(st.proof);
    // A sparse deterministic sweep across the whole byte range (every
    // byte would re-run pairing checks thousands of times).
    const size_t step = bytes.size() / 48 + 1;
    size_t decode_rejections = 0, verify_rejections = 0;
    for (size_t off = 0; off < bytes.size(); off += step) {
        SCOPED_TRACE("bit flip at byte " + std::to_string(off));
        auto flipped = bytes;
        flipped[off] ^= uint8_t(1u << (off % 8));
        auto decoded = hyperplonk::serde::deserialize_proof(flipped);
        if (!decoded.has_value()) {
            ++decode_rejections;  // strict decoding caught it
            continue;
        }
        EXPECT_FALSE(hyperplonk::verify(st.vk, st.publics, *decoded));
        ++verify_rejections;
    }
    // The sweep must exercise both rejection layers: point bytes die in
    // strict decoding (off-curve), scalar bytes decode but fail
    // verification — if either count drops to zero, a layer has started
    // accepting corrupted material.
    EXPECT_GE(decode_rejections, 1u);
    EXPECT_GE(verify_rejections, 1u);
    EXPECT_EQ(decode_rejections + verify_rejections,
              (bytes.size() + step - 1) / step);
    // The original still verifies: the sweep mutated copies only.
    EXPECT_TRUE(hyperplonk::verify(st.vk, st.publics, st.proof));
}

// ---------------------------------------------------------------------
// VERIFY wire frames.
// ---------------------------------------------------------------------

runtime::VerifyRequest
make_verify_request(uint64_t id, const ProvenStatement &st)
{
    runtime::VerifyRequest req;
    req.request_id = id;
    req.vk = hyperplonk::serde::serialize_verifying_key(st.vk);
    req.public_inputs = st.publics;
    req.proof = hyperplonk::serde::serialize_proof(st.proof);
    return req;
}

TEST(WireVerify, RequestRoundTrip)
{
    auto st = prove_random(3, 700);
    auto req = make_verify_request(77, st);
    auto bytes = runtime::wire::encode_verify_request(req);
    EXPECT_EQ(runtime::wire::classify_request(bytes), JobKind::verify);
    auto back = runtime::wire::decode_verify_request(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->request_id, 77u);
    EXPECT_EQ(back->vk, req.vk);
    EXPECT_EQ(back->proof, req.proof);
    ASSERT_EQ(back->public_inputs.size(), req.public_inputs.size());
    for (size_t i = 0; i < req.public_inputs.size(); ++i) {
        EXPECT_TRUE(back->public_inputs[i] == req.public_inputs[i]);
    }
    // Canonical: re-encoding reproduces the bytes.
    EXPECT_EQ(runtime::wire::encode_verify_request(*back), bytes);

    // A prove frame classifies as prove, garbage as neither.
    EXPECT_EQ(runtime::wire::classify_request(
                  std::vector<uint8_t>{1, 2, 3, 4, 5, 6, 7, 8}),
              std::nullopt);
    EXPECT_EQ(
        runtime::wire::classify_request(std::vector<uint8_t>{1, 2, 3}),
        std::nullopt);
}

TEST(WireVerify, MalformedFramesAreRejected)
{
    auto st = prove_random(3, 701);
    auto bytes = runtime::wire::encode_verify_request(
        make_verify_request(1, st));

    // Truncation at every interesting boundary (and a dense sweep of
    // the header region) must fail closed.
    for (size_t len : {0ul, 7ul, 8ul, 15ul, 16ul, 24ul, 40ul,
                       bytes.size() / 2, bytes.size() - 1}) {
        auto cut = std::span<const uint8_t>(bytes.data(), len);
        EXPECT_FALSE(runtime::wire::decode_verify_request(cut).has_value())
            << "truncated to " << len;
    }
    for (size_t len = 0; len < 64; len += 3) {
        auto cut = std::span<const uint8_t>(bytes.data(), len);
        EXPECT_FALSE(
            runtime::wire::decode_verify_request(cut).has_value());
    }

    // Trailing garbage.
    auto longer = bytes;
    longer.push_back(0);
    EXPECT_FALSE(
        runtime::wire::decode_verify_request(longer).has_value());

    // Bad magic / bad job kind byte.
    auto bad_magic = bytes;
    bad_magic[0] ^= 0xff;
    EXPECT_FALSE(
        runtime::wire::decode_verify_request(bad_magic).has_value());
    EXPECT_EQ(runtime::wire::classify_request(bad_magic), std::nullopt);

    // Oversized length prefix on the vk blob: claims more bytes than
    // the frame holds (and more than kMaxVkBytes allows).
    auto oversized = bytes;
    for (size_t i = 0; i < 8; ++i) oversized[16 + i] = 0xff;
    EXPECT_FALSE(
        runtime::wire::decode_verify_request(oversized).has_value());

    // Length prefix just past the cap but within a huge allocation
    // request: still rejected without allocating.
    auto capped = bytes;
    uint64_t too_big = runtime::wire::kMaxVkBytes + 1;
    for (size_t i = 0; i < 8; ++i) {
        capped[16 + i] = uint8_t(too_big >> (8 * i));
    }
    EXPECT_FALSE(
        runtime::wire::decode_verify_request(capped).has_value());

    // Empty vk / proof blobs are not meaningful requests.
    runtime::VerifyRequest empty_vk = make_verify_request(2, st);
    empty_vk.vk.clear();
    EXPECT_FALSE(runtime::wire::decode_verify_request(
                     runtime::wire::encode_verify_request(empty_vk))
                     .has_value());
}

TEST(WireVerify, ResponseRoundTripCarriesKindAndBatchMetrics)
{
    runtime::JobResponse resp;
    resp.request_id = 9;
    resp.kind = JobKind::verify;
    resp.status = JobStatus::ok;
    resp.metrics.verify_ms = 3.5;
    resp.metrics.batch_size = 16;
    resp.metrics.num_vars = 4;
    auto bytes = runtime::wire::encode_response(resp);
    auto back = runtime::wire::decode_response(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->kind, JobKind::verify);
    EXPECT_EQ(back->status, JobStatus::ok);
    EXPECT_TRUE(back->proof.empty());
    EXPECT_DOUBLE_EQ(back->metrics.verify_ms, 3.5);
    EXPECT_EQ(back->metrics.batch_size, 16u);

    // invalid_proof round-trips for verify...
    resp.status = JobStatus::invalid_proof;
    resp.error = "rejected";
    back = runtime::wire::decode_response(
        runtime::wire::encode_response(resp));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->status, JobStatus::invalid_proof);
    // ...but is rejected as a prove status.
    resp.kind = JobKind::prove;
    EXPECT_FALSE(runtime::wire::decode_response(
                     runtime::wire::encode_response(resp))
                     .has_value());

    // An ok verify response smuggling proof bytes is malformed.
    resp.kind = JobKind::verify;
    resp.status = JobStatus::ok;
    resp.error.clear();
    resp.proof = {1, 2, 3};
    EXPECT_FALSE(runtime::wire::decode_response(
                     runtime::wire::encode_response(resp))
                     .has_value());
}

// ---------------------------------------------------------------------
// Service: mixed prove/verify traffic.
// ---------------------------------------------------------------------

runtime::JobRequest
make_prove_request(uint64_t id, size_t mu, uint64_t circuit_seed)
{
    std::mt19937_64 rng(circuit_seed);
    auto [index, wit] = hyperplonk::random_circuit(mu, rng);
    runtime::JobRequest req;
    req.request_id = id;
    req.circuit = std::move(index);
    req.witness = std::move(wit);
    return req;
}

TEST(ServiceVerify, ProveThenVerifyRoundTripWithCorruptionAndFuzz)
{
    runtime::ServiceConfig cfg;
    cfg.num_workers = 2;
    cfg.total_parallelism = 2;
    cfg.verify_batch_size = 4;
    cfg.verify_batch_window_ms = 1000.0;  // size flush must trigger first
    runtime::ProofService service(cfg);

    // Prove two distinct circuits.
    auto req_a = make_prove_request(1, 4, 9001);
    auto req_b = make_prove_request(2, 4, 9002);
    auto resp_a = service.submit(req_a).get();
    auto resp_b = service.submit(req_b).get();
    ASSERT_TRUE(resp_a.ok()) << resp_a.error;
    ASSERT_TRUE(resp_b.ok()) << resp_b.error;
    EXPECT_EQ(resp_a.kind, JobKind::prove);

    // Clients reconstruct the vk from the circuit (same simulated SRS
    // ceremony seed as the service).
    runtime::KeyCache cache(4, cfg.srs_seed);
    auto keys_a = cache.get_or_create(req_a.circuit).first;
    auto keys_b = cache.get_or_create(req_b.circuit).first;
    auto vk_a = hyperplonk::serde::serialize_verifying_key(*keys_a.vk);
    auto vk_b = hyperplonk::serde::serialize_verifying_key(*keys_b.vk);

    auto make_req = [](uint64_t id, std::vector<uint8_t> vk,
                       std::vector<Fr> publics,
                       std::vector<uint8_t> proof) {
        runtime::VerifyRequest r;
        r.request_id = id;
        r.vk = std::move(vk);
        r.public_inputs = std::move(publics);
        r.proof = std::move(proof);
        return runtime::wire::encode_verify_request(r);
    };
    auto publics_a = req_a.witness.public_inputs(req_a.circuit);
    auto publics_b = req_b.witness.public_inputs(req_b.circuit);

    // One corrupted proof (pairing side, algebraically clean).
    auto corrupted = hyperplonk::serde::deserialize_proof(resp_b.proof);
    ASSERT_TRUE(corrupted.has_value());
    corrupt_pairing_side(*corrupted);

    std::vector<std::future<runtime::JobResponse>> futures;
    futures.push_back(service.submit(
        make_req(10, vk_a, publics_a, resp_a.proof)));
    futures.push_back(service.submit(
        make_req(11, vk_b, publics_b, resp_b.proof)));
    futures.push_back(service.submit(
        make_req(12, vk_b, publics_b,
                 hyperplonk::serde::serialize_proof(*corrupted))));
    futures.push_back(service.submit(
        make_req(13, vk_a, publics_a, resp_a.proof)));

    size_t ok = 0, invalid = 0;
    for (auto &f : futures) {
        auto resp = f.get();
        EXPECT_EQ(resp.kind, JobKind::verify);
        EXPECT_EQ(resp.metrics.batch_size, 4u);
        EXPECT_TRUE(resp.proof.empty());
        if (resp.request_id == 12) {
            EXPECT_EQ(resp.status, JobStatus::invalid_proof);
            ++invalid;
        } else {
            EXPECT_TRUE(resp.ok()) << resp.error;
            ++ok;
        }
    }
    EXPECT_EQ(ok, 3u);
    EXPECT_EQ(invalid, 1u);

    // Malformed verify frames: error responses, workers survive.
    auto valid_frame = make_req(20, vk_a, publics_a, resp_a.proof);
    std::vector<std::vector<uint8_t>> bad;
    bad.push_back(std::vector<uint8_t>(valid_frame.begin(),
                                       valid_frame.begin() + 20));
    auto garbage_vk = valid_frame;
    garbage_vk[24] ^= 0xff;  // first vk byte: breaks the vk magic
    bad.push_back(garbage_vk);
    auto oversized = valid_frame;
    for (size_t i = 0; i < 8; ++i) oversized[16 + i] = 0xff;
    bad.push_back(oversized);
    for (auto &frame : bad) {
        auto resp = service.submit(frame).get();
        EXPECT_EQ(resp.status, JobStatus::malformed_request);
        EXPECT_EQ(resp.kind, JobKind::verify);
    }
    // Unknown magic (bad job kind) falls through to prove decoding and
    // is rejected there.
    std::vector<uint8_t> unknown(16, 0xab);
    auto resp = service.submit(unknown).get();
    EXPECT_EQ(resp.status, JobStatus::malformed_request);

    // The pool still proves and verifies after all that.
    auto again = service.submit(req_a).get();
    EXPECT_TRUE(again.ok()) << again.error;

    const char *lat = "zkspeed_job_latency_ms";
    EXPECT_EQ(series_total(service, lat,
                           {{"class", "prove"}, {"status", "ok"}}),
              3u);
    EXPECT_EQ(series_total(service, lat,
                           {{"class", "verify"}, {"status", "ok"}}),
              3u);
    // 1 invalid + 3 malformed
    EXPECT_EQ(series_total(service, lat,
                           {{"class", "verify"}, {"status", "rejected"}}),
              4u);
    EXPECT_EQ(series_total(service, "zkspeed_verify_flush_ms"), 1u);
    EXPECT_EQ(series_total(service, "zkspeed_verify_flushes_total",
                           {{"reason", "size"}}),
              1u);
    EXPECT_EQ(series_total(service, "zkspeed_verify_verdicts_total",
                           {{"verdict", "accepted"}}),
              3u);
    EXPECT_EQ(series_total(service, "zkspeed_verify_verdicts_total",
                           {{"verdict", "rejected"}}),
              1u);
    EXPECT_GT(series_total(service, "zkspeed_verify_bisection_steps_total"),
              0u);

    // The trace carries the verify flush and replays through the chip.
    service.shutdown();
    auto trace = service.trace();
    size_t verify_entries = 0;
    for (const auto &e : trace) {
        if (e.kind == JobKind::verify) {
            ++verify_entries;
            EXPECT_EQ(e.batch_size, 4u);
            EXPECT_GT(e.msm_points, 0u);
            EXPECT_GT(e.pairing_ms, 0.0);
            EXPECT_GT(e.verify_ms, 0.0);
        }
    }
    EXPECT_EQ(verify_entries, 1u);
    auto report =
        sim::replay_trace(trace, sim::DesignConfig::paper_default());
    EXPECT_EQ(report.verify_flushes, 1u);
    EXPECT_EQ(report.proofs_verified, 4u);
    EXPECT_GT(report.chip_verify_ms, 0.0);
    EXPECT_GT(report.sw_verify_ms, 0.0);
    EXPECT_EQ(report.prove_jobs + report.verify_flushes,
              report.jobs.size());
}

TEST(ServiceVerify, LoneVerifyJobFlushesOnTimeout)
{
    runtime::ServiceConfig cfg;
    cfg.num_workers = 1;
    cfg.total_parallelism = 1;
    cfg.verify_batch_size = 64;        // never reached
    cfg.verify_batch_window_ms = 5.0;  // timeout must fire
    runtime::ProofService service(cfg);

    auto req = make_prove_request(1, 3, 9100);
    auto proved = service.submit(req).get();
    ASSERT_TRUE(proved.ok()) << proved.error;

    runtime::KeyCache cache(2, cfg.srs_seed);
    auto keys = cache.get_or_create(req.circuit).first;
    runtime::VerifyRequest vreq;
    vreq.request_id = 2;
    vreq.vk = hyperplonk::serde::serialize_verifying_key(*keys.vk);
    vreq.public_inputs = req.witness.public_inputs(req.circuit);
    vreq.proof = proved.proof;

    auto resp = service
                    .submit(runtime::wire::encode_verify_request(vreq))
                    .get();
    EXPECT_TRUE(resp.ok()) << resp.error;
    EXPECT_EQ(resp.metrics.batch_size, 1u);
    EXPECT_EQ(series_total(service, "zkspeed_verify_flushes_total",
                           {{"reason", "timeout"}}),
              1u);
    EXPECT_EQ(series_total(service, "zkspeed_verify_flushes_total",
                           {{"reason", "size"}}),
              0u);
}

TEST(ServiceVerify, ShutdownDrainsParkedVerifyJobs)
{
    runtime::ServiceConfig cfg;
    cfg.num_workers = 1;
    cfg.total_parallelism = 1;
    cfg.verify_batch_size = 64;
    cfg.verify_batch_window_ms = 60000.0;  // only shutdown can flush
    auto st = prove_random(3, 9200);
    runtime::VerifyRequest vreq;
    vreq.request_id = 3;
    vreq.vk = hyperplonk::serde::serialize_verifying_key(st.vk);
    vreq.public_inputs = st.publics;
    vreq.proof = hyperplonk::serde::serialize_proof(st.proof);
    std::future<runtime::JobResponse> fut;
    {
        runtime::ProofService service(cfg);
        fut = service.submit(runtime::wire::encode_verify_request(vreq));
        // Wait until the job is parked (the queue has drained), then
        // shut down: the drain must answer it, not drop the promise.
        while (service.queue_depth() > 0) {
            std::this_thread::yield();
        }
        service.shutdown();
    }
    auto resp = fut.get();
    EXPECT_TRUE(resp.ok()) << resp.error;
    EXPECT_EQ(resp.metrics.batch_size, 1u);
}

}  // namespace
