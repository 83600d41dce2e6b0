/**
 * @file
 * Serialization tests: round trips, strict validation (non-canonical
 * field elements, off-curve points, truncation, trailing garbage) and
 * end-to-end verification through the wire format.
 */
#include <gtest/gtest.h>

#include <random>

#include "hash/keccak.hpp"
#include "hyperplonk/serialize.hpp"
#include "proof_shapes.hpp"

namespace {

using namespace zkspeed::hyperplonk;
using zkspeed::ff::Fr;
using zkspeed::hash::digest_hex;
using zkspeed::hash::keccak_256;
using zkspeed::pcs::Srs;
using zkspeed::test::kProofShapes;
using zkspeed::test::proved;

struct Fixture {
    ProvingKey pk;
    VerifyingKey vk;
    Witness wit;
    Proof proof;
    std::vector<Fr> publics;
};

Fixture &
fixture()
{
    static Fixture f = [] {
        std::mt19937_64 rng(301);
        auto [index, wit] = random_circuit(4, rng);
        auto srs = std::make_shared<Srs>(Srs::generate(4, rng));
        auto [pk, vk] = keygen(std::move(index), srs);
        Proof proof = prove(pk, wit);
        auto publics = wit.public_inputs(pk.index);
        return Fixture{std::move(pk), std::move(vk), std::move(wit),
                       std::move(proof), std::move(publics)};
    }();
    return f;
}

TEST(Serialize, ProofRoundTrip)
{
    auto &f = fixture();
    auto bytes = serde::serialize_proof(f.proof);
    EXPECT_EQ(bytes.size(), f.proof.size_bytes());
    // Sized exactly up front: retained responses carry no spare bytes.
    EXPECT_EQ(bytes.capacity(), bytes.size());
    auto back = serde::deserialize_proof(bytes);
    ASSERT_TRUE(back.has_value());
    // The decoded proof must verify exactly like the original.
    EXPECT_TRUE(verify(f.vk, f.publics, *back));
    // And re-serialize to identical bytes (canonical encoding).
    EXPECT_EQ(serde::serialize_proof(*back), bytes);
}

TEST(Serialize, RejectsTruncationEverywhere)
{
    // Every strict prefix of every proof shape must fail to decode.
    for (const auto &shape : kProofShapes) {
        const auto &bytes = proved(shape).bytes;
        for (size_t len = 0; len < bytes.size(); ++len) {
            auto cut = std::span<const uint8_t>(bytes.data(), len);
            ASSERT_FALSE(serde::deserialize_proof(cut).has_value())
                << shape.family << " prefix " << len;
        }
    }
}

TEST(Serialize, RejectsTrailingGarbage)
{
    auto &f = fixture();
    auto bytes = serde::serialize_proof(f.proof);
    bytes.push_back(0);
    EXPECT_FALSE(serde::deserialize_proof(bytes).has_value());
}

TEST(Serialize, RejectsBadMagic)
{
    auto &f = fixture();
    auto bytes = serde::serialize_proof(f.proof);
    bytes[0] ^= 0xff;
    EXPECT_FALSE(serde::deserialize_proof(bytes).has_value());
}

TEST(Serialize, RejectsNonCanonicalFieldElement)
{
    auto &f = fixture();
    auto bytes = serde::serialize_proof(f.proof);
    // The batch-evaluation block sits after the two sumchecks; rather
    // than compute the offset, set a known Fr slot to the modulus:
    // find the first 32-byte window after the witness commitments that
    // we can overwrite with r (definitely >= modulus -> must reject).
    // gprime_value is the 32 bytes before the final quotient block:
    size_t quotients = f.proof.gprime_proof.quotients.size();
    size_t quot_bytes = 8 + quotients * (1 + 2 * 48);
    size_t off = bytes.size() - quot_bytes - 32;
    uint8_t modulus_le[32];
    (Fr::zero() - Fr::one()).to_bytes(modulus_le);  // r - 1 (valid)
    // Bump to exactly r (invalid): r-1 ends in ...00000000, +1 works.
    modulus_le[0] += 1;
    std::copy(modulus_le, modulus_le + 32, bytes.begin() + off);
    EXPECT_FALSE(serde::deserialize_proof(bytes).has_value());
}

TEST(Serialize, RejectsOffCurvePoint)
{
    auto &f = fixture();
    auto bytes = serde::serialize_proof(f.proof);
    // Witness commitment #0 starts right after the magic: flip a byte
    // of its x coordinate (offset 8 + 1 flag byte).
    bytes[9] ^= 0x01;
    EXPECT_FALSE(serde::deserialize_proof(bytes).has_value());
}

TEST(Serialize, TamperedWireProofFailsVerification)
{
    auto &f = fixture();
    auto bytes = serde::serialize_proof(f.proof);
    // Corrupt one byte inside a sumcheck round message (the region
    // between the commitments decodes as field elements; field-valid
    // mutations must still be caught by the verifier).
    // Flip a low-order byte of some round evaluation.
    size_t off = 8 + 3 * (1 + 96) + 8 * 3 + 8;  // into zerocheck rounds
    bytes[off + 10] ^= 0x01;
    auto back = serde::deserialize_proof(bytes);
    if (back.has_value()) {
        EXPECT_FALSE(verify(f.vk, f.publics, *back));
    }
}

TEST(Serialize, VerifyingKeyRoundTripSupportsPairingMode)
{
    auto &f = fixture();
    auto bytes = serde::serialize_verifying_key(f.vk);
    auto vk2 = serde::deserialize_verifying_key(bytes);
    ASSERT_TRUE(vk2.has_value());
    EXPECT_EQ(vk2->num_vars, f.vk.num_vars);
    EXPECT_EQ(vk2->num_public, f.vk.num_public);
    // A decoded key carries only public points; verify needs no more.
    EXPECT_TRUE(verify(*vk2, f.publics, f.proof));
    // Tampered proofs still rejected through the decoded key.
    Proof bad = f.proof;
    bad.gprime_value += Fr::one();
    EXPECT_FALSE(verify(*vk2, f.publics, bad));
}

TEST(Serialize, VerifyingKeyRejectsCorruption)
{
    auto &f = fixture();
    auto bytes = serde::serialize_verifying_key(f.vk);
    for (size_t off : {0ul, 8ul, 30ul, bytes.size() - 5}) {
        auto bad = bytes;
        bad[off] ^= 0x40;
        auto vk2 = serde::deserialize_verifying_key(bad);
        if (vk2.has_value()) {
            // Decoded but semantically different: must not accept the
            // original proof as-is AND match the original key.
            bool same = vk2->num_vars == f.vk.num_vars &&
                        vk2->num_public == f.vk.num_public;
            if (same) {
                EXPECT_FALSE(verify(*vk2, f.publics, f.proof))
                    << "offset " << off;
            }
        }
    }
    // Every strict prefix of every proof shape's key must fail to decode.
    for (const auto &shape : kProofShapes) {
        auto key = serde::serialize_verifying_key(proved(shape).vk);
        ASSERT_TRUE(serde::deserialize_verifying_key(key).has_value());
        for (size_t len = 0; len < key.size(); ++len) {
            auto cut = std::span<const uint8_t>(key.data(), len);
            ASSERT_FALSE(serde::deserialize_verifying_key(cut).has_value())
                << shape.family << " prefix " << len;
        }
    }
}

/** Keccak-256 of serialize_proof for each fixed-seed proof shape. Any
 * change to the transcript, the claim order or the wire layout moves
 * these; a refactor that claims "same proofs, same bytes" must not. */
TEST(Serialize, GoldenProofDigests)
{
    const char *golden[] = {
        "ca9145f481dd4eb1d631eb1ca32f6b6189f25657e2048e1c52ab4ce034ec3bab",
        "eab0470656fcf3b05de10aa744ef6e76676aced93f7ee7741b9b1705f8519110",
        "c3007e37a6f53a1b73eccf6d4a0a22264c5078b6303f761a0d4f90bf2289ec79",
    };
    for (size_t i = 0; i < std::size(kProofShapes); ++i) {
        const auto &s = proved(kProofShapes[i]);
        ASSERT_TRUE(verify(s.vk, s.publics, s.proof));
        EXPECT_EQ(s.proof.size_bytes(), s.bytes.size());
        EXPECT_EQ(digest_hex(keccak_256(s.bytes)), golden[i])
            << kProofShapes[i].family << ", " << s.bytes.size() << " bytes";
    }
}

TEST(Serialize, SeededByteFlipsFailDecodingOrVerification)
{
    std::mt19937_64 rng(2601);
    for (const auto &shape : kProofShapes) {
        const auto &s = proved(shape);
        size_t decoded = 0;
        for (int i = 0; i < 256; ++i) {
            auto bytes = s.bytes;
            size_t off = rng() % bytes.size();
            bytes[off] ^= uint8_t(1 + rng() % 255);
            auto back = serde::deserialize_proof(bytes);
            if (!back.has_value()) continue;
            ++decoded;
            EXPECT_FALSE(verify(s.vk, s.publics, *back))
                << shape.family << " byte " << off;
        }
        // Flips land in field elements too, so some must reach verify.
        EXPECT_GT(decoded, 0u) << shape.family;
    }
}

TEST(Serialize, ZeroVariableKeyIsRejected)
{
    auto &f = fixture();
    auto [vk0, proof0] = zkspeed::test::zero_variable_statement(f.vk);
    // The proof side is well formed: only the key's bound stops it.
    ASSERT_TRUE(serde::deserialize_proof(serde::serialize_proof(proof0))
                    .has_value());
    EXPECT_FALSE(serde::deserialize_verifying_key(
                     serde::serialize_verifying_key(vk0))
                     .has_value());
    // One variable with its h^{tau_0} is the smallest key that decodes.
    VerifyingKey vk1 = vk0;
    auto srs1 = std::make_shared<Srs>(*vk0.srs);
    srs1->num_vars = 1;
    srs1->tau_h = {f.vk.srs->tau_h[0]};
    vk1.num_vars = 1;
    vk1.srs = srs1;
    EXPECT_TRUE(serde::deserialize_verifying_key(
                    serde::serialize_verifying_key(vk1))
                    .has_value());
    // A hand-built 0-variable key is rejected, not evaluated.
    EXPECT_FALSE(verify(vk0, {}, proof0));
}

}  // namespace
