/**
 * @file
 * Canonical byte serialization for proofs and verifying keys.
 *
 * Proofs are the wire objects of the system (posted on chain, sent to
 * verifiers), so encoding is strict: fixed-width little-endian field
 * elements validated against the modulus, and curve points validated
 * for curve membership on decode. Malformed or truncated inputs decode
 * to std::nullopt, never to a partially-initialised object.
 *
 * The verifying-key encoding embeds the verifier-relevant subset of the
 * SRS (generators and h^{tau_i}); the prover-side Lagrange tables are
 * intentionally not serialized (regenerate or distribute separately).
 */
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "hyperplonk/prover.hpp"

namespace zkspeed::hyperplonk::serde {

/** Encode a proof to bytes. */
std::vector<uint8_t> serialize_proof(const Proof &proof);

/** Decode and validate a proof. @return nullopt on any malformation. */
std::optional<Proof> deserialize_proof(std::span<const uint8_t> bytes);

/** Encode a verifying key (including the verifier SRS subset). */
std::vector<uint8_t> serialize_verifying_key(const VerifyingKey &vk);

/**
 * Decode a verifying key. The reconstructed SRS carries only the
 * verifier's points (g, h, h^{tau_i}) and no Lagrange tables, which is
 * all that verify and verify_deferred read.
 */
std::optional<VerifyingKey> deserialize_verifying_key(
    std::span<const uint8_t> bytes);

}  // namespace zkspeed::hyperplonk::serde
