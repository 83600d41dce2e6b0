/**
 * @file
 * Keccak-f[1600] sponge and the SHA3-256 / Keccak-256 hash functions.
 *
 * zkSNARKs are made non-interactive with a SHA3-based Fiat-Shamir
 * transcript (paper Section 3.3.6); this is a from-scratch implementation
 * of the permutation and both padding variants (SHA3 domain byte 0x06 and
 * the legacy Keccak 0x01), validated against published test vectors.
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace zkspeed::hash {

/** 256-bit digest. */
using Digest = std::array<uint8_t, 32>;

/** Apply the Keccak-f[1600] permutation (24 rounds) to a 5x5 lane state. */
void keccak_f1600(std::array<uint64_t, 25> &state);

/**
 * Reduced-round variant: apply only the first `rounds` (<= 24) rounds.
 * The in-circuit keccak gadgets (src/keccak) are round-parameterised so
 * tests and CI can prove short permutations; this is their native
 * reference. rounds = 24 is the real permutation.
 */
void keccak_f1600(std::array<uint64_t, 25> &state, unsigned rounds);

/** Keccak-f[1600] permutations this thread has run so far, at any
 * round count. Read it as a delta through PermutationScope. */
uint64_t keccak_permutations();

/**
 * RAII scope exposing the permutations this thread ran since entry,
 * the Keccak analogue of ff::ModmulScope: a deterministic count of
 * hashing work, where wall time is not.
 */
class PermutationScope
{
  public:
    PermutationScope() : start_(keccak_permutations()) {}

    uint64_t delta() const { return keccak_permutations() - start_; }

  private:
    uint64_t start_;
};

/** Round constants (iota step) of Keccak-f[1600], shared with the
 * in-circuit gadget so both sides permute identically. */
const std::array<uint64_t, 24> &keccak_round_constants();

/** Rotation offsets r[x][y] of the rho step (state index x + 5y). */
const std::array<std::array<int, 5>, 5> &keccak_rho_offsets();

/**
 * Incremental sponge with rate 136 bytes (capacity 512 bits), producing
 * 32-byte digests. The domain byte selects SHA3-256 (0x06) or Keccak-256
 * (0x01).
 */
class Sponge256
{
  public:
    explicit Sponge256(uint8_t domain = 0x06) : domain_(domain) {}

    /** Absorb a byte string. */
    void absorb(std::span<const uint8_t> data);
    void
    absorb(std::string_view s)
    {
        absorb(std::span<const uint8_t>(
            reinterpret_cast<const uint8_t *>(s.data()), s.size()));
    }

    /** Pad, permute and squeeze the 32-byte digest. Finalizes the sponge. */
    Digest finalize();

  private:
    static constexpr size_t kRate = 136;

    std::array<uint64_t, 25> state_{};
    std::array<uint8_t, kRate> buf_{};
    size_t buf_len_ = 0;
    uint8_t domain_;

    void absorb_block(const uint8_t *block);
};

/** One-shot SHA3-256. */
Digest sha3_256(std::span<const uint8_t> data);
Digest sha3_256(std::string_view s);

/** One-shot legacy Keccak-256 (0x01 padding, as used by Ethereum). */
Digest keccak_256(std::span<const uint8_t> data);
Digest keccak_256(std::string_view s);

/** Render a digest as lowercase hex (for tests and debugging). */
std::string digest_hex(const Digest &d);

}  // namespace zkspeed::hash
