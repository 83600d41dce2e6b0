/**
 * @file
 * Parameterised circuit builders behind the scenario registry.
 *
 * These are the inline circuits that used to live in examples/rollup.cpp,
 * examples/private_transaction.cpp and ad-hoc tests, promoted to one
 * shared library so examples, benches and the conformance harness all
 * draw from the same workload source. Every builder is deterministic in
 * its (params, rng) inputs: equal inputs produce byte-identical
 * circuits and witnesses.
 */
#pragma once

#include <random>
#include <utility>

#include "hyperplonk/gadgets.hpp"

namespace zkspeed::scenarios::circuits {

using hyperplonk::CircuitIndex;
using hyperplonk::Witness;

/**
 * Rollup transfer batch (paper Table 3, "Rollup of N Pvt Tx"): a small
 * account ledger, a batch of in-circuit transfers, and public pre/post
 * weighted checksums binding the state transition.
 */
struct RollupParams {
    size_t accounts = 8;
    size_t transfers = 10;
};
std::pair<CircuitIndex, Witness> rollup(const RollupParams &params,
                                        std::mt19937_64 &rng,
                                        size_t min_vars = 2);

/**
 * Private transfer with 16-bit range checks on the amount and the
 * post-transfer sender balance (no negative balances, no wrap-around).
 * With `overdraft` the drawn amount exceeds the sender balance, so the
 * wrapped field value violates its own range-reconstruction gates: the
 * canonical corrupted-witness workload.
 */
struct TransferParams {
    unsigned bits = 16;
    bool overdraft = false;
};
std::pair<CircuitIndex, Witness> private_transaction(
    const TransferParams &params, std::mt19937_64 &rng,
    size_t min_vars = 2);

/**
 * Chain of Rescue-sponge hash invocations, final digest public (the
 * paper's hash-heavy Table 3 workload). With `custom_gates` the forward
 * S-boxes use the q_H x^5 gate (Jellyfish-style, 23-claim proofs).
 */
std::pair<CircuitIndex, Witness> rescue_chain(size_t links,
                                              bool custom_gates,
                                              std::mt19937_64 &rng,
                                              size_t min_vars = 2);

/**
 * Merkle membership proof of one keccak-derived leaf under a public
 * Rescue-hashed root: per level, boolean direction bits steer muxes
 * that order (current, sibling) into the sponge.
 */
std::pair<CircuitIndex, Witness> merkle_membership(size_t depth,
                                                   std::mt19937_64 &rng,
                                                   size_t min_vars = 2);

/**
 * A bank of independent range decompositions (boolean-gate dense):
 * `values` draws, each constrained to `bits` bits, their sum public.
 */
std::pair<CircuitIndex, Witness> range_bank(size_t values, unsigned bits,
                                            std::mt19937_64 &rng,
                                            size_t min_vars = 2);

/**
 * The same range-bank statement proved through the lookup argument:
 * one lookup gate per value against a lookup::Table::range(bits)
 * table, sum public. Head-to-head with range_bank this is the
 * constraint-count and prove-modmul win bench_lookup measures.
 */
std::pair<CircuitIndex, Witness> range_bank_lookup(size_t values,
                                                   unsigned bits,
                                                   std::mt19937_64 &rng,
                                                   size_t min_vars = 2);

/**
 * XOR-table Rescue variant: a chain of byte-wide XOR mixes proved via
 * a lookup::Table::xor_table(bits) (each gate also range-checks its
 * inputs for free), whose running state feeds one Rescue sponge hash;
 * XOR checksum and Rescue digest both public.
 */
std::pair<CircuitIndex, Witness> xor_rescue_lookup(size_t mixes,
                                                   unsigned bits,
                                                   std::mt19937_64 &rng,
                                                   size_t min_vars = 2);

/**
 * Permutation-heavy shuffle: a vector and a shuffled copy tied slot by
 * slot with copy constraints, plus both running sums asserted equal —
 * the wiring-identity (PermCheck) stress workload.
 */
std::pair<CircuitIndex, Witness> shuffle(size_t n, std::mt19937_64 &rng,
                                         size_t min_vars = 2);

/**
 * Merkle membership with the hash REALLY in-circuit: a keccak-derived
 * leaf digest folded up to the root through round-parameterised
 * in-circuit Keccak-f[1600] permutations on the fused multi-table
 * lookup argument (src/keccak). Leaf and root words are public.
 *
 * `rounds` scales the permutation depth (24 = the real hash; CI runs
 * reduced rounds, the soak job raises ZKSPEED_KECCAK_ROUNDS);
 * `wrong_sibling` perturbs one path sibling after the public root is
 * fixed, so the witness faithfully computes a root that contradicts
 * the circuit's own root-equality gates — the canonical wrong-path
 * attack, refused at the proving front door.
 */
struct KeccakMerkleParams {
    size_t depth = 1;
    unsigned rounds = 1;
    unsigned limb_bits = 4;
    bool wrong_sibling = false;
};
std::pair<CircuitIndex, Witness> keccak_merkle(
    const KeccakMerkleParams &params, std::mt19937_64 &rng,
    size_t min_vars = 2);

}  // namespace zkspeed::scenarios::circuits
