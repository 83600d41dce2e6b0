/**
 * @file
 * The three proof shapes of the batch-evaluation claim table, proved
 * once per process from fixed seeds: a plain proof (22 claims), a
 * custom-gate proof (23) and a lookup proof (33). Suites that sweep a
 * property over every shape (golden digests, hostile bytes, per-claim
 * tampering) share these instead of each building its own.
 */
#pragma once

#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "hyperplonk/serialize.hpp"
#include "scenarios/registry.hpp"

namespace zkspeed::test {

struct ProofShape {
    const char *family;
    size_t log_size;
};

/** sparse-arithmetic 2^5, rescue-custom-gates, range-via-lookup 2^5.
 * None of these families reads ZKSPEED_TEST_SEED or
 * ZKSPEED_KECCAK_ROUNDS, so their proofs are fixed bytes. */
inline const ProofShape kProofShapes[] = {
    {"sparse-arithmetic", 5},
    {"rescue-custom-gates", 4},
    {"range-via-lookup", 5},
};

struct ProvedShape {
    hyperplonk::VerifyingKey vk;
    hyperplonk::Proof proof;
    std::vector<ff::Fr> publics;
    std::vector<uint8_t> bytes;  ///< serialize_proof(proof)
};

/** Prove `shape` at spec seed 1 over an SRS drawn from mt19937_64(7). */
inline const ProvedShape &
proved(const ProofShape &shape)
{
    static std::map<std::string, ProvedShape> cache;
    auto it = cache.find(shape.family);
    if (it != cache.end()) return it->second;
    scenarios::Spec spec;
    spec.name = shape.family;
    spec.log_size = shape.log_size;
    spec.seed = 1;
    auto inst = scenarios::Registry::global().build(spec);
    std::mt19937_64 srs_rng(7);
    auto srs = std::make_shared<pcs::Srs>(
        pcs::Srs::generate(inst.circuit.num_vars, srs_rng));
    auto [pk, vk] = hyperplonk::keygen(std::move(inst.circuit), srs);
    ProvedShape out;
    out.proof = hyperplonk::prove(pk, inst.witness);
    out.publics = inst.witness.public_inputs(pk.index);
    out.bytes = hyperplonk::serde::serialize_proof(out.proof);
    out.vk = std::move(vk);
    return cache.emplace(shape.family, std::move(out)).first->second;
}

/**
 * A hand-built key with zero variables (so no h^{tau_i}) carrying
 * `like`'s commitments and generators, and a plain proof that matches
 * it on the wire: three 0-round sumchecks and 22 zero claims. A
 * 0-variable key has no child points, so the key decoder must refuse
 * it and the verifier must reject it without evaluating anything.
 */
inline std::pair<hyperplonk::VerifyingKey, hyperplonk::Proof>
zero_variable_statement(const hyperplonk::VerifyingKey &like)
{
    hyperplonk::VerifyingKey vk = like;
    vk.num_vars = 0;
    vk.num_public = 0;
    vk.custom_gates = false;
    vk.has_lookup = false;
    auto srs = std::make_shared<pcs::Srs>();
    srs->g = like.srs->g;
    srs->h = like.srs->h;
    vk.srs = std::move(srs);
    hyperplonk::Proof proof;
    proof.zerocheck = {0, 4, {}};
    proof.permcheck = {0, 5, {}};
    proof.opencheck = {0, 2, {}};
    proof.evals.assign(22, ff::Fr::zero());
    return {std::move(vk), std::move(proof)};
}

}  // namespace zkspeed::test
