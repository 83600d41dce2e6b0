/**
 * @file
 * Core scenario types: a Spec names and parameterises one workload
 * draw, an Instance is the concrete circuit + witness + adversarial
 * transforms a Spec expands to, and an Outcome declares what every
 * verification layer must conclude about it.
 *
 * The expected-outcome contract (DESIGN.md Section 7): every scenario
 * flows through the same pipeline — prove, serialize, ProofService,
 * BatchVerifier, sim replay — and all layers must agree:
 *
 *   accept          honest circuit; proof accepted by the direct,
 *                   service and batched verification paths alike.
 *   reject_witness  the witness violates its own gates; the prover
 *                   front door (ProofService witness check) refuses to
 *                   prove it, so no proof exists to disagree about.
 *   reject_proof    a well-formed but false proof (tampered bytes or
 *                   wrong public inputs); every verification path
 *                   rejects it, and batch bisection isolates it without
 *                   dragging honest batch-mates down.
 *   reject_frame    the wire frame itself is malformed; strict decoding
 *                   rejects it before any cryptography runs.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "hyperplonk/circuit.hpp"

namespace zkspeed::scenarios {

/** What every verification layer must conclude about a scenario. */
enum class Outcome : uint8_t {
    accept = 0,
    reject_witness = 1,
    reject_proof = 2,
    reject_frame = 3,
};

const char *to_string(Outcome o);

/**
 * One workload draw: a registered family name plus the deterministic
 * parameters that expand it. Two equal Specs always expand to
 * byte-identical circuits and witnesses.
 */
struct Spec {
    /** Registered family name (scenarios::Registry::find()). */
    std::string name;
    /** Floor on the circuit size: at least 2^log_size gates. */
    size_t log_size = 4;
    /** Seed for every random draw inside the family builder. */
    uint64_t seed = 1;
    /** Family-specific dials (chain length, tree depth, bit widths...). */
    std::map<std::string, uint64_t> knobs;

    uint64_t
    knob(const std::string &key, uint64_t fallback) const
    {
        auto it = knobs.find(key);
        return it == knobs.end() ? fallback : it->second;
    }

    /** One-line identity for failure messages and logs. */
    std::string describe() const;
};

/**
 * A Spec expanded to concrete material. Honest scenarios carry only the
 * circuit and witness; adversarial ones additionally carry the
 * transform that injects the fault downstream (tampered proof bytes,
 * forged public inputs, or a corrupted wire frame).
 */
struct Instance {
    Spec spec;
    Outcome expected = Outcome::accept;
    hyperplonk::CircuitIndex circuit;
    hyperplonk::Witness witness;

    /**
     * reject_proof families: map honest serialized proof bytes to the
     * adversarial payload presented to every verifier. Must return
     * bytes that still pass strict proof decoding (a payload that fails
     * decoding belongs to a reject_frame family instead).
     */
    std::function<std::vector<uint8_t>(std::vector<uint8_t>)> tamper_proof;

    /** reject_proof families may instead forge the claimed publics. */
    std::function<void(std::vector<ff::Fr> &)> tamper_publics;

    /**
     * reject_frame families: corrupt an encoded VERIFY wire frame
     * (truncation, bad magic, oversized length prefix...).
     */
    std::function<std::vector<uint8_t>(std::vector<uint8_t>)> tamper_frame;

    bool adversarial() const { return expected != Outcome::accept; }
};

}  // namespace zkspeed::scenarios
