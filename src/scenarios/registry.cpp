#include "scenarios/registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "curve/g1.hpp"
#include "hyperplonk/serialize.hpp"
#include "scenarios/circuits.hpp"
#include "scenarios/seed.hpp"
#include "sim/config.hpp"

namespace zkspeed::scenarios {

using ff::Fr;

const char *
to_string(Outcome o)
{
    switch (o) {
        case Outcome::accept: return "ACCEPT";
        case Outcome::reject_witness: return "REJECT_WITNESS";
        case Outcome::reject_proof: return "REJECT_PROOF";
        case Outcome::reject_frame: return "REJECT_FRAME";
    }
    return "unknown";
}

std::string
Spec::describe() const
{
    std::string s = name + "{log_size=" + std::to_string(log_size) +
                    ", seed=" + std::to_string(seed);
    for (const auto &[k, v] : knobs) {
        s += ", " + k + "=" + std::to_string(v);
    }
    return s + "}";
}

namespace {

/** Decorrelate family RNG streams drawn from one suite seed. */
std::mt19937_64
family_rng(const Spec &spec, uint64_t salt)
{
    return std::mt19937_64(spec.seed * 0x9e3779b97f4a7c15ULL + salt);
}

Instance
honest(const Spec &spec,
       std::pair<hyperplonk::CircuitIndex, hyperplonk::Witness> built)
{
    Instance inst;
    inst.spec = spec;
    inst.expected = Outcome::accept;
    inst.circuit = std::move(built.first);
    inst.witness = std::move(built.second);
    return inst;
}

/** Add a generator to the first opening quotient: the proof still
 * decodes and passes every algebraic check, but the pairing-side check
 * must reject — the mutation only the deferred/batched flush can see. */
std::vector<uint8_t>
corrupt_pairing_side(std::vector<uint8_t> proof_bytes)
{
    auto proof = hyperplonk::serde::deserialize_proof(proof_bytes);
    if (!proof.has_value() || proof->gprime_proof.quotients.empty()) {
        // Returning the honest bytes here would surface as a baffling
        // "expected REJECT_PROOF but observed ACCEPT" downstream; fail
        // at the actual fault instead.
        throw std::logic_error(
            "corrupt_pairing_side: proof bytes undecodable or without "
            "quotients — tamper helper out of sync with proof layout");
    }
    auto &q = proof->gprime_proof.quotients[0];
    q = (curve::G1::from_affine(q) + curve::g1_generator()).to_affine();
    return hyperplonk::serde::serialize_proof(*proof);
}

}  // namespace

Registry::Registry()
{
    using circuits::RollupParams;
    using circuits::TransferParams;

    families_.push_back(Family{
        "rollup", "transfer batch over a small ledger, public checksums",
        Outcome::accept, [](const Spec &s) {
            RollupParams p;
            p.accounts = s.knob("accounts", 4);
            p.transfers = s.knob("transfers", 6);
            auto rng = family_rng(s, 1);
            return honest(s, circuits::rollup(p, rng, s.log_size));
        }});

    families_.push_back(Family{
        "private-transaction",
        "balance transfer with 16-bit range checks on amount and balance",
        Outcome::accept, [](const Spec &s) {
            TransferParams p;
            p.bits = unsigned(s.knob("bits", 16));
            auto rng = family_rng(s, 2);
            return honest(s,
                          circuits::private_transaction(p, rng, s.log_size));
        }});

    families_.push_back(Family{
        "rescue-chain", "chained Rescue sponge hashes, digest public",
        Outcome::accept, [](const Spec &s) {
            auto rng = family_rng(s, 3);
            return honest(s, circuits::rescue_chain(s.knob("links", 1),
                                                    false, rng,
                                                    s.log_size));
        }});

    families_.push_back(Family{
        "rescue-custom-gates",
        "Rescue chain on q_H x^5 custom gates (23-claim proof shape)",
        Outcome::accept, [](const Spec &s) {
            auto rng = family_rng(s, 4);
            return honest(s, circuits::rescue_chain(s.knob("links", 1),
                                                    true, rng,
                                                    s.log_size));
        }});

    families_.push_back(Family{
        "merkle-membership",
        "keccak-derived leaf under a Rescue-hashed Merkle root",
        Outcome::accept, [](const Spec &s) {
            auto rng = family_rng(s, 5);
            return honest(s, circuits::merkle_membership(
                                 s.knob("depth", 2), rng, s.log_size));
        }});

    families_.push_back(Family{
        "range-bank", "bank of range decompositions, sum public",
        Outcome::accept, [](const Spec &s) {
            auto rng = family_rng(s, 6);
            return honest(s, circuits::range_bank(s.knob("values", 4),
                                                  unsigned(s.knob("bits", 8)),
                                                  rng, s.log_size));
        }});

    families_.push_back(Family{
        "shuffle", "copy-constraint-heavy shuffled vector (PermCheck)",
        Outcome::accept, [](const Spec &s) {
            auto rng = family_rng(s, 7);
            return honest(s, circuits::shuffle(s.knob("n", 12), rng,
                                               s.log_size));
        }});

    families_.push_back(Family{
        "dense-arithmetic",
        "random circuit with a dense witness scalar population",
        Outcome::accept, [](const Spec &s) {
            auto rng = family_rng(s, 8);
            double dense = double(s.knob("dense_pct", 80)) / 100.0;
            return honest(s, hyperplonk::random_circuit(s.log_size, rng,
                                                        dense));
        }});

    families_.push_back(Family{
        "sparse-arithmetic",
        "random circuit with the paper's 0/1-heavy witness statistics",
        Outcome::accept, [](const Spec &s) {
            auto rng = family_rng(s, 9);
            double dense = double(s.knob("dense_pct", 5)) / 100.0;
            return honest(s, hyperplonk::random_circuit(s.log_size, rng,
                                                        dense));
        }});

    // ------------------------------------------------------------------
    // Lookup-argument families (src/lookup, DESIGN.md Section 8). The
    // range family is the table-driven twin of range-bank above; the
    // XOR family exercises the 3-column relation form.
    // ------------------------------------------------------------------

    families_.push_back(Family{
        "range-via-lookup",
        "range bank proved through the LogUp table argument (one gate "
        "per value instead of a bit-decomposition bank)",
        Outcome::accept, [](const Spec &s) {
            auto rng = family_rng(s, 15);
            return honest(s, circuits::range_bank_lookup(
                                 s.knob("values", 5),
                                 unsigned(s.knob("bits", 6)), rng,
                                 s.log_size));
        }});

    families_.push_back(Family{
        "xor-rescue-lookup",
        "XOR-table mix chain feeding a Rescue digest; each lookup gate "
        "asserts the XOR relation and range-checks its inputs",
        Outcome::accept, [](const Spec &s) {
            auto rng = family_rng(s, 16);
            return honest(s, circuits::xor_rescue_lookup(
                                 s.knob("mixes", 6),
                                 unsigned(s.knob("bits", 3)), rng,
                                 s.log_size));
        }});

    // ------------------------------------------------------------------
    // In-circuit keccak-Merkle families (src/keccak, DESIGN.md
    // Section 9): the Merkle hash is a REAL round-parameterised
    // Keccak-f[1600] permutation proved on the fused multi-table
    // lookup argument. CI proves reduced-round permutations (the
    // keccak circuit grows ~3k gates/round); the deep-soak job raises
    // ZKSPEED_KECCAK_ROUNDS towards the full 24.
    // ------------------------------------------------------------------

    auto keccak_params = [](const Spec &s) {
        circuits::KeccakMerkleParams p;
        p.depth = s.knob("depth", 1);
        // Clamp the knob/env into the gadget's 1..24 domain so a typo'd
        // ZKSPEED_KECCAK_ROUNDS degrades to the nearest valid depth
        // instead of throwing out of the family builder.
        uint64_t rounds =
            s.knob("rounds", env_u64("ZKSPEED_KECCAK_ROUNDS", 1));
        p.rounds = unsigned(std::clamp<uint64_t>(rounds, 1, 24));
        // Same policy for the limb width: snap to the nearest valid
        // divisor of 64 within the gadget's table budget.
        uint64_t limb_bits = s.knob("limb_bits", 4);
        p.limb_bits = limb_bits >= 8 ? 8
                      : limb_bits >= 4 ? 4
                      : limb_bits >= 2 ? 2
                                       : 1;
        return p;
    };

    families_.push_back(Family{
        "keccak-merkle",
        "Merkle membership with the keccak permutation in-circuit "
        "(theta/chi via fused XOR+CHI tables, rho/pi copy wiring; "
        "rounds via ZKSPEED_KECCAK_ROUNDS)",
        Outcome::accept, [keccak_params](const Spec &s) {
            auto rng = family_rng(s, 30);
            return honest(s, circuits::keccak_merkle(keccak_params(s),
                                                     rng, s.log_size));
        }});

    families_.push_back(Family{
        "keccak-merkle-wrong-path",
        "keccak Merkle path folding a perturbed sibling against the "
        "honest public root: the in-circuit permutation output "
        "contradicts the root-equality gates",
        Outcome::reject_witness, [keccak_params](const Spec &s) {
            auto p = keccak_params(s);
            p.wrong_sibling = true;
            auto rng = family_rng(s, 31);
            return honest(s,
                          circuits::keccak_merkle(p, rng, s.log_size));
        }});

    families_.push_back(Family{
        "keccak-merkle-wrong-leaf",
        "valid keccak-Merkle proof presented against a forged public "
        "leaf word",
        Outcome::reject_proof, [keccak_params](const Spec &s) {
            auto rng = family_rng(s, 32);
            Instance inst = honest(
                s, circuits::keccak_merkle(keccak_params(s), rng,
                                           s.log_size));
            inst.tamper_publics = [](std::vector<Fr> &publics) {
                // Publics interleave (leaf, root) words; flip a leaf.
                if (!publics.empty()) publics.front() += Fr::one();
            };
            return inst;
        }});

    // ------------------------------------------------------------------
    // Paper Table-3 instances as registry families. The paper sizes
    // (2^17..2^23) only previously existed as sim::Workload profiles;
    // here they flow through the full conformance pipeline, with the
    // software-proved size capped by ZKSPEED_TABLE3_CAP (default 2^8)
    // so CI stays fast — the soak job raises the cap.
    // ------------------------------------------------------------------
    {
        static const char *kTable3Slugs[] = {
            "table3-zcash", "table3-auction", "table3-rescue-chain",
            "table3-zexe", "table3-rollup10"};
        auto workloads = sim::Workload::paper_workloads();
        for (size_t wi = 0; wi < workloads.size(); ++wi) {
            const sim::Workload wl = workloads[wi];
            families_.push_back(Family{
                kTable3Slugs[wi],
                "paper Table 3 \"" + wl.name + "\" (native 2^" +
                    std::to_string(wl.mu) +
                    " gates; software size capped by ZKSPEED_TABLE3_CAP)",
                Outcome::accept, [wl, wi](const Spec &s) {
                    auto rng = family_rng(s, 20 + wi);
                    size_t cap = env_u64("ZKSPEED_TABLE3_CAP", 8);
                    size_t mu = std::max<size_t>(
                        s.log_size, std::min<size_t>(wl.mu, cap));
                    return honest(s, hyperplonk::random_circuit(
                                         mu, rng, wl.dense_fraction));
                }});
        }
    }

    // ------------------------------------------------------------------
    // Adversarial families. Each declares the exact layer that must
    // reject it; the conformance harness asserts nothing else does.
    // ------------------------------------------------------------------

    families_.push_back(Family{
        "overdraft-transaction",
        "transfer amount exceeds the balance: witness violates its own "
        "range gates",
        Outcome::reject_witness, [](const Spec &s) {
            TransferParams p;
            p.bits = unsigned(s.knob("bits", 16));
            p.overdraft = true;
            auto rng = family_rng(s, 10);
            Instance inst = honest(
                s, circuits::private_transaction(p, rng, s.log_size));
            return inst;
        }});

    families_.push_back(Family{
        "tampered-witness",
        "honest circuit with one output wire flipped at an active gate",
        Outcome::reject_witness, [](const Spec &s) {
            auto rng = family_rng(s, 11);
            Instance inst = honest(
                s, circuits::rescue_chain(1, false, rng, s.log_size));
            for (size_t i = 0; i < inst.circuit.q_o.size(); ++i) {
                if (!inst.circuit.q_o[i].is_zero()) {
                    inst.witness.w[2][i] += Fr::one();
                    break;
                }
            }
            return inst;
        }});

    families_.push_back(Family{
        "tampered-proof",
        "valid proof with a pairing-side corruption only the deferred "
        "flush can catch",
        Outcome::reject_proof, [](const Spec &s) {
            auto rng = family_rng(s, 12);
            Instance inst = honest(
                s, circuits::range_bank(s.knob("values", 3),
                                        unsigned(s.knob("bits", 8)), rng,
                                        s.log_size));
            inst.tamper_proof = corrupt_pairing_side;
            return inst;
        }});

    families_.push_back(Family{
        "out-of-table-witness",
        "lookup witness escapes its table: a lookup gate's zero wire is "
        "perturbed, so no table row matches the presented triple",
        Outcome::reject_witness, [](const Spec &s) {
            auto rng = family_rng(s, 17);
            Instance inst = honest(
                s, circuits::range_bank_lookup(s.knob("values", 4),
                                               unsigned(s.knob("bits", 6)),
                                               rng, s.log_size));
            // The lookup gate's w2 slot is a fresh variable pinned to
            // the table's zero column only by the lookup itself (no
            // arithmetic gate, no copy cycle), so this perturbation
            // violates exactly the lookup check: the paths that ignore
            // lookups would happily prove it.
            for (size_t i = 0; i < inst.circuit.q_lookup.size(); ++i) {
                if (!inst.circuit.q_lookup[i].is_zero()) {
                    inst.witness.w[1][i] += Fr::one();
                    break;
                }
            }
            return inst;
        }});

    families_.push_back(Family{
        "tampered-lookup-proof",
        "valid lookup-circuit proof with a pairing-side corruption only "
        "the deferred flush can catch (bisection must finger it)",
        Outcome::reject_proof, [](const Spec &s) {
            auto rng = family_rng(s, 18);
            Instance inst = honest(
                s, circuits::range_bank_lookup(s.knob("values", 4),
                                               unsigned(s.knob("bits", 6)),
                                               rng, s.log_size));
            inst.tamper_proof = corrupt_pairing_side;
            return inst;
        }});

    families_.push_back(Family{
        "forged-publics",
        "valid proof presented against forged public inputs",
        Outcome::reject_proof, [](const Spec &s) {
            RollupParams p;
            p.accounts = s.knob("accounts", 4);
            p.transfers = s.knob("transfers", 4);
            auto rng = family_rng(s, 13);
            Instance inst =
                honest(s, circuits::rollup(p, rng, s.log_size));
            inst.tamper_publics = [](std::vector<Fr> &publics) {
                if (!publics.empty()) publics.back() += Fr::one();
            };
            return inst;
        }});

    families_.push_back(Family{
        "malformed-frame",
        "valid verify job inside a corrupted wire frame (truncation, "
        "bad magic, or an oversized blob length)",
        Outcome::reject_frame, [](const Spec &s) {
            auto rng = family_rng(s, 14);
            Instance inst = honest(
                s, circuits::shuffle(s.knob("n", 8), rng, s.log_size));
            // Corruption kind: overridable via the `variant` knob so a
            // sweep can deterministically cover all three paths.
            uint64_t variant = s.knob("variant", s.seed % 3);
            inst.tamper_frame =
                [variant](std::vector<uint8_t> frame) {
                    switch (variant) {
                        case 0:  // truncate mid-payload
                            frame.resize(frame.size() * 2 / 3);
                            break;
                        case 1:  // break the job-class magic
                            frame[0] ^= 0xff;
                            break;
                        default:  // oversize the vk length prefix
                            for (size_t i = 0; i < 8; ++i) {
                                frame[16 + i] = 0xff;
                            }
                            break;
                    }
                    return frame;
                };
            return inst;
        }});
}

const Registry &
Registry::global()
{
    static const Registry kRegistry;
    return kRegistry;
}

const Family *
Registry::find(const std::string &name) const
{
    for (const Family &f : families_) {
        if (f.name == name) return &f;
    }
    return nullptr;
}

Instance
Registry::build(const Spec &spec) const
{
    const Family *f = find(spec.name);
    if (f == nullptr) {
        throw std::out_of_range("unregistered scenario family: " +
                                spec.name);
    }
    Instance inst = f->build(spec);
    inst.expected = f->expected;
    return inst;
}

std::vector<Spec>
Registry::default_suite(uint64_t seed, size_t log_size) const
{
    std::vector<Spec> suite;
    suite.reserve(families_.size());
    for (size_t i = 0; i < families_.size(); ++i) {
        Spec spec;
        spec.name = families_[i].name;
        spec.log_size = log_size;
        spec.seed = seed + i;
        suite.push_back(std::move(spec));
    }
    return suite;
}

}  // namespace zkspeed::scenarios
