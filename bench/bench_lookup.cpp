/**
 * @file
 * Lookup argument vs. gate-based circuits: the constraint-count and
 * prover-work win the lookup subsystem exists for, on two statements.
 *
 *  - range bank: `values` range-checked words with their sum public,
 *    once through the gate-based bit-decomposition bank
 *    (scenarios::circuits::range_bank) and once through one LogUp
 *    lookup gate per value (range_bank_lookup);
 *  - keccak: a Keccak-f[1600] permutation of a seeded state with one
 *    output word public, once with 1-bit lanes on boolean XOR/CHI logic
 *    gates (keccak::KeccakParams::gates) and once with table-width
 *    limbs on the fused xor/chi/range lookup bank
 *    (KeccakParams::lookup).
 *
 * Every side runs one build -> keygen -> prove -> verify -> chip-price
 * routine. Reports gate counts (active and padded 2^mu), lookup gates,
 * the exact Fr/Fq modmuls of hyperplonk::prove, keygen/prove/verify wall
 * time (reported, never gated), verification agreement and the
 * simulated zkSpeed latency (the LookupUnit prices the helper passes,
 * the per-table bank fills and LookupCheck).
 *
 * Usage: bench_lookup [--values N] [--bits B] [--rounds R]
 *                     [--limb-bits L] [--quick] [--json PATH]
 * Rounds default to ZKSPEED_KECCAK_ROUNDS (else 1); the full
 * permutation is --rounds 24. --quick runs 32 values x 8 bits and one
 * round. Exit status is non-zero unless, in each case, both proofs
 * verify, the lookup circuit has >= 2x fewer padded constraints, and
 * its prover spends strictly fewer Fr muls and strictly fewer Fq muls.
 */
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>

#include "ff/counters.hpp"
#include "hyperplonk/prover.hpp"
#include "keccak/keccak.hpp"
#include "report.hpp"
#include "scenarios/circuits.hpp"
#include "scenarios/seed.hpp"
#include "sim/chip.hpp"

using namespace zkspeed;
using ff::Fr;

namespace {

using Clock = std::chrono::steady_clock;
using Built = std::pair<hyperplonk::CircuitIndex, hyperplonk::Witness>;

double
ms_since(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

struct Side {
    const char *label = "";
    size_t raw_gates = 0;  ///< active (pre-padding) gate rows
    size_t lookup_gates = 0;
    size_t mu = 0;
    uint64_t fr_muls = 0;  ///< exact, hyperplonk::prove only
    uint64_t fq_muls = 0;
    double keygen_ms = 0;
    double prove_ms = 0;
    double verify_ms = 0;
    bool verified = false;
    double chip_ms = 0;  ///< simulated zkSpeed latency
    size_t proof_bytes = 0;
};

Side
run_side(const char *label, Built built, const sim::DesignConfig &design)
{
    Side side;
    side.label = label;
    auto [index, witness] = std::move(built);
    side.raw_gates = bench::active_gates(index);
    side.lookup_gates = index.num_lookup_gates();
    side.mu = index.num_vars;
    side.chip_ms =
        sim::Chip(design).run(sim::Workload::of(label, index, witness))
            .runtime_ms;

    std::mt19937_64 srs_rng(0x5eed ^ index.num_vars);
    auto srs = std::make_shared<pcs::Srs>(
        pcs::Srs::generate(index.num_vars, srs_rng));
    auto t0 = Clock::now();
    auto [pk, vk] = hyperplonk::keygen(std::move(index), srs);
    side.keygen_ms = ms_since(t0);

    t0 = Clock::now();
    ff::ModmulScope muls;
    auto proof = hyperplonk::prove(pk, witness);
    side.fr_muls = muls.fr_delta();
    side.fq_muls = muls.fq_delta();
    side.prove_ms = ms_since(t0);
    side.proof_bytes = proof.size_bytes();

    auto publics = witness.public_inputs(pk.index);
    t0 = Clock::now();
    side.verified = hyperplonk::verify(vk, publics, proof);
    side.verify_ms = ms_since(t0);
    return side;
}

/** One permutation of a seeded state; the first output word public. */
Built
keccak_permutation(const keccak::KeccakParams &params, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::array<uint64_t, 25> in;
    for (auto &lane : in) lane = rng();
    auto expect = in;
    hash::keccak_f1600(expect, params.rounds);

    hyperplonk::CircuitBuilder cb;
    keccak::KeccakGadget g(cb, params);
    std::array<keccak::Lane, 25> st;
    for (int k = 0; k < 25; ++k) {
        st[k] = g.from_var(cb.add_variable(Fr::from_uint(in[k])));
    }
    st = g.permute(std::move(st));
    hyperplonk::Var out = g.to_var(st[0]);
    hyperplonk::Var pub = cb.add_public_input(Fr::from_uint(expect[0]));
    cb.assert_equal(pub, out);
    return cb.build(2);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/**
 * Prove one statement both ways, print its table and ratios, and add
 * its metrics under `name` plus its four gates to the envelope parts.
 * @return whether every gate of the case holds.
 */
bool
run_case(const std::string &name, const std::string &heading,
         Built gate_built, Built lookup_built, obs::jsonv::Value params,
         const sim::DesignConfig &design, obs::jsonv::Value &metrics,
         std::vector<bench::Gate> &gates)
{
    using obs::jsonv::Value;
    bench::title(heading);
    Side gate_side = run_side("gate-based", std::move(gate_built), design);
    Side lookup_side = run_side("lookup", std::move(lookup_built), design);

    bench::Table table({{"path", 12}, {"gates", 8}, {"2^mu", 7},
                        {"lookups", 9}, {"prove Fr", 11},
                        {"prove Fq", 11}, {"keygen ms", 10},
                        {"prove ms", 10}, {"verify ms", 10},
                        {"chip ms", 9}, {"proof B", 8}});
    for (const Side *s : {&gate_side, &lookup_side}) {
        table.row({s->label, std::to_string(s->raw_gates),
                   std::to_string(size_t(1) << s->mu),
                   std::to_string(s->lookup_gates),
                   std::to_string(s->fr_muls), std::to_string(s->fq_muls),
                   bench::fmt(s->keygen_ms), bench::fmt(s->prove_ms),
                   bench::fmt(s->verify_ms), bench::fmt(s->chip_ms, 4),
                   std::to_string(s->proof_bytes)});
    }

    double constraint_ratio = ratio(double(size_t(1) << gate_side.mu),
                                    double(size_t(1) << lookup_side.mu));
    double raw_ratio =
        ratio(double(gate_side.raw_gates), double(lookup_side.raw_gates));
    double fr_ratio =
        ratio(double(gate_side.fr_muls), double(lookup_side.fr_muls));
    double fq_ratio =
        ratio(double(gate_side.fq_muls), double(lookup_side.fq_muls));
    std::printf(
        "\nconstraints: %.1fx fewer padded (%.1fx fewer active), "
        "prove modmuls: %.2fx fewer Fr, %.2fx fewer Fq, chip: %.2fx "
        "faster\n",
        constraint_ratio, raw_ratio, fr_ratio, fq_ratio,
        ratio(gate_side.chip_ms, lookup_side.chip_ms));

    bool verified = gate_side.verified && lookup_side.verified;
    bool fewer_constraints = constraint_ratio >= 2.0;
    bool fewer_fr = lookup_side.fr_muls < gate_side.fr_muls;
    bool fewer_fq = lookup_side.fq_muls < gate_side.fq_muls;

    auto side_json = [](const Side &side) {
        Value o = Value::object();
        o.set("active_gates", Value::of(uint64_t(side.raw_gates)));
        o.set("lookup_gates", Value::of(uint64_t(side.lookup_gates)));
        o.set("mu", Value::of(uint64_t(side.mu)));
        o.set("prove_fr_muls", Value::of(side.fr_muls));
        o.set("prove_fq_muls", Value::of(side.fq_muls));
        o.set("keygen_ms", Value::of(side.keygen_ms));
        o.set("prove_ms", Value::of(side.prove_ms));
        o.set("verify_ms", Value::of(side.verify_ms));
        o.set("chip_ms", Value::of(side.chip_ms));
        o.set("proof_bytes", Value::of(uint64_t(side.proof_bytes)));
        return o;
    };
    Value m = std::move(params);
    m.set("gate_based", side_json(gate_side));
    m.set("lookup", side_json(lookup_side));
    m.set("constraint_ratio", Value::of(constraint_ratio));
    m.set("active_gate_ratio", Value::of(raw_ratio));
    m.set("fr_mul_ratio", Value::of(fr_ratio));
    m.set("fq_mul_ratio", Value::of(fq_ratio));
    metrics.set(name, std::move(m));

    gates.push_back({name + ".both_verified", verified,
                     "both proof paths verified"});
    gates.push_back({name + ".meets_2x_constraint_target",
                     fewer_constraints,
                     "lookup circuit cuts padded constraints >= 2x"});
    gates.push_back({name + ".lookup_fewer_fr_muls", fewer_fr,
                     "lookup prove spends fewer Fr muls"});
    gates.push_back({name + ".lookup_fewer_fq_muls", fewer_fq,
                     "lookup prove spends fewer Fq muls"});

    bool ok = verified && fewer_constraints && fewer_fr && fewer_fq;
    if (!ok) {
        std::fprintf(stderr,
                     "FAILED: %s lookup did not beat the gate-based "
                     "circuit (verified=%d/%d, constraint_ratio=%.2f, "
                     "Fr %llu vs %llu, Fq %llu vs %llu)\n",
                     name.c_str(), gate_side.verified,
                     lookup_side.verified, constraint_ratio,
                     (unsigned long long)lookup_side.fr_muls,
                     (unsigned long long)gate_side.fr_muls,
                     (unsigned long long)lookup_side.fq_muls,
                     (unsigned long long)gate_side.fq_muls);
    }
    return ok;
}

}  // namespace

int
main(int argc, char **argv)
{
    size_t values = 256;
    unsigned bits = 8;
    unsigned rounds =
        unsigned(scenarios::env_u64("ZKSPEED_KECCAK_ROUNDS", 1));
    unsigned limb_bits = 4;
    const char *json_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--values") && i + 1 < argc) {
            values = size_t(std::atoi(argv[++i]));
        } else if (!std::strcmp(argv[i], "--bits") && i + 1 < argc) {
            bits = unsigned(std::atoi(argv[++i]));
        } else if (!std::strcmp(argv[i], "--rounds") && i + 1 < argc) {
            rounds = unsigned(std::atoi(argv[++i]));
        } else if (!std::strcmp(argv[i], "--limb-bits") && i + 1 < argc) {
            limb_bits = unsigned(std::atoi(argv[++i]));
        } else if (!std::strcmp(argv[i], "--quick")) {
            values = 32;
            bits = 8;
            rounds = 1;
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            json_path = argv[++i];
        }
    }
    if (values == 0 || bits == 0 || bits > 16 || rounds == 0 ||
        rounds > 24 || limb_bits == 0 || limb_bits > 8 ||
        64 % limb_bits != 0) {
        std::fprintf(stderr,
                     "--values must be positive, --bits in 1..16, "
                     "--rounds in 1..24, --limb-bits a divisor of 64 up "
                     "to 8\n");
        return 2;
    }

    using obs::jsonv::Value;
    auto design = sim::DesignConfig::paper_default();
    Value metrics = Value::object();
    std::vector<bench::Gate> gates;

    std::mt19937_64 rng_gates(42), rng_lookup(42);
    Value range_params = Value::object();
    range_params.set("values", Value::of(uint64_t(values)));
    range_params.set("bits", Value::of(uint64_t(bits)));
    bool ok = run_case(
        "range_bank",
        "Lookup argument vs. gate-based range bank: " +
            std::to_string(values) + " values x " + std::to_string(bits) +
            " bits",
        scenarios::circuits::range_bank(values, bits, rng_gates),
        scenarios::circuits::range_bank_lookup(values, bits, rng_lookup),
        std::move(range_params), design, metrics, gates);

    Value keccak_params = Value::object();
    keccak_params.set("rounds", Value::of(uint64_t(rounds)));
    keccak_params.set("limb_bits", Value::of(uint64_t(limb_bits)));
    ok &= run_case(
        "keccak",
        "In-circuit keccak: fused-lookup limbs vs. gate-based bits, " +
            std::to_string(rounds) + " round(s), " +
            std::to_string(limb_bits) + "-bit limbs",
        keccak_permutation(keccak::KeccakParams::gates(rounds), 42),
        keccak_permutation(keccak::KeccakParams::lookup(rounds, limb_bits),
                           42),
        std::move(keccak_params), design, metrics, gates);

    if (json_path != nullptr) {
        if (!bench::write_unified_report(json_path, "lookup",
                                         std::move(metrics), gates)) {
            std::fprintf(stderr, "cannot write %s\n", json_path);
            return 2;
        }
        std::printf("wrote %s\n", json_path);
    }
    return ok ? 0 : 1;
}
