/**
 * @file
 * End-to-end bridge between the two halves of the repository: build a
 * real circuit, prove and verify it with the software library, then
 * feed the circuit's *measured* witness statistics to the zkSpeed chip
 * model and report what the accelerator would do with the same workload
 * at paper scale.
 */
#include <cstdio>
#include <random>

#include "hyperplonk/gadgets.hpp"
#include "hyperplonk/prover.hpp"
#include "sim/chip.hpp"
#include "sim/cpu_model.hpp"

int
main()
{
    using namespace zkspeed;
    using namespace zkspeed::hyperplonk;
    namespace g = zkspeed::hyperplonk::gadgets;
    using ff::Fr;

    // 1. A realistic workload: a batch of Rescue preimage proofs.
    std::mt19937_64 rng(77);
    CircuitBuilder cb;
    for (int i = 0; i < 4; ++i) {
        Fr a = Fr::random(rng), b = Fr::random(rng);
        Fr h = g::rescue_hash2_value(a, b);
        Var pub = cb.add_public_input(h);
        Var out = g::rescue_hash2(cb, cb.add_variable(a),
                                  cb.add_variable(b));
        cb.assert_equal(out, pub);
    }
    auto [index, witness] = cb.build();
    std::printf("Circuit: %zu gates (2^%zu)\n", index.num_gates(),
                index.num_vars);

    // 2. Prove and verify in software.
    auto srs = std::make_shared<pcs::Srs>(
        pcs::Srs::generate(index.num_vars, rng));
    auto [pk, vk] = keygen(std::move(index), srs);
    Proof proof = prove(pk, witness);
    bool ok = verify(vk, witness.public_inputs(pk.index), proof);
    std::printf("Software prover: proof %zu bytes, verifier %s\n",
                proof.size_bytes(), ok ? "ACCEPT" : "REJECT");

    // 3. Measure the witness scalar population (what the Sparse MSMs
    // actually see) into a calibrated simulator workload.
    sim::Workload wl = sim::Workload::of("rescue batch (measured stats)",
                                         pk.index, witness);
    std::printf("Witness scalars: %.1f%% zero, %.1f%% one, %.1f%% "
                "dense\n",
                100.0 * wl.zeros_fraction, 100.0 * wl.ones_fraction,
                100.0 * wl.dense_fraction);

    // 4. What would zkSpeed do with this workload at paper scale?
    // Scale the measured statistics up to a 2^21 version of the same
    // application (the Table-3 Rescue row).
    wl.mu = 21;
    sim::Chip chip(sim::DesignConfig::paper_default());
    auto rep = chip.run(wl);
    double cpu_ms = sim::CpuModel::total_ms(wl.mu);
    std::printf("\nzkSpeed (366 mm^2, 2 TB/s) on the 2^%zu-gate "
                "version:\n", wl.mu);
    std::printf("  runtime %.3f ms vs CPU %.0f ms -> %.0fx speedup\n",
                rep.runtime_ms, cpu_ms, cpu_ms / rep.runtime_ms);
    for (const auto &[step, cyc] : rep.step_cycles) {
        std::printf("  %-26s %7.3f ms\n", step.c_str(),
                    double(cyc) / 1e6);
    }
    return ok ? 0 : 1;
}
