/**
 * @file
 * Amortized batch verification vs. independent verification.
 *
 * Proves a pool of statements once, then times two ways of checking N
 * proofs:
 *   single — N independent hyperplonk::verify calls in pairing mode
 *            (each pays its own MSMs + multi-pairing + final exp);
 *   batch  — N verify_deferred algebraic passes + one BatchVerifier
 *            flush (one folded RLC MSM + one multi-pairing).
 *
 * Also demonstrates the bisection fallback: a batch with one corrupted
 * proof must isolate exactly that proof while still accepting the rest.
 *
 * Usage: bench_batch_verify [--n N] [--mu M] [--quick] [--json PATH]
 * --quick shrinks to a CI-smoke size; --json writes the measurements
 * as a single JSON object (the perf-trajectory artifact). Both paths
 * also report their exact Fq muls per proof (ff counters; reported,
 * not gated).
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>

#include "ff/counters.hpp"
#include "hyperplonk/prover.hpp"
#include "report.hpp"
#include "verify/batch_verifier.hpp"

using namespace zkspeed;
using ff::Fr;

namespace {

using Clock = std::chrono::steady_clock;

double
ms_since(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

struct Statement {
    hyperplonk::VerifyingKey vk;
    std::vector<Fr> publics;
    hyperplonk::Proof proof;
};

}  // namespace

int
main(int argc, char **argv)
{
    size_t n = 64;
    size_t mu = 5;
    const char *json_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--n") && i + 1 < argc) {
            n = size_t(std::atoi(argv[++i]));
        } else if (!std::strcmp(argv[i], "--mu") && i + 1 < argc) {
            mu = size_t(std::atoi(argv[++i]));
        } else if (!std::strcmp(argv[i], "--quick")) {
            n = 8;
            mu = 3;
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            json_path = argv[++i];
        }
    }
    if (n == 0 || mu == 0) {
        std::fprintf(stderr, "--n and --mu must be positive\n");
        return 2;
    }

    bench::title("Batch verification: N=" + std::to_string(n) +
                 " proofs, 2^" + std::to_string(mu) + " gates");

    // One SRS + a small pool of distinct statements, cycled to N proofs
    // (verification cost does not depend on witness values, so cycling
    // keeps the prove phase short without flattering the batch side).
    std::mt19937_64 srs_rng(0x5eed);
    auto srs =
        std::make_shared<pcs::Srs>(pcs::Srs::generate(mu, srs_rng));
    const size_t pool = std::min<size_t>(n, 8);
    std::vector<Statement> statements;
    statements.reserve(pool);
    auto prove_start = Clock::now();
    for (size_t i = 0; i < pool; ++i) {
        std::mt19937_64 rng(1000 + i);
        auto [index, witness] = hyperplonk::random_circuit(mu, rng);
        auto [pk, vk] = hyperplonk::keygen(index, srs);
        Statement st;
        st.publics = witness.public_inputs(index);
        st.proof = hyperplonk::prove(pk, witness);
        st.vk = vk;
        statements.push_back(std::move(st));
    }
    std::printf("proved %zu distinct statements in %.1f ms\n", pool,
                ms_since(prove_start));

    auto stmt = [&](size_t i) -> const Statement & {
        return statements[i % pool];
    };

    // --- single: N independent pairing-mode verifications. ---
    auto single_start = Clock::now();
    ff::ModmulScope single_muls;
    size_t single_ok = 0;
    for (size_t i = 0; i < n; ++i) {
        const Statement &s = stmt(i);
        if (hyperplonk::verify(s.vk, s.publics, s.proof)) ++single_ok;
    }
    double single_ms = ms_since(single_start);
    const double single_fq = double(single_muls.fq_delta()) / double(n);

    // --- batch: N algebraic passes + one folded flush. ---
    auto batch_start = Clock::now();
    ff::ModmulScope batch_muls;
    verifier::BatchVerifier bv;
    for (size_t i = 0; i < n; ++i) {
        const Statement &s = stmt(i);
        verifier::PairingAccumulator acc;
        if (!hyperplonk::verify_deferred(s.vk, s.publics, s.proof, acc)) {
            std::fprintf(stderr, "algebraic check unexpectedly failed\n");
            return 1;
        }
        bv.add(std::move(acc));
    }
    auto result = bv.flush();
    double batch_ms = ms_since(batch_start);
    const double batch_fq = double(batch_muls.fq_delta()) / double(n);

    // Assertion note: the single path pairs through the *fused*
    // unprepared Miller loop (no G2Prepared coefficient vectors are
    // materialised for one-shot pairings), while the batch path
    // prepares each distinct G2 point once and reuses the coefficients
    // across bisection probes. Both must reach identical verdicts —
    // the exit status enforces it (and test_pairing asserts the two
    // loops produce bit-identical Fq12 values).
    bool all_ok = single_ok == n && result.all_ok();
    double speedup = batch_ms > 0 ? single_ms / batch_ms : 0;

    bench::Table table({{"path", 28}, {"total ms", 12}, {"ms/proof", 12},
                        {"proofs/s", 12}, {"Fq muls/proof", 14}});
    table.row({"single verify x N", bench::fmt(single_ms),
               bench::fmt(single_ms / double(n)),
               bench::fmt(1000.0 * double(n) / single_ms, 1),
               bench::fmt_int(uint64_t(single_fq))});
    table.row({"batch (fold + 1 pairing)", bench::fmt(batch_ms),
               bench::fmt(batch_ms / double(n)),
               bench::fmt(1000.0 * double(n) / batch_ms, 1),
               bench::fmt_int(uint64_t(batch_fq))});
    std::printf("\nspeedup: %.2fx   (folded MSM: %zu points, "
                "multi-pairing: %zu pairs, %zu check(s))\n",
                speedup, result.stats.msm_points,
                result.stats.num_pairings, result.stats.pairing_checks);

    // --- bisection: one corrupted proof must be isolated. ---
    verifier::BatchVerifier bv_bad;
    const size_t bad_index = n / 2;
    for (size_t i = 0; i < n; ++i) {
        const Statement &s = stmt(i);
        auto proof = s.proof;
        if (i == bad_index) {
            auto &q = proof.gprime_proof.quotients[0];
            q = (curve::G1::from_affine(q) + curve::g1_generator())
                    .to_affine();
        }
        verifier::PairingAccumulator acc;
        if (!hyperplonk::verify_deferred(s.vk, s.publics, proof, acc)) {
            std::fprintf(stderr, "algebraic check unexpectedly failed\n");
            return 1;
        }
        bv_bad.add(std::move(acc));
    }
    auto bisect_start = Clock::now();
    auto bad_result = bv_bad.flush();
    double bisect_ms = ms_since(bisect_start);
    bool isolated = !bad_result.verdicts[bad_index];
    for (size_t i = 0; i < n && isolated; ++i) {
        if (i != bad_index && !bad_result.verdicts[i]) isolated = false;
    }
    std::printf("bisection: corrupted proof %zu %s in %zu probe(s), "
                "%.2f ms (honest proofs still accepted)\n",
                bad_index, isolated ? "isolated" : "NOT ISOLATED",
                bad_result.stats.bisection_steps, bisect_ms);

    if (json_path != nullptr) {
        using obs::jsonv::Value;
        Value metrics = Value::object();
        metrics.set("n", Value::of(uint64_t(n)));
        metrics.set("mu", Value::of(uint64_t(mu)));
        metrics.set("single_total_ms", Value::of(single_ms));
        metrics.set("batch_total_ms", Value::of(batch_ms));
        metrics.set("speedup", Value::of(speedup));
        metrics.set("single_proofs_per_s",
                    Value::of(1000.0 * double(n) / single_ms));
        metrics.set("batch_proofs_per_s",
                    Value::of(1000.0 * double(n) / batch_ms));
        metrics.set("single_fq_muls_per_proof", Value::of(single_fq));
        metrics.set("batch_fq_muls_per_proof", Value::of(batch_fq));
        metrics.set("folded_msm_points",
                    Value::of(uint64_t(result.stats.msm_points)));
        metrics.set("multi_pairing_pairs",
                    Value::of(uint64_t(result.stats.num_pairings)));
        metrics.set("bisection_probes",
                    Value::of(uint64_t(bad_result.stats.bisection_steps)));
        metrics.set("bisection_ms", Value::of(bisect_ms));
        metrics.set("corrupted_isolated", Value::of(isolated));
        metrics.set("all_valid_accepted", Value::of(all_ok));
        if (!bench::write_unified_report(
                json_path, "batch_verify", std::move(metrics),
                {{"all_valid_accepted", all_ok,
                  "every honest proof accepted by the folded check"},
                 {"corrupted_isolated", isolated,
                  "bisection isolated the corrupted proof"}})) {
            std::fprintf(stderr, "cannot write %s\n", json_path);
            return 2;
        }
        std::printf("wrote %s\n", json_path);
    }

    if (!all_ok || !isolated) {
        std::fprintf(stderr, "FAILED: verification disagreement\n");
        return 1;
    }
    return 0;
}
