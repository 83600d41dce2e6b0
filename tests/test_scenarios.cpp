/**
 * @file
 * Scenario conformance suite (suite #20): enumerates the whole workload
 * registry and drives every family — honest and adversarial — through
 * prove -> wire -> ProofService -> BatchVerifier -> sim replay,
 * asserting cross-layer agreement: the direct, deferred and service
 * verification paths must reach identical verdicts, the suite-wide
 * batch fold must reproduce them (isolating tampered proofs via
 * bisection), and the replayed trace must stay sane on the chip model.
 *
 * Determinism: every random draw descends from one base seed,
 * overridable with ZKSPEED_TEST_SEED; failures print the seed and the
 * scenario spec so any red run reproduces in one command. The SoakSweep
 * suite re-runs the registry across extra seeds and larger sizes and is
 * registered with the `soak` ctest label (depth dialled up in CI via
 * ZKSPEED_SOAK_SEEDS / ZKSPEED_SOAK_MU_BUMP).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "scenarios/harness.hpp"
#include "scenarios/registry.hpp"
#include "scenarios/seed.hpp"

namespace {

using namespace zkspeed;
using scenarios::Instance;
using scenarios::Outcome;
using scenarios::Registry;
using scenarios::ScenarioResult;
using scenarios::Spec;

const uint64_t kSeed = scenarios::test_seed(2026);

std::string
repro(const Spec &spec)
{
    return "rerun with: ZKSPEED_TEST_SEED=" + std::to_string(kSeed) +
           " ctest -R test_scenarios   (scenario " + spec.describe() + ")";
}

TEST(Registry, OffersDiverseUniquelyNamedFamilies)
{
    const auto &reg = Registry::global();
    EXPECT_GE(reg.size(), 8u) << "the workload library shrank";
    std::set<std::string> names;
    size_t adversarial = 0;
    for (const auto &f : reg.families()) {
        EXPECT_TRUE(names.insert(f.name).second)
            << "duplicate family name " << f.name;
        EXPECT_FALSE(f.description.empty()) << f.name;
        EXPECT_EQ(reg.find(f.name), &f) << f.name;
        if (f.adversarial()) ++adversarial;
    }
    EXPECT_GE(adversarial, 3u);
    EXPECT_EQ(reg.find("no-such-family"), nullptr);
    Spec unknown;
    unknown.name = "no-such-family";
    EXPECT_THROW((void)reg.build(unknown), std::out_of_range);

    // The default suite covers every family and the full outcome
    // taxonomy, so the e2e sweep below exercises all four contracts.
    auto suite = reg.default_suite(kSeed);
    EXPECT_EQ(suite.size(), reg.size());
    std::set<Outcome> outcomes;
    for (const auto &spec : suite) {
        outcomes.insert(reg.find(spec.name)->expected);
    }
    EXPECT_EQ(outcomes.size(), 4u)
        << "suite no longer covers ACCEPT / REJECT_WITNESS / "
           "REJECT_PROOF / REJECT_FRAME";
}

TEST(Registry, BuildsAreDeterministicInTheSpec)
{
    const auto &reg = Registry::global();
    for (const Spec &spec : reg.default_suite(kSeed)) {
        SCOPED_TRACE(repro(spec));
        Instance a = reg.build(spec);
        Instance b = reg.build(spec);
        EXPECT_TRUE(a.circuit == b.circuit);
        for (size_t j = 0; j < 3; ++j) {
            EXPECT_EQ(a.witness.w[j], b.witness.w[j]);
        }
        EXPECT_EQ(a.expected, b.expected);
        // A different seed draws genuinely different material. Some
        // families keep the circuit shape seed-invariant on purpose
        // (values live in the witness, so the key cache can hit across
        // seeds) — but then the witness must differ.
        Spec other = spec;
        other.seed += 1;
        Instance c = reg.build(other);
        bool circuit_differs = !(c.circuit == a.circuit);
        bool witness_differs = false;
        for (size_t j = 0; j < 3; ++j) {
            if (!(c.witness.w[j] == a.witness.w[j])) {
                witness_differs = true;
            }
        }
        EXPECT_TRUE(circuit_differs || witness_differs)
            << "builder ignores the seed";
    }
}

TEST(Registry, HonestWitnessesSatisfyAdversarialOnesDeclareWhy)
{
    const auto &reg = Registry::global();
    for (const Spec &spec : reg.default_suite(kSeed)) {
        SCOPED_TRACE(repro(spec));
        Instance inst = reg.build(spec);
        EXPECT_GE(inst.circuit.num_vars, spec.log_size);
        switch (inst.expected) {
            case Outcome::reject_witness:
                // Bad via gates, wiring or lookups — any of the three
                // trips the service's front-door witness check.
                EXPECT_FALSE(
                    inst.witness.satisfies_gates(inst.circuit) &&
                    inst.witness.satisfies_wiring(inst.circuit) &&
                    inst.witness.satisfies_lookups(inst.circuit));
                break;
            case Outcome::reject_proof:
                EXPECT_TRUE(inst.witness.satisfies_gates(inst.circuit));
                EXPECT_TRUE(inst.witness.satisfies_lookups(inst.circuit));
                EXPECT_TRUE(bool(inst.tamper_proof) ||
                            bool(inst.tamper_publics))
                    << "reject_proof family carries no proof transform";
                break;
            case Outcome::reject_frame:
                EXPECT_TRUE(bool(inst.tamper_frame));
                EXPECT_TRUE(inst.witness.satisfies_gates(inst.circuit));
                break;
            case Outcome::accept:
                EXPECT_TRUE(inst.witness.satisfies_gates(inst.circuit));
                EXPECT_TRUE(inst.witness.satisfies_wiring(inst.circuit));
                EXPECT_TRUE(inst.witness.satisfies_lookups(inst.circuit));
                EXPECT_FALSE(bool(inst.tamper_proof));
                break;
        }
    }
}

TEST(Conformance, EveryScenarioEndToEndWithCrossLayerAgreement)
{
    const auto &reg = Registry::global();
    scenarios::Harness harness;
    // The default suite picks one frame-corruption kind by seed; pin
    // all three variants explicitly so the blocking gate always covers
    // truncation, bad magic, and the oversized length prefix.
    auto sweep = reg.default_suite(kSeed);
    for (uint64_t variant = 0; variant < 3; ++variant) {
        Spec spec;
        spec.name = "malformed-frame";
        spec.seed = kSeed + 100;
        spec.knobs["variant"] = variant;
        sweep.push_back(std::move(spec));
    }
    std::vector<ScenarioResult> results;
    std::set<Outcome> observed;
    for (const Spec &spec : sweep) {
        SCOPED_TRACE(repro(spec));
        ScenarioResult res = harness.run(reg.build(spec));
        EXPECT_TRUE(res.conformant) << res.detail;
        EXPECT_EQ(res.observed, res.expected);
        observed.insert(res.observed);
        results.push_back(std::move(res));
    }
    EXPECT_EQ(observed.size(), 4u) << "outcome coverage shrank";

    // Every proof that reached the accumulator rides one folded flush;
    // its verdict must match what the direct path predicted, and the
    // tampered proofs must be isolated by bisection without dragging
    // honest batch-mates down.
    size_t batched = 0, expected_false = 0;
    for (const auto &res : results) {
        if (res.batch_index == SIZE_MAX) continue;
        ++batched;
        if (!res.direct_verdict) ++expected_false;
    }
    ASSERT_GE(batched, 8u);
    ASSERT_GE(expected_false, 1u)
        << "no pairing-side adversarial proof reached the batch";

    auto suite = harness.finish();
    EXPECT_TRUE(suite.batch_matches_direct)
        << "batched verdicts diverge from direct verification";
    ASSERT_EQ(suite.batch.verdicts.size(), batched);
    for (const auto &res : results) {
        if (res.batch_index == SIZE_MAX) continue;
        EXPECT_EQ(suite.batch.verdicts[res.batch_index],
                  res.direct_verdict)
            << res.spec.describe();
    }
    EXPECT_GT(suite.batch.stats.bisection_steps, 0u);
    EXPECT_GT(suite.batch.stats.pairing_checks, 1u);

    // Replay-cycle sanity: every proved job and verify flush crossed
    // the chip model with non-degenerate latencies.
    // Frame-family proofs are accumulated client-side (the proof is
    // honest; the frame died in service decoding), so the service parks
    // one fewer VERIFY job per frame scenario than the local batch.
    size_t proved = 0, service_parked = 0;
    for (const auto &res : results) {
        if (res.expected != Outcome::reject_witness &&
            !res.presented_proof.empty()) {
            ++proved;
        }
        if (res.batch_index != SIZE_MAX &&
            res.expected != Outcome::reject_frame) {
            ++service_parked;
        }
    }
    EXPECT_EQ(suite.replay.prove_jobs, proved);
    EXPECT_GE(suite.replay.verify_flushes, 1u);
    EXPECT_EQ(suite.replay.proofs_verified, service_parked);
    EXPECT_GT(suite.replay.chip_total_ms, 0.0);
    EXPECT_GT(suite.replay.sw_total_ms, 0.0);
    EXPECT_GT(suite.replay.speedup, 1.0)
        << "the modelled accelerator fell behind the software prover";
    EXPECT_EQ(suite.replay.prove_jobs + suite.replay.verify_flushes,
              suite.replay.jobs.size());

    // The service saw exactly the traffic the scenario sweep generated
    // (read from the registry snapshot finish() captured).
    const std::pair<std::string, std::string> sv{"service",
                                                 harness.service_label()};
    const auto *prove_ok = suite.telemetry.find(
        "zkspeed_job_latency_ms",
        {sv, {"class", "prove"}, {"status", "ok"}});
    ASSERT_NE(prove_ok, nullptr);
    EXPECT_EQ(prove_ok->hist.count, proved);
    const auto *accepted = suite.telemetry.find(
        "zkspeed_verify_verdicts_total", {sv, {"verdict", "accepted"}});
    const auto *rejected = suite.telemetry.find(
        "zkspeed_verify_verdicts_total", {sv, {"verdict", "rejected"}});
    ASSERT_NE(accepted, nullptr);
    ASSERT_NE(rejected, nullptr);
    EXPECT_EQ(accepted->counter + rejected->counter, service_parked);
}

TEST(Conformance, PipelineIsDeterministicAcrossHarnesses)
{
    const auto &reg = Registry::global();
    Spec spec;
    spec.name = "rescue-chain";
    spec.seed = kSeed + 7;
    spec.log_size = 4;

    auto run_once = [&] {
        scenarios::Harness harness;
        ScenarioResult res = harness.run(reg.build(spec));
        EXPECT_TRUE(res.conformant) << res.detail;
        (void)harness.finish();
        return res.presented_proof;
    };
    auto first = run_once();
    auto second = run_once();
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second)
        << "same spec, fresh service: proof bytes must be identical";
}

// ---------------------------------------------------------------------
// Soak sweep (ctest label `soak`): the whole registry across extra
// seeds and larger circuits. Shallow by default; CI's non-blocking
// soak job raises ZKSPEED_SOAK_SEEDS / ZKSPEED_SOAK_MU_BUMP.
// ---------------------------------------------------------------------
TEST(SoakSweep, RegistryAcrossSeedsAndSizes)
{
    const uint64_t seeds = scenarios::env_u64("ZKSPEED_SOAK_SEEDS", 1);
    const uint64_t bump = scenarios::env_u64("ZKSPEED_SOAK_MU_BUMP", 1);
    const auto &reg = Registry::global();
    for (uint64_t s = 0; s < seeds; ++s) {
        scenarios::Harness harness;
        const uint64_t base = kSeed + 1000 * (s + 1);
        for (const Spec &spec :
             reg.default_suite(base, size_t(4 + bump))) {
            SCOPED_TRACE("rerun with: ZKSPEED_TEST_SEED=" +
                         std::to_string(kSeed) +
                         " ZKSPEED_SOAK_SEEDS=" + std::to_string(seeds) +
                         " ZKSPEED_SOAK_MU_BUMP=" + std::to_string(bump) +
                         " ctest -R test_scenarios_soak   (scenario " +
                         spec.describe() + ")");
            ScenarioResult res = harness.run(reg.build(spec));
            EXPECT_TRUE(res.conformant) << res.detail;
        }
        auto suite = harness.finish();
        EXPECT_TRUE(suite.batch_matches_direct);
        EXPECT_GT(suite.replay.speedup, 1.0);
    }
}

// Capacity ramp in the soak lane: a monotone offered-QPS sweep through
// the load generator against a dedicated service. Shallow by default
// (a handful of short windows); CI's soak job raises the dials via
// ZKSPEED_CAPACITY_WINDOWS / ZKSPEED_CAPACITY_QPS. The SLO here is a
// liveness gate, not a latency target — the interesting output is the
// windowed percentile series and the knee estimate.
TEST(SoakSweep, CapacityRamp)
{
    const uint64_t windows =
        scenarios::env_u64("ZKSPEED_CAPACITY_WINDOWS", 4);
    const uint64_t qps1 = scenarios::env_u64("ZKSPEED_CAPACITY_QPS", 12);
    scenarios::CapacityConfig cfg;
    cfg.plan.mix.push_back(
        loadgen::MixEntry{"rescue-chain", 3.0, 4, kSeed});
    cfg.plan.mix.push_back(
        loadgen::MixEntry{"range-bank", 1.0, 4, kSeed + 7});
    cfg.plan.profile.kind = loadgen::Profile::Kind::ramp;
    cfg.plan.profile.qps0 = 2;
    cfg.plan.profile.qps1 = double(qps1);
    cfg.plan.windows = size_t(std::max<uint64_t>(2, windows));
    cfg.plan.window_ms = 500;
    cfg.plan.seed = kSeed;
    cfg.plan.verify_fraction = 0.25;
    obs::SloObjective o;
    o.name = "liveness-p99";
    o.series = {"zkspeed_job_latency_ms", {{"status", "ok"}}};
    o.q = 0.99;
    o.threshold = 60000.0;
    cfg.plan.objectives.push_back(o);
    cfg.frames_per_pool = 2;
    cfg.stream = stdout;

    auto rep = scenarios::run_capacity(cfg);
    EXPECT_TRUE(rep.slo_ok) << "liveness SLO breached in the ramp";
    EXPECT_GT(rep.completed_total, 0u);
    ASSERT_EQ(rep.windows.size(), cfg.plan.windows);
    // The offered-QPS targets sweep monotonically by construction.
    for (size_t w = 1; w < rep.windows.size(); ++w) {
        EXPECT_GT(rep.windows[w].qps_target,
                  rep.windows[w - 1].qps_target);
    }
    EXPECT_TRUE(rep.knee_found);
}

}  // namespace
