#include "scenarios/harness.hpp"

#include <chrono>
#include <cstdlib>

#include "hyperplonk/serialize.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/http.hpp"
#include "obs/trace.hpp"
#include "scenarios/registry.hpp"
#include "sim/tech.hpp"

namespace zkspeed::scenarios {

using runtime::JobResponse;
using runtime::JobStatus;
using runtime::VerifyRequest;
namespace wire = runtime::wire;

Harness::Harness(HarnessConfig cfg)
    : cfg_(cfg),
      service_(cfg.service),
      client_keys_(cfg.service.key_cache_capacity, cfg.service.srs_seed),
      trace_min_ts_us_(
          obs::TraceRecorder::to_us(std::chrono::steady_clock::now()))
{
    // Crash forensics opt-in for scenario drivers: when
    // ZKSPEED_FLIGHT_OUT names a path, keep a flight snapshot there
    // (proof_server installs unconditionally; the harness is library
    // code embedded in tests, so it only installs when asked).
    if (const char *fo = std::getenv("ZKSPEED_FLIGHT_OUT");
        fo != nullptr && *fo != '\0' && !obs::flight::installed()) {
        obs::flight::install();
    }
}

ScenarioResult
Harness::run(const Instance &inst)
{
    ScenarioResult res;
    res.spec = inst.spec;
    res.expected = inst.expected;

    auto fail = [&res](std::string why) {
        res.conformant = false;
        res.detail = std::move(why);
        return res;
    };

    // ------------------------------------------------------------------
    // 1. PROVE through the service. Unsatisfiable witnesses must be
    //    refused here and never reach a verifier.
    // ------------------------------------------------------------------
    runtime::JobRequest prove_req;
    prove_req.request_id = inst.spec.seed;
    prove_req.circuit = inst.circuit;
    prove_req.witness = inst.witness;
    JobResponse proved = service_.submit(prove_req).get();

    if (inst.expected == Outcome::reject_witness) {
        res.observed = proved.status == JobStatus::unsatisfiable
                           ? Outcome::reject_witness
                           : Outcome::accept;
        // Mirror the service front door: a witness is bad when it
        // violates its gates, its copy constraints OR its lookups.
        res.conformant =
            res.observed == Outcome::reject_witness &&
            !(inst.witness.satisfies_gates(inst.circuit) &&
              inst.witness.satisfies_wiring(inst.circuit) &&
              inst.witness.satisfies_lookups(inst.circuit));
        if (!res.conformant) {
            res.detail = "corrupted witness was not refused at the "
                         "proving front door (status " +
                         std::string(to_string(proved.status)) + ")";
        }
        return res;
    }
    if (!proved.ok()) {
        return fail("prove failed: " + proved.error);
    }

    // ------------------------------------------------------------------
    // 2. Client-side vk (same simulated SRS ceremony as the service)
    //    and the adversarially transformed material.
    // ------------------------------------------------------------------
    auto keys = client_keys_.get_or_create(inst.circuit).first;
    std::vector<ff::Fr> publics = inst.witness.public_inputs(inst.circuit);
    if (inst.tamper_publics) inst.tamper_publics(publics);
    res.presented_proof = inst.tamper_proof
                              ? inst.tamper_proof(proved.proof)
                              : proved.proof;

    // ------------------------------------------------------------------
    // 3. Direct and deferred verification.
    // ------------------------------------------------------------------
    auto decoded = hyperplonk::serde::deserialize_proof(res.presented_proof);
    if (!decoded.has_value()) {
        return fail("presented proof failed strict decoding; proof "
                    "tampering must stay decodable (use a frame family "
                    "for undecodable payloads)");
    }
    res.direct_verdict = hyperplonk::verify(*keys.vk, publics, *decoded);

    verifier::PairingAccumulator acc;
    bool algebra_ok =
        hyperplonk::verify_deferred(*keys.vk, publics, *decoded, acc);
    if (algebra_ok) {
        res.deferred_verdict = acc.check();
        res.batch_index = batch_.add(std::move(acc));
        predicted_.push_back(res.direct_verdict);
    } else {
        res.deferred_verdict = false;
    }

    // ------------------------------------------------------------------
    // 4. VERIFY through the service (frame families corrupt the frame
    //    on the way in and must bounce off strict decoding).
    // ------------------------------------------------------------------
    VerifyRequest vreq;
    vreq.request_id = inst.spec.seed + (uint64_t(1) << 32);
    vreq.vk = hyperplonk::serde::serialize_verifying_key(*keys.vk);
    vreq.public_inputs = publics;
    vreq.proof = res.presented_proof;
    JobResponse verified =
        inst.tamper_frame
            ? service_
                  .submit(inst.tamper_frame(
                      wire::encode_verify_request(vreq)))
                  .get()
            : service_.submit(vreq).get();

    switch (verified.status) {
        case JobStatus::ok:
            res.service_verdict = true;
            res.observed = Outcome::accept;
            break;
        case JobStatus::invalid_proof:
            res.service_verdict = false;
            res.observed = Outcome::reject_proof;
            break;
        case JobStatus::malformed_request:
            res.service_verdict = false;
            res.observed = Outcome::reject_frame;
            break;
        default:
            return fail(std::string("unexpected verify status ") +
                        to_string(verified.status) + ": " +
                        verified.error);
    }

    // ------------------------------------------------------------------
    // 5. Conformance: observed matches declared, and every verification
    //    path that saw the proof reached the same verdict.
    // ------------------------------------------------------------------
    if (res.observed != inst.expected) {
        return fail(std::string("expected ") + to_string(inst.expected) +
                    " but observed " + to_string(res.observed));
    }
    if (inst.expected == Outcome::reject_frame) {
        // The frame died in decoding; the proof itself was honest, so
        // the out-of-band paths must have accepted it.
        res.conformant = res.direct_verdict && res.deferred_verdict;
        if (!res.conformant) {
            res.detail = "frame-family proof rejected out of band";
        }
        return res;
    }
    if (res.direct_verdict != res.service_verdict ||
        res.direct_verdict != res.deferred_verdict) {
        return fail("verification paths disagree: direct=" +
                    std::to_string(res.direct_verdict) + " deferred=" +
                    std::to_string(res.deferred_verdict) + " service=" +
                    std::to_string(res.service_verdict));
    }
    res.conformant = true;
    return res;
}

SuiteResult
Harness::finish()
{
    SuiteResult suite;
    suite.predicted_verdicts = predicted_;
    suite.batch = batch_.flush();
    suite.batch_matches_direct =
        suite.batch.verdicts.size() == predicted_.size();
    if (suite.batch_matches_direct) {
        for (size_t i = 0; i < predicted_.size(); ++i) {
            if (suite.batch.verdicts[i] != predicted_[i]) {
                suite.batch_matches_direct = false;
                break;
            }
        }
    }
    service_.shutdown();
    suite.replay = sim::replay_trace(service_.trace(),
                                     sim::DesignConfig::paper_default());
    // Join the suite's prover spans against the replayed chip model,
    // export the drift gauges *before* the telemetry capture below so
    // they appear in the captured expositions, and write
    // ATTRIB_report.json when asked to.
    obs::attrib::Options aopts;
    aopts.min_ts_us = trace_min_ts_us_;
    aopts.clock_ghz = sim::kClockGhz;
    suite.attrib = obs::attrib::build(obs::TraceRecorder::global().events(),
                                      sim::attrib_jobs(suite.replay), aopts);
    obs::attrib::export_to_registry(suite.attrib,
                                    obs::MetricsRegistry::global());
    suite.attrib_json = obs::attrib::render_json(suite.attrib);
    // Feed the live /attrib endpoint (and obs::flush_all's
    // ZKSPEED_ATTRIB_OUT fallback) the freshest report.
    obs::set_latest_attrib_json(suite.attrib_json);
    const char *attrib_out = std::getenv("ZKSPEED_ATTRIB_OUT");
    if (attrib_out != nullptr && *attrib_out != '\0') {
        obs::write_file(attrib_out, suite.attrib_json);
    }
    // Snapshot after shutdown so the drained batch window and every
    // worker's shard are in; render both expositions and the span trace
    // so callers can persist the artifacts directly.
    suite.telemetry = obs::MetricsRegistry::global().snapshot();
    suite.metrics_prom = obs::render_prometheus_text(suite.telemetry);
    suite.metrics_json = obs::render_json(suite.telemetry);
    suite.trace_json = obs::TraceRecorder::global().render_chrome_json();
    predicted_.clear();
    return suite;
}

std::vector<loadgen::FramePool>
make_frame_pools(const std::vector<loadgen::MixEntry> &mix,
                 runtime::ProofService &service,
                 runtime::KeyCache &client_keys, size_t frames_per_pool)
{
    if (mix.empty()) {
        throw loadgen::PlanError("capacity: plan has no mix entries");
    }
    if (frames_per_pool == 0) {
        throw loadgen::PlanError("capacity: frames_per_pool must be >= 1");
    }
    const Registry &registry = Registry::global();
    std::vector<loadgen::FramePool> pools;
    pools.reserve(mix.size());
    for (size_t p = 0; p < mix.size(); ++p) {
        const auto &entry = mix[p];
        const Family *family = registry.find(entry.family);
        if (family == nullptr) {
            throw loadgen::PlanError("capacity: unknown scenario family '" +
                                     entry.family + "'");
        }
        if (family->adversarial()) {
            throw loadgen::PlanError(
                "capacity: family '" + entry.family +
                "' is adversarial; capacity plans replay honest traffic "
                "only");
        }
        loadgen::FramePool pool;
        pool.name = entry.family;
        pool.weight = entry.weight;
        for (size_t i = 0; i < frames_per_pool; ++i) {
            Spec spec;
            spec.name = entry.family;
            spec.log_size = entry.log_size;
            spec.seed = entry.seed + i;
            Instance inst = registry.build(spec);

            runtime::JobRequest prove_req;
            prove_req.request_id = (uint64_t(p) << 32) | i;
            prove_req.circuit = inst.circuit;
            prove_req.witness = inst.witness;
            pool.prove_frames.push_back(wire::encode_request(prove_req));

            // The matching VERIFY frame needs a real proof: prove once
            // through the service (also warms its key cache) and pair
            // the proof with the client-side vk.
            JobResponse proved = service.submit(prove_req).get();
            if (!proved.ok()) {
                throw loadgen::PlanError(
                    "capacity: pre-prove failed for " + spec.describe() +
                    ": " + proved.error);
            }
            auto keys = client_keys.get_or_create(inst.circuit).first;
            VerifyRequest vreq;
            vreq.request_id =
                (uint64_t(1) << 63) | (uint64_t(p) << 32) | i;
            vreq.vk = hyperplonk::serde::serialize_verifying_key(*keys.vk);
            vreq.public_inputs = inst.witness.public_inputs(inst.circuit);
            vreq.proof = proved.proof;
            pool.verify_frames.push_back(
                wire::encode_verify_request(vreq));
        }
        pools.push_back(std::move(pool));
    }
    return pools;
}

loadgen::Report
run_capacity(const CapacityConfig &cfg)
{
    runtime::ProofService service(cfg.service);
    runtime::KeyCache client_keys(cfg.service.key_cache_capacity,
                                  cfg.service.srs_seed);
    std::vector<loadgen::FramePool> pools = make_frame_pools(
        cfg.plan.mix, service, client_keys, cfg.frames_per_pool);
    loadgen::LoadGen generator(service, std::move(pools), cfg.plan);
    loadgen::Report report = generator.run(cfg.stream);
    service.shutdown();
    return report;
}

}  // namespace zkspeed::scenarios
