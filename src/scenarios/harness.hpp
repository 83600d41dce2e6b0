/**
 * @file
 * End-to-end conformance harness: drives one scenario Instance through
 * every layer of the system and cross-checks that the layers agree.
 *
 * Per scenario (run()):
 *   1. PROVE as a wire-encoded job through a live ProofService
 *      (adversarial witnesses must be refused at this front door);
 *   2. rebuild the client-side verifying key from the circuit (same
 *      simulated SRS ceremony as the service);
 *   3. apply the instance's adversarial transforms (tampered proof
 *      bytes / forged publics / corrupted frame);
 *   4. verify the presented proof three independent ways: direct
 *      (hyperplonk::verify, pairing mode), deferred (verify_deferred
 *      into the suite-wide BatchVerifier), and as a VERIFY job through
 *      the service's batch window;
 *   5. classify the observed Outcome and record per-path verdicts.
 *
 * Per suite (finish()): flush the accumulated BatchVerifier fold in one
 * go — adversarial pairing-side proofs must be isolated by bisection
 * without dragging honest batch-mates down — then shut the service down
 * and replay its trace through the zkSpeed chip model.
 */
#pragma once

#include "loadgen/loadgen.hpp"
#include "obs/attrib.hpp"
#include "obs/metrics.hpp"
#include "runtime/service.hpp"
#include "scenarios/scenario.hpp"
#include "sim/replay.hpp"
#include "verify/batch_verifier.hpp"

namespace zkspeed::scenarios {

struct HarnessConfig {
    runtime::ServiceConfig service;
    /** Replay the service trace through the chip model in finish(). */
    bool replay = true;
    /** Capture the telemetry artifacts (metrics exposition + Chrome
     * trace JSON) into the SuiteResult in finish(). */
    bool capture_telemetry = true;

    HarnessConfig()
    {
        // Scenarios are submitted one at a time, so a short batch
        // window keeps each VERIFY job from idling in the coalescer.
        service.num_workers = 1;
        service.total_parallelism = 1;
        service.verify_batch_size = 4;
        service.verify_batch_window_ms = 2.0;
    }
};

/** Everything observed while driving one scenario end to end. */
struct ScenarioResult {
    Spec spec;
    Outcome expected = Outcome::accept;
    Outcome observed = Outcome::accept;

    /** Proof-bearing scenarios: per-path verdicts on the presented
     * proof. All three must agree for the result to be conformant. */
    bool direct_verdict = false;    ///< hyperplonk::verify, pairing mode
    bool deferred_verdict = false;  ///< verify_deferred algebra + flush
    bool service_verdict = false;   ///< VERIFY job through the service

    /** Index within the suite-wide batch fold (SIZE_MAX when the proof
     * never reached the accumulator, e.g. algebra already rejected). */
    size_t batch_index = SIZE_MAX;

    /** Canonical proof bytes as presented to the verifiers. */
    std::vector<uint8_t> presented_proof;

    /** Cross-layer agreement: every path reached the same conclusion
     * and the observed outcome matches the family's declaration. */
    bool conformant = false;
    std::string detail;  ///< human-readable reason when not conformant
};

struct SuiteResult {
    /** The one folded flush over every accumulated proof. */
    verifier::BatchResult batch;
    /** Per batch index, the verdict the direct path predicted. */
    std::vector<bool> predicted_verdicts;
    /** Folded verdicts agree with the per-proof direct verdicts. */
    bool batch_matches_direct = false;
    /** Chip-model replay of the service trace (config.replay). */
    sim::ReplayReport replay;
    /** Kernel-level cost attribution joining this suite's prover spans
     * with the replayed chip model (config.replay; also exported as
     * zkspeed_model_drift_ratio gauges before the telemetry capture
     * below, and to $ZKSPEED_ATTRIB_OUT as ATTRIB_report.json). */
    obs::attrib::Report attrib;
    std::string attrib_json;  ///< rendered "zkspeed-attrib-v1" document

    /** Telemetry artifacts (config.capture_telemetry): a registry
     * snapshot taken after shutdown plus the rendered expositions and
     * the Chrome trace of the whole suite — callers write these
     * straight to metrics.prom / metrics.json / trace.json. */
    obs::Snapshot telemetry;
    std::string metrics_prom;
    std::string metrics_json;
    std::string trace_json;
};

class Harness
{
  public:
    explicit Harness(HarnessConfig cfg = HarnessConfig());

    /** Drive one scenario end to end. */
    ScenarioResult run(const Instance &inst);

    /** Flush the suite-wide batch, shut down, replay. Call once. */
    SuiteResult finish();

    size_t batched_proofs() const { return predicted_.size(); }
    /** `service` label of the harness's ProofService registry series. */
    const std::string &service_label() const
    {
        return service_.instance_label();
    }

  private:
    HarnessConfig cfg_;
    runtime::ProofService service_;
    runtime::KeyCache client_keys_;
    verifier::BatchVerifier batch_;
    std::vector<bool> predicted_;
    /** Recorder timestamp at construction: scopes the attribution join
     * to this harness's spans (the global ring accumulates across every
     * suite the process runs). */
    double trace_min_ts_us_ = 0;
};

/**
 * Soak-lane capacity mode: drive a loadgen plan against a dedicated
 * service instance and report the windowed SLO series + knee estimate.
 */
struct CapacityConfig {
    loadgen::Plan plan;
    runtime::ServiceConfig service;
    /** Distinct pre-proved instances cycled per mix entry. */
    size_t frames_per_pool = 4;
    /** Per-window streaming output (nullptr = silent). */
    std::FILE *stream = nullptr;

    CapacityConfig()
    {
        // Capacity runs stress the queue on purpose: keep it short so
        // over-capacity offered load sheds instead of building an
        // unbounded latency backlog, and coalesce verify traffic on a
        // tight window like the conformance harness does.
        service.queue_capacity = 32;
        service.verify_batch_size = 4;
        service.verify_batch_window_ms = 2.0;
    }
};

/**
 * Expand a plan's mix into pre-encoded frame pools: per entry,
 * `frames_per_pool` honest instances (seeds entry.seed, entry.seed+1,
 * ...) encoded as PROVE frames, plus matching VERIFY frames built by
 * proving each instance through `service` and pairing the proof with
 * the client-side vk. Unknown and adversarial family names throw
 * loadgen::PlanError — capacity runs measure the honest-path knee,
 * not the rejection paths.
 */
std::vector<loadgen::FramePool> make_frame_pools(
    const std::vector<loadgen::MixEntry> &mix,
    runtime::ProofService &service, runtime::KeyCache &client_keys,
    size_t frames_per_pool);

/**
 * Run one capacity plan end to end: spin up a service from
 * `cfg.service`, pre-prove the frame pools, replay the plan through
 * `loadgen::LoadGen`, shut down, and return the report (callers render
 * SLO_report.json from it and enforce `slo_ok` via exit status).
 */
loadgen::Report run_capacity(const CapacityConfig &cfg);

}  // namespace zkspeed::scenarios
