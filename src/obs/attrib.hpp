/**
 * @file
 * Kernel-level cost attribution: join the *measured* prover telemetry
 * (ProfileRegion spans in the trace ring, with per-span modmul/byte
 * deltas in SpanEvent::args) with the *modeled* side (the chip model's
 * per-kernel cycle breakdown for the identical job) and quantify how
 * far the software runtime distribution has drifted from the paper's
 * accelerator model.
 *
 * The join runs per job: a prover span belongs to the job whose
 * correlation id its ancestor chain carries (ProfileRegion spans nest
 * under the service's `prove.prove` span, which is tagged with the
 * request id), and the modeled side is one ModeledJob per replayed
 * trace entry with the same id (`sim::attrib_jobs` adapts a
 * ReplayReport; this header stays sim-free so the engine sits in the
 * bottom-layer obs library and is testable with synthetic data).
 *
 * Measured and modeled kernels use different name vocabularies
 * (ProfileRegion names are the paper's Table-1 rows; ChipReport
 * kernel_cycles keys are the Fig-10 units), so the join goes through a
 * fixed many-to-many *attribution group* table (kGroups in attrib.cpp,
 * documented in DESIGN.md §13). Per group the engine produces the
 * software Table-1/Fig-12 twin: measured seconds and modmuls, modeled
 * cycles, share-of-runtime on each side, and
 *
 *   drift_ratio = measured_share / modeled_share
 *
 * — 1.0 means the software spends the same fraction of its runtime in
 * that kernel as the modeled chip does; large or vanishing values mean
 * the model and the implementation have diverged (or the
 * instrumentation broke). Results export as registry gauges
 * (`zkspeed_model_drift_ratio{kernel=...}`,
 * `zkspeed_kernel_modmuls_per_byte{kernel=...}`) and as the
 * machine-readable ATTRIB_report.json; bench_attrib gates CI on the
 * drift bounds in bench/baselines.json.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace zkspeed::obs::attrib {

/** Modeled cost of one replayed prove job (sim::attrib_jobs builds
 * these from a ReplayReport; tests hand-build them). */
struct ModeledJob {
    /** Request id recorded with the runtime trace entry; joins against
     * the correlation id on the job's spans. 0 never joins. */
    uint64_t job_id = 0;
    uint32_t mu = 0;
    double sw_ms = 0;    ///< measured software prove time
    double chip_ms = 0;  ///< modeled chip latency
    uint64_t total_cycles = 0;
    /** ChipReport::kernel_cycles, flattened (modeled kernel names). */
    std::vector<std::pair<std::string, uint64_t>> kernel_cycles;
    /** ChipReport::step_cycles, flattened (protocol step names). */
    std::vector<std::pair<std::string, uint64_t>> step_cycles;
};

/** One attribution group: measured vs modeled cost of one kernel. */
struct KernelRow {
    std::string kernel;  ///< attribution group name
    double measured_seconds = 0;
    uint64_t measured_modmuls = 0;
    uint64_t measured_bytes = 0;  ///< declared logical bytes, in + out
    uint64_t calls = 0;           ///< measured spans folded in
    uint64_t modeled_cycles = 0;
    double measured_share = 0;  ///< of the joined measured seconds
    double modeled_share = 0;   ///< of the joined modeled cycles
    /** measured_share / modeled_share (0 when either side is empty). */
    double drift_ratio = 0;
    /** Table-1 arithmetic intensity from live counters. */
    double modmuls_per_byte = 0;
    /** measured seconds / modeled seconds at Options::clock_ghz — how
     * much faster the modeled chip runs this kernel than the host. */
    double implied_speedup = 0;
};

/** Per-job drill-down: the same rows scoped to one joined job. */
struct JobRow {
    uint64_t job_id = 0;
    uint32_t mu = 0;
    double sw_ms = 0;
    double chip_ms = 0;
    std::vector<KernelRow> kernels;
};

/** Exact serial share of one proof under a worker budget: how many of
 * its modmuls ran inside multi-chunk ff::parallel_for regions
 * (report-only; bench_attrib fills it). */
struct SerialShare {
    std::string circuit;  ///< e.g. "sparse-arithmetic 2^12"
    uint64_t budget = 0;
    uint64_t fr_muls = 0;
    uint64_t fr_parallel = 0;
    uint64_t fq_muls = 0;
    uint64_t fq_parallel = 0;
};

struct Report {
    double clock_ghz = 1.0;
    /** Aggregate rows over every joined job, one per group with any
     * measured or modeled cost, sorted by descending modeled cycles. */
    std::vector<KernelRow> kernels;
    std::vector<JobRow> jobs;

    double measured_total_seconds = 0;  ///< joined prover spans
    uint64_t modeled_total_cycles = 0;  ///< joined modeled kernels
    size_t jobs_joined = 0;
    /** Modeled jobs whose spans never made it into the ring (evicted,
     * or tracing was off) — their cycles are excluded from the join. */
    size_t jobs_modeled_only = 0;
    /** Job ids seen on prover spans with no modeled counterpart (stale
     * spans from earlier suites in the same process). */
    size_t jobs_measured_only = 0;
    size_t spans_seen = 0;    ///< prover spans inside the time window
    size_t spans_joined = 0;  ///< ... that joined a modeled job
    /** Measured prover kernel names with no attribution group — always
     * empty unless a new ProfileRegion was added without extending the
     * group table (bench_attrib fails CI on it). */
    std::vector<std::string> unmapped_kernels;
    /** Rendered as the optional "serial_share" object when set. */
    std::optional<SerialShare> serial_share;
};

struct Options {
    /** Ignore spans that started before this recorder timestamp (µs
     * since the trace epoch) — scopes the join to one harness run in a
     * process whose global ring accumulates across suites. */
    double min_ts_us = 0;
    /** Modeled clock, for cycles -> seconds (sim::kClockGhz = 1.0). */
    double clock_ghz = 1.0;
};

/**
 * Join measured spans with modeled jobs. `events` is a trace-ring dump
 * (TraceRecorder::events()); prover spans resolve their job id through
 * the parent chain, so the dump must contain the enclosing service
 * spans for the join to land.
 */
Report build(const std::vector<SpanEvent> &events,
             const std::vector<ModeledJob> &jobs,
             const Options &opts = Options());

/** Export the aggregate rows as registry gauges:
 *  zkspeed_model_drift_ratio{kernel=...} and
 *  zkspeed_kernel_modmuls_per_byte{kernel=...}. */
void export_to_registry(const Report &report, MetricsRegistry &reg);

/** Render ATTRIB_report.json (schema "zkspeed-attrib-v1"). */
std::string render_json(const Report &report);

/** Strict parse of render_json output: unknown or missing fields fail
 * (the schema round-trip test pins the format). */
std::optional<Report> parse_json(const std::string &text);

/** The measured ProfileRegion names the group table recognises (used
 * by tests to keep the table in lockstep with the prover). */
std::vector<std::string> known_measured_kernels();

}  // namespace zkspeed::obs::attrib
