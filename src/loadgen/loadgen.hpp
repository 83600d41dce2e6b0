/**
 * @file
 * Seeded open-loop load generator with windowed SLO evaluation.
 *
 * The generator replays a weighted mix of pre-encoded wire frames
 * against a live `runtime::ProofService` at a target QPS: arrivals are
 * exponentially distributed (Poisson traffic) under a constant, ramp,
 * or stepped offered-load profile, and the whole schedule is derived
 * up-front from one seed so two runs with the same plan offer the same
 * instants, the same pool picks, and the same prove/verify split.
 * Open-loop means arrivals do not wait for completions: when the
 * service queue is full the job is *shed* (`try_submit` backpressure)
 * and counted, which is what makes the over-capacity knee visible
 * instead of silently coordinating away (closed-loop generators
 * self-throttle and hide saturation).
 *
 * Every window the generator snapshots the global metrics registry,
 * diffs it through `obs::WindowDelta`, evaluates the plan's SLO
 * objectives, streams a human-readable line, and records a
 * `WindowReport`. The final `Report` carries the per-window series,
 * offered vs achieved QPS, a knee-of-curve capacity estimate (last
 * window whose verdicts all pass — meaningful under a ramp profile),
 * and renders the machine-readable `SLO_report.json`.
 *
 * Plans are parsed from a small line-oriented text format with strict
 * rule-map validation (every key checked against the directive's
 * schema; unknown directives and keys are rejected by name — see
 * `plan_schema`). DESIGN.md §11 documents the format.
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/jsonv.hpp"
#include "obs/window.hpp"

namespace zkspeed::runtime {
class ProofService;
}

namespace zkspeed::loadgen {

/** Plan-text / plan-structure validation failure (names the culprit). */
class PlanError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** One weighted scenario family in the traffic mix. */
struct MixEntry {
    std::string family;    ///< scenarios::Registry family name
    double weight = 1.0;   ///< relative arrival probability
    size_t log_size = 4;   ///< circuit size (log2 gates)
    uint64_t seed = 1;     ///< instance seed within the family
};

/** Offered-load profile: target QPS as a function of the window. */
struct Profile {
    enum class Kind : uint8_t { constant = 0, ramp = 1, step = 2 };

    Kind kind = Kind::constant;
    double qps = 4.0;    ///< constant profile level
    double qps0 = 1.0;   ///< ramp/step start
    double qps1 = 8.0;   ///< ramp/step end
    size_t steps = 4;    ///< step profile plateau count

    /** Target QPS for window `w` of `num_windows`. */
    double qps_for_window(size_t w, size_t num_windows) const;
    const char *kind_name() const;
};

/** A full load-generation plan (parse_plan output / bench input). */
struct Plan {
    std::vector<MixEntry> mix;
    std::vector<obs::SloObjective> objectives;
    Profile profile;
    size_t windows = 8;
    double window_ms = 500.0;
    /** Leading windows excluded from slo_ok / the knee estimate. */
    size_t warmup_windows = 0;
    uint64_t seed = 1;
    /** Fraction of arrivals issued as VERIFY traffic. */
    double verify_fraction = 0.0;

    /** Throws PlanError on out-of-range numbers. */
    void validate() const;
};

/**
 * The plan text schema: directive -> recognised keys. Exposed so tests
 * can assert the parser exercises every field and rejects everything
 * else (rule-map validation; SNIPPETS.md Snippet 1 idiom).
 */
const std::map<std::string, std::set<std::string>> &plan_schema();

/**
 * Parse the line-oriented plan format:
 *
 *     mix family=msm_heavy weight=3 log_size=5 seed=7
 *     profile kind=ramp qps0=2 qps1=24
 *     run windows=10 window_ms=500 seed=42 verify_fraction=0.25
 *     slo name=prove-p99 kind=quantile series=zkspeed_job_latency_ms \
 *         labels=class:prove,status:ok q=0.99 threshold_ms=250
 *
 * `#` starts a comment; unknown directives/keys throw PlanError naming
 * the offender and the recognised set.
 */
Plan parse_plan(const std::string &text);

/** One scheduled arrival, offset from run start. */
struct Arrival {
    double t_ms = 0;
    uint32_t pool = 0;    ///< index into the frame pools / weights
    bool verify = false;  ///< issue from the pool's verify frames
};

/**
 * Derive the deterministic arrival schedule: per-window Poisson
 * processes at `profile.qps_for_window`, pool picks by cumulative
 * weight, verify flags by `verify_fraction` — all from `plan.seed`
 * via explicit 53-bit uniforms (no implementation-defined std
 * distributions, so the schedule is bit-identical across platforms).
 */
std::vector<Arrival> build_schedule(const Plan &plan,
                                    const std::vector<double> &weights);

/** Pre-encoded wire frames for one mix entry (scenario family). */
struct FramePool {
    std::string name;
    double weight = 1.0;
    /** Encoded PROVE requests, cycled through in order. */
    std::vector<std::vector<uint8_t>> prove_frames;
    /** Encoded VERIFY requests (may be empty: verify arrivals then
     * downgrade to prove without perturbing the schedule). */
    std::vector<std::vector<uint8_t>> verify_frames;
};

/** One window's measurements + verdicts. */
struct WindowReport {
    size_t index = 0;
    double start_s = 0;     ///< window start, seconds from run start
    double dur_s = 0;       ///< measured snapshot-to-snapshot seconds
    double qps_target = 0;  ///< profile's offered-load target
    double qps_offered = 0; ///< arrivals issued / dur_s
    double qps_achieved = 0;///< jobs completed ok / dur_s
    uint64_t offered = 0;   ///< arrivals issued (submitted or shed)
    uint64_t completed_ok = 0;
    uint64_t errors = 0;    ///< non-ok terminal jobs in the window
    uint64_t shed = 0;      ///< arrivals dropped by queue backpressure
    double errors_per_s = 0;
    double p50_ms = 0, p90_ms = 0, p99_ms = 0, p999_ms = 0;
    uint64_t counter_resets = 0;
    std::vector<obs::SloVerdict> verdicts;
    bool slo_ok = true;     ///< every verdict passed
};

/** Whole-run result; `to_json` is the SLO_report.json document. */
struct Report {
    Plan plan;
    std::vector<WindowReport> windows;
    uint64_t offered_total = 0;
    uint64_t completed_total = 0;
    uint64_t errors_total = 0;
    uint64_t shed_total = 0;
    double offered_qps = 0;   ///< whole-run offered rate
    double achieved_qps = 0;  ///< whole-run completion rate
    /** Every post-warmup window passed its verdicts. */
    bool slo_ok = true;
    /** Capacity knee: last post-warmup window with traffic whose
     * verdicts all pass (under a ramp, the capacity estimate). */
    bool knee_found = false;
    size_t knee_window = 0;
    double knee_qps_offered = 0;
    double knee_qps_achieved = 0;

    obs::jsonv::Value to_json() const;
};

/**
 * Drive one plan against a live service. The generator owns a
 * collector thread that harvests response futures off the submit path
 * so a slow completion never delays the next arrival.
 */
class LoadGen
{
  public:
    /** `pools[i]` serves arrivals with `Arrival::pool == i`. */
    LoadGen(runtime::ProofService &service, std::vector<FramePool> pools,
            Plan plan);

    LoadGen(const LoadGen &) = delete;
    LoadGen &operator=(const LoadGen &) = delete;

    /**
     * Run the plan to completion, streaming one line per window to
     * `stream` (nullptr = silent) and draining every in-flight job
     * before returning. Throws PlanError on an invalid plan/pools.
     */
    Report run(std::FILE *stream = nullptr);

  private:
    runtime::ProofService &service_;
    std::vector<FramePool> pools_;
    Plan plan_;
};

}  // namespace zkspeed::loadgen
