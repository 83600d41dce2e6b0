/**
 * @file
 * Attribution-engine suite (suite #25): the measured/modeled join.
 *
 * Unit side: obs::attrib::build over hand-built synthetic spans and
 * ModeledJobs with known share ratios pins the drift-ratio math, the
 * parent-chain job resolution, the min_ts window and the
 * joined/modeled-only/measured-only accounting; the JSON round-trip
 * reads the rendered "zkspeed-attrib-v1" document back and pins its
 * exact key set and values.
 *
 * Instrumentation side: cross-thread modmuls must fold into the
 * enclosing kernel span (ff::parallel_for migrates worker counters to
 * the caller, so a ProfileRegion's modmul args are identical serial
 * vs threaded); the capacity gauge tracks the global ring's size;
 * zkspeed_build_info is an info-style gauge.
 *
 * End-to-end: two honest scenarios through scenarios::Harness must
 * join every prover kernel span to a modeled cycle count (the PR's
 * acceptance line) and surface the drift series in both expositions.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "ff/counters.hpp"
#include "ff/fr.hpp"
#include "ff/parallel.hpp"
#include "hyperplonk/profile.hpp"
#include "json_check.hpp"
#include "obs/attrib.hpp"
#include "obs/jsonv.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenarios/harness.hpp"
#include "scenarios/registry.hpp"
#include "scenarios/seed.hpp"
#include "sim/tech.hpp"

namespace {

using namespace zkspeed;
using obs::SpanEvent;
using obs::attrib::ModeledJob;
using obs::attrib::Report;

/** Shorthand: one span in the synthetic ring dump. */
SpanEvent
span(uint64_t id, uint64_t parent, uint64_t corr, std::string name,
     std::string category, double ts_us, double dur_us,
     std::vector<std::pair<std::string, double>> args = {})
{
    SpanEvent ev;
    ev.span_id = id;
    ev.parent_id = parent;
    ev.correlation_id = corr;
    ev.ts_us = ts_us;
    ev.dur_us = dur_us;
    ev.name = std::move(name);
    ev.category = std::move(category);
    ev.args = std::move(args);
    return ev;
}

const obs::attrib::KernelRow *
find_row(const std::vector<obs::attrib::KernelRow> &rows,
         const std::string &name)
{
    for (const auto &r : rows) {
        if (r.kernel == name) return &r;
    }
    return nullptr;
}

/** The synthetic fixture both the math and the round-trip tests use:
 * one joined job (42), one modeled-only job (7), one measured-only
 * job (99), one span below the min_ts window, one non-prover span and
 * one unmapped measured kernel name. */
struct Synthetic {
    std::vector<SpanEvent> events;
    std::vector<ModeledJob> jobs;
    obs::attrib::Options opts;

    Synthetic()
    {
        // Job 42: service span carries the correlation id; the prover
        // spans resolve it through the parent chain (one is nested a
        // level deeper to exercise the multi-hop walk).
        events.push_back(
            span(1, 0, 42, "prove.prove", "service", 100, 5e6));
        events.push_back(span(2, 1, 0, "Witness MSMs", "prover", 200,
                              2e6,
                              {{"modmul_fr", 100},
                               {"modmul_fq", 300},
                               {"bytes_in", 1000},
                               {"bytes_out", 24}}));
        events.push_back(span(3, 1, 0, "ZeroCheck Rounds", "prover",
                              300, 1e6, {{"modmul_fr", 50}}));
        events.push_back(
            span(4, 3, 0, "Linear Combine", "prover", 400, 1e6));
        // Below the window: would double Witness MSMs if not dropped.
        events.push_back(span(5, 1, 0, "Witness MSMs", "prover", 10,
                              2e6, {{"modmul_fr", 999}}));
        // Wrong category: runtime spans never join.
        events.push_back(
            span(6, 1, 0, "Witness MSMs", "runtime", 500, 9e6));
        // Unmapped measured kernel: must be reported, not joined.
        events.push_back(
            span(7, 1, 0, "Mystery Kernel", "prover", 600, 1e6));
        // Job 99: prover span with no modeled counterpart.
        events.push_back(
            span(8, 0, 99, "prove.prove", "service", 700, 1e6));
        events.push_back(
            span(9, 8, 0, "Build MLE", "prover", 800, 1e6));
        // Orphan prover span: no correlation anywhere up the chain.
        events.push_back(
            span(10, 0, 0, "Build MLE", "prover", 900, 1e6));

        ModeledJob joined;
        joined.job_id = 42;
        joined.mu = 4;
        joined.sw_ms = 4000;
        joined.chip_ms = 0.004;
        joined.total_cycles = 4000;
        joined.kernel_cycles = {{"Witness MSMs", 1000},
                                {"ZeroCheck", 2000},
                                {"Other", 1000}};
        joined.step_cycles = {{"commit_witness", 1000},
                              {"gate_check", 3000}};
        jobs.push_back(std::move(joined));

        ModeledJob lonely;
        lonely.job_id = 7;
        lonely.mu = 3;
        lonely.kernel_cycles = {{"Witness MSMs", 500}};
        jobs.push_back(std::move(lonely));

        opts.min_ts_us = 50;
        opts.clock_ghz = 1.0;
    }
};

TEST(AttribJoin, DriftRatioMathOnSyntheticData)
{
    Synthetic fx;
    Report rep = obs::attrib::build(fx.events, fx.jobs, fx.opts);

    // Accounting: job 42 joins; job 7 is modeled-only; job 99 is
    // measured-only; 6 prover spans sit inside the window (the early
    // one is excluded, the orphan and the unmapped one still count as
    // seen), 3 of them join job 42.
    EXPECT_EQ(rep.jobs_joined, 1u);
    EXPECT_EQ(rep.jobs_modeled_only, 1u);
    EXPECT_EQ(rep.jobs_measured_only, 1u);
    EXPECT_EQ(rep.spans_seen, 6u);
    EXPECT_EQ(rep.spans_joined, 3u);
    ASSERT_EQ(rep.unmapped_kernels.size(), 1u);
    EXPECT_EQ(rep.unmapped_kernels[0], "Mystery Kernel");

    // Joined totals: 2s + 1s + 1s measured, 4000 modeled cycles. The
    // modeled-only job's 500 cycles must NOT leak into the shares.
    EXPECT_DOUBLE_EQ(rep.measured_total_seconds, 4.0);
    EXPECT_EQ(rep.modeled_total_cycles, 4000u);

    // Shares and drift: measured 1/2, 1/4, 1/4 against modeled 1/4,
    // 1/2, 1/4 ("Other" groups with the measured Linear Combine).
    ASSERT_EQ(rep.kernels.size(), 3u);
    EXPECT_EQ(rep.kernels[0].kernel, "ZeroCheck");  // 2000 cycles first
    const auto *msm = find_row(rep.kernels, "Witness MSMs");
    const auto *zc = find_row(rep.kernels, "ZeroCheck");
    const auto *lin = find_row(rep.kernels, "Linear Combine");
    ASSERT_NE(msm, nullptr);
    ASSERT_NE(zc, nullptr);
    ASSERT_NE(lin, nullptr);

    EXPECT_DOUBLE_EQ(msm->measured_seconds, 2.0);
    EXPECT_EQ(msm->measured_modmuls, 400u);
    EXPECT_EQ(msm->measured_bytes, 1024u);
    EXPECT_EQ(msm->calls, 1u);
    EXPECT_EQ(msm->modeled_cycles, 1000u);
    EXPECT_DOUBLE_EQ(msm->measured_share, 0.5);
    EXPECT_DOUBLE_EQ(msm->modeled_share, 0.25);
    EXPECT_DOUBLE_EQ(msm->drift_ratio, 2.0);
    EXPECT_DOUBLE_EQ(msm->modmuls_per_byte, 400.0 / 1024.0);
    // 1000 cycles at 1 GHz is 1 µs; the host took 2 s.
    EXPECT_DOUBLE_EQ(msm->implied_speedup, 2e6);

    EXPECT_DOUBLE_EQ(zc->drift_ratio, 0.5);
    EXPECT_EQ(zc->measured_modmuls, 50u);
    EXPECT_DOUBLE_EQ(lin->drift_ratio, 1.0);
    EXPECT_EQ(lin->measured_modmuls, 0u);
    EXPECT_DOUBLE_EQ(lin->modmuls_per_byte, 0.0);

    // Per-job drill-down mirrors the aggregate for the single job.
    ASSERT_EQ(rep.jobs.size(), 1u);
    EXPECT_EQ(rep.jobs[0].job_id, 42u);
    EXPECT_EQ(rep.jobs[0].mu, 4u);
    EXPECT_DOUBLE_EQ(rep.jobs[0].sw_ms, 4000.0);
    EXPECT_EQ(rep.jobs[0].kernels.size(), 3u);
}

TEST(AttribJoin, UnmappedModeledKernelsSurfaceAsModelRows)
{
    // A modeled kernel name outside the group table must keep its
    // cycles visible (prefixed "model:") instead of silently skewing
    // every other share.
    std::vector<SpanEvent> events;
    events.push_back(span(1, 0, 5, "prove.prove", "service", 10, 1e6));
    events.push_back(
        span(2, 1, 0, "Witness MSMs", "prover", 20, 1e6));
    ModeledJob job;
    job.job_id = 5;
    job.kernel_cycles = {{"Witness MSMs", 300}, {"Sorting Net", 100}};
    Report rep = obs::attrib::build(events, {job});

    const auto *odd = find_row(rep.kernels, "model:Sorting Net");
    ASSERT_NE(odd, nullptr);
    EXPECT_EQ(odd->modeled_cycles, 100u);
    EXPECT_DOUBLE_EQ(odd->measured_seconds, 0.0);
    EXPECT_DOUBLE_EQ(odd->modeled_share, 0.25);
    EXPECT_DOUBLE_EQ(odd->drift_ratio, 0.0);  // no measured twin
    EXPECT_EQ(rep.modeled_total_cycles, 400u);
}

/** Keys of a JSON object, in document order. */
std::vector<std::string>
keys_of(const obs::jsonv::Value &o)
{
    std::vector<std::string> keys;
    for (const auto &[key, v] : o.fields) keys.push_back(key);
    return keys;
}

/** One rendered kernel row: exactly the schema's keys and r's values. */
void
expect_kernel_row(const obs::jsonv::Value &o, const obs::attrib::KernelRow &r)
{
    EXPECT_EQ(keys_of(o),
              (std::vector<std::string>{
                  "kernel", "measured_seconds", "measured_modmuls",
                  "measured_bytes", "calls", "modeled_cycles",
                  "measured_share", "modeled_share", "drift_ratio",
                  "modmuls_per_byte", "implied_speedup"}));
    if (o.fields.size() != 11) return;
    EXPECT_EQ(o.find("kernel")->str, r.kernel);
    EXPECT_DOUBLE_EQ(o.find("measured_seconds")->as_double(),
                     r.measured_seconds);
    EXPECT_EQ(o.find("measured_modmuls")->as_u64(), r.measured_modmuls);
    EXPECT_EQ(o.find("measured_bytes")->as_u64(), r.measured_bytes);
    EXPECT_EQ(o.find("calls")->as_u64(), r.calls);
    EXPECT_EQ(o.find("modeled_cycles")->as_u64(), r.modeled_cycles);
    EXPECT_DOUBLE_EQ(o.find("measured_share")->as_double(),
                     r.measured_share);
    EXPECT_DOUBLE_EQ(o.find("modeled_share")->as_double(), r.modeled_share);
    EXPECT_DOUBLE_EQ(o.find("drift_ratio")->as_double(), r.drift_ratio);
    EXPECT_DOUBLE_EQ(o.find("modmuls_per_byte")->as_double(),
                     r.modmuls_per_byte);
    EXPECT_DOUBLE_EQ(o.find("implied_speedup")->as_double(),
                     r.implied_speedup);
}

TEST(AttribSchema, JsonRoundTripIsExactAndStrict)
{
    Synthetic fx;
    Report rep = obs::attrib::build(fx.events, fx.jobs, fx.opts);
    EXPECT_EQ(obs::attrib::render_json(rep).find("serial_share"),
              std::string::npos)
        << "the optional block renders only when set";
    rep.serial_share =
        obs::attrib::SerialShare{"sparse-arithmetic 2^12", 4, 10, 9, 20, 19};
    std::string text = obs::attrib::render_json(rep);
    ASSERT_TRUE(test::valid_json(text));

    // The rendered document read back: exactly the schema's keys, and
    // every value the report holds.
    auto doc = obs::jsonv::parse(text);
    ASSERT_TRUE(doc.has_value());
    ASSERT_EQ(keys_of(*doc),
              (std::vector<std::string>{
                  "schema", "build", "clock_ghz", "measured_total_seconds",
                  "modeled_total_cycles", "jobs_joined",
                  "jobs_modeled_only", "jobs_measured_only", "spans_seen",
                  "spans_joined", "unmapped_kernels", "kernels", "jobs",
                  "serial_share"}));
    EXPECT_EQ(doc->find("schema")->str, "zkspeed-attrib-v1");
    EXPECT_TRUE(doc->find("build")->is_object());
    EXPECT_DOUBLE_EQ(doc->find("clock_ghz")->as_double(), rep.clock_ghz);
    EXPECT_DOUBLE_EQ(doc->find("measured_total_seconds")->as_double(),
                     rep.measured_total_seconds);
    EXPECT_EQ(doc->find("modeled_total_cycles")->as_u64(),
              rep.modeled_total_cycles);
    EXPECT_EQ(doc->find("jobs_joined")->as_u64(), rep.jobs_joined);
    EXPECT_EQ(doc->find("jobs_modeled_only")->as_u64(),
              rep.jobs_modeled_only);
    EXPECT_EQ(doc->find("jobs_measured_only")->as_u64(),
              rep.jobs_measured_only);
    EXPECT_EQ(doc->find("spans_seen")->as_u64(), rep.spans_seen);
    EXPECT_EQ(doc->find("spans_joined")->as_u64(), rep.spans_joined);
    std::vector<std::string> unmapped;
    for (const auto &v : doc->find("unmapped_kernels")->items) {
        unmapped.push_back(v.str);
    }
    EXPECT_EQ(unmapped, rep.unmapped_kernels);

    const auto &kernels = doc->find("kernels")->items;
    ASSERT_EQ(kernels.size(), rep.kernels.size());
    for (size_t i = 0; i < rep.kernels.size(); ++i) {
        expect_kernel_row(kernels[i], rep.kernels[i]);
    }
    const auto &jobs = doc->find("jobs")->items;
    ASSERT_EQ(jobs.size(), rep.jobs.size());
    for (size_t i = 0; i < rep.jobs.size(); ++i) {
        const auto &o = jobs[i];
        const auto &j = rep.jobs[i];
        ASSERT_EQ(keys_of(o), (std::vector<std::string>{
                                  "job", "mu", "sw_ms", "chip_ms",
                                  "kernels"}));
        EXPECT_EQ(o.find("job")->as_u64(), j.job_id);
        EXPECT_EQ(o.find("mu")->as_u64(), j.mu);
        EXPECT_DOUBLE_EQ(o.find("sw_ms")->as_double(), j.sw_ms);
        EXPECT_DOUBLE_EQ(o.find("chip_ms")->as_double(), j.chip_ms);
        const auto &rows = o.find("kernels")->items;
        ASSERT_EQ(rows.size(), j.kernels.size());
        for (size_t k = 0; k < rows.size(); ++k) {
            expect_kernel_row(rows[k], j.kernels[k]);
        }
    }
    const obs::jsonv::Value &share = *doc->find("serial_share");
    EXPECT_EQ(keys_of(share),
              (std::vector<std::string>{"circuit", "budget", "fr_muls",
                                        "fr_parallel", "fq_muls",
                                        "fq_parallel"}));
    EXPECT_EQ(share.find("circuit")->str, "sparse-arithmetic 2^12");
    EXPECT_EQ(share.find("budget")->as_u64(), 4u);
    EXPECT_EQ(share.find("fr_muls")->as_u64(), 10u);
    EXPECT_EQ(share.find("fr_parallel")->as_u64(), 9u);
    EXPECT_EQ(share.find("fq_muls")->as_u64(), 20u);
    EXPECT_EQ(share.find("fq_parallel")->as_u64(), 19u);
}

TEST(AttribExport, DriftGaugesLandInARegistry)
{
    Synthetic fx;
    Report rep = obs::attrib::build(fx.events, fx.jobs, fx.opts);

    obs::MetricsRegistry reg;
    obs::attrib::export_to_registry(rep, reg);
    obs::Snapshot snap = reg.snapshot();
    for (const auto &row : rep.kernels) {
        const auto *drift = snap.find("zkspeed_model_drift_ratio",
                                      {{"kernel", row.kernel}});
        ASSERT_NE(drift, nullptr) << row.kernel;
        EXPECT_EQ(drift->kind, obs::MetricKind::gauge);
        EXPECT_DOUBLE_EQ(drift->gauge, row.drift_ratio);
        const auto *mpb = snap.find("zkspeed_kernel_modmuls_per_byte",
                                    {{"kernel", row.kernel}});
        ASSERT_NE(mpb, nullptr) << row.kernel;
        EXPECT_DOUBLE_EQ(mpb->gauge, row.modmuls_per_byte);
    }
}

TEST(AttribGroups, GroupTableCoversTheProverVocabulary)
{
    // known_measured_kernels() is the contract between the prover's
    // ProfileRegion names and the group table; a new region must be
    // added here AND to kGroups or the e2e join below reports it
    // unmapped.
    const std::vector<std::string> expected = {
        "Batch Evaluations", "Build MLE",        "Construct N & D",
        "Fraction MLE",      "Linear Combine",   "LookupCheck Rounds",
        "OpenCheck Rounds",  "PermCheck Rounds", "Poly Open MSMs",
        "Product MLE",       "Wire Identity MSMs", "Witness MSMs",
        "ZeroCheck Rounds",
    };
    EXPECT_EQ(obs::attrib::known_measured_kernels(), expected);
}

// Satellite: cross-thread modmuls must fold into the enclosing kernel
// span. ff::parallel_for migrates worker-thread counters back to the
// caller, so the per-span modmul_fr attribute is identical whether the
// region body ran serial or on 4 threads.
TEST(AttribSpans, CrossThreadModmulsFoldIntoEnclosingSpan)
{
    constexpr size_t kN = 1 << 15;
    std::vector<ff::Fr> vals(kN, ff::Fr::from_uint(3));

    auto run_region = [&](size_t threads) -> double {
        double t0 = obs::TraceRecorder::to_us(
            std::chrono::steady_clock::now());
        ff::WorkerBudgetScope budget(threads);
        {
            hyperplonk::ProfileRegion region("Build MLE");
            ff::parallel_for(kN, 1, [&](size_t b, size_t e) {
                for (size_t i = b; i < e; ++i) {
                    vals[i] = vals[i] * vals[i];
                }
            });
        }
        // Read the span back from the global ring and return its
        // folded modmul_fr attribute.
        for (const SpanEvent &ev : obs::TraceRecorder::global().events()) {
            if (ev.name == "Build MLE" && ev.category == "prover" &&
                ev.ts_us >= t0) {
                for (const auto &[k, v] : ev.args) {
                    if (k == "modmul_fr") return v;
                }
            }
        }
        return -1;  // span or attribute missing
    };

    double serial = run_region(1);
    double threaded = run_region(4);
    EXPECT_GE(serial, double(kN));  // one mul per element, at least
    EXPECT_DOUBLE_EQ(serial, threaded)
        << "worker-thread modmuls did not migrate to the enclosing span";
}

// Satellite: the capacity gauge tracks set_capacity.
TEST(AttribSpans, TraceRingCapacityGauge)
{
    // Resizing the global recorder updates the capacity gauge (and
    // clears the ring); restore the default capacity after.
    auto &rec = obs::TraceRecorder::global();
    rec.set_capacity(2048);
    obs::Snapshot snap = obs::MetricsRegistry::global().snapshot();
    const auto *cap = snap.find("zkspeed_trace_ring_spans",
                                {{"kind", "capacity"}});
    ASSERT_NE(cap, nullptr);
    EXPECT_DOUBLE_EQ(cap->gauge, 2048.0);
    rec.set_capacity(obs::TraceRecorder::kCapacity);
}

// Satellite: zkspeed_build_info is an info-style gauge — value 1, the
// payload is the label set.
TEST(AttribSpans, BuildInfoGauge)
{
    obs::MetricsRegistry reg;
    obs::register_build_info(reg);
    obs::Snapshot snap = reg.snapshot();
    const obs::MetricSnapshot *info = nullptr;
    for (const auto &m : snap.metrics) {
        if (m.name == "zkspeed_build_info") info = &m;
    }
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->kind, obs::MetricKind::gauge);
    EXPECT_DOUBLE_EQ(info->gauge, 1.0);
    bool has_format = false, has_features = false;
    for (const auto &[k, v] : info->labels) {
        if (k == "format") {
            has_format = true;
            EXPECT_EQ(v, "v3");
        }
        if (k == "features") {
            has_features = true;
            EXPECT_NE(v.find("attrib"), std::string::npos);
        }
    }
    EXPECT_TRUE(has_format);
    EXPECT_TRUE(has_features);

    // The global registry registers it on construction, so it is
    // present in every exposition.
    obs::Snapshot global = obs::MetricsRegistry::global().snapshot();
    bool present = false;
    for (const auto &m : global.metrics) {
        present = present || m.name == "zkspeed_build_info";
    }
    EXPECT_TRUE(present);
}

// Acceptance: the harness joins every prover kernel span of a real
// suite to a modeled cycle count and surfaces the drift series in the
// captured expositions.
TEST(AttribE2E, HarnessJoinsEveryProverKernelSpan)
{
    const uint64_t seed = scenarios::test_seed(8125);
    const auto &reg = scenarios::Registry::global();
    scenarios::Harness harness;
    for (const char *family : {"rescue-chain", "range-via-lookup"}) {
        scenarios::Spec spec;
        spec.name = family;
        spec.log_size = 4;
        spec.seed = seed + (family[0] == 'r' && family[1] == 'a' ? 1 : 0);
        scenarios::ScenarioResult res = harness.run(reg.build(spec));
        EXPECT_TRUE(res.conformant) << family << ": " << res.detail;
    }
    scenarios::SuiteResult suite = harness.finish();

    const Report &rep = suite.attrib;
    EXPECT_EQ(rep.jobs_joined, 2u);
    EXPECT_EQ(rep.jobs_modeled_only, 0u);
    EXPECT_TRUE(rep.unmapped_kernels.empty())
        << "first unmapped: " << rep.unmapped_kernels.front();
    EXPECT_GT(rep.spans_joined, 0u);
    EXPECT_GT(rep.measured_total_seconds, 0.0);
    EXPECT_GT(rep.modeled_total_cycles, 0u);
    ASSERT_GE(rep.kernels.size(), 8u);
    for (const auto &row : rep.kernels) {
        EXPECT_GT(row.modeled_cycles, 0u)
            << row.kernel << " measured but not modeled";
        EXPECT_GT(row.measured_seconds, 0.0)
            << row.kernel << " modeled but never measured";
        EXPECT_GT(row.drift_ratio, 0.0) << row.kernel;
        EXPECT_EQ(row.kernel.rfind("model:", 0), std::string::npos)
            << row.kernel << " escaped the group table";
    }
    // The lookup scenario must light up the lookup pipeline.
    EXPECT_NE(find_row(rep.kernels, "LookupCheck"), nullptr);
    ASSERT_EQ(rep.jobs.size(), 2u);
    for (const auto &job : rep.jobs) {
        EXPECT_GT(job.mu, 0u);
        EXPECT_GT(job.sw_ms, 0.0);
        EXPECT_GT(job.chip_ms, 0.0);
        EXPECT_FALSE(job.kernels.empty());
    }

    // The rendered report is valid JSON holding the report's counts,
    // and the drift series made it into both captured expositions.
    ASSERT_TRUE(test::valid_json(suite.attrib_json));
    auto doc = obs::jsonv::parse(suite.attrib_json);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("schema")->str, "zkspeed-attrib-v1");
    EXPECT_EQ(doc->find("jobs_joined")->as_u64(), rep.jobs_joined);
    EXPECT_EQ(doc->find("kernels")->items.size(), rep.kernels.size());
    EXPECT_NE(suite.metrics_prom.find("zkspeed_model_drift_ratio{"),
              std::string::npos);
    EXPECT_NE(suite.metrics_prom.find("zkspeed_kernel_modmuls_per_byte{"),
              std::string::npos);
    EXPECT_NE(
        suite.metrics_json.find("\"name\":\"zkspeed_model_drift_ratio\""),
        std::string::npos);
}

}  // namespace
