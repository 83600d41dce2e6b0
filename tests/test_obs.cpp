/**
 * @file
 * Telemetry subsystem tests (DESIGN.md §10): histogram quantile error
 * against exact order statistics, shard-merge determinism under
 * threads, trace-event JSON well-formedness and span-nesting links,
 * Prometheus text parseability, the Snippet-1-style exposition
 * exhaustiveness sweep over every series a ProofService registers, the
 * concurrent (2-prover) kernel-recording hot path and the latency of
 * rejected and failed jobs.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <random>
#include <thread>

#include "hyperplonk/profile.hpp"
#include "hyperplonk/serialize.hpp"
#include "json_check.hpp"
#include "obs/export.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/ring.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "runtime/service.hpp"

namespace {

using namespace zkspeed;
using test::check_prometheus_lines;
using test::valid_json;

// ---------------------------------------------------------------------------
// Histogram geometry and quantile error.
// ---------------------------------------------------------------------------

TEST(ObsHistogram, BucketGeometryInvariants)
{
    using B = obs::HistogramBuckets;
    // Every positive value lands in the bucket whose bound covers it.
    std::mt19937_64 rng(23001);
    std::uniform_real_distribution<double> exp_dist(-19.0, 39.0);
    for (int k = 0; k < 20000; ++k) {
        double v = std::exp2(exp_dist(rng));
        size_t i = B::index_for(v);
        EXPECT_LE(v, B::upper_bound(i)) << v;
        if (i > 0) EXPECT_GT(v, B::upper_bound(i - 1)) << v;
    }
    // Exact powers of two sit on a bucket boundary (inclusive bound).
    for (int e = -19; e <= 39; ++e) {
        double v = std::exp2(e);
        EXPECT_DOUBLE_EQ(B::upper_bound(B::index_for(v)), v);
    }
    // Non-positive / NaN values are swallowed by bucket 0, and the
    // range clamps instead of indexing out of bounds.
    EXPECT_EQ(B::index_for(0.0), 0u);
    EXPECT_EQ(B::index_for(-3.5), 0u);
    EXPECT_EQ(B::index_for(std::nan("")), 0u);
    EXPECT_EQ(B::index_for(1e-300), 0u);
    EXPECT_EQ(B::index_for(1e300), B::kNumBuckets - 1);
}

/** Percentile estimates vs exact order statistics on one sample set. */
void
check_quantiles(const std::vector<double> &samples, const char *what)
{
    obs::MetricsRegistry reg;
    obs::MetricId h = reg.histogram("t23_dist");
    for (double v : samples) reg.observe(h, v);

    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());

    auto snap = reg.snapshot();
    const obs::MetricSnapshot *m = snap[h];
    ASSERT_NE(m, nullptr);
    ASSERT_EQ(m->hist.count, samples.size());
    EXPECT_DOUBLE_EQ(m->hist.min, sorted.front());
    EXPECT_DOUBLE_EQ(m->hist.max, sorted.back());

    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        size_t rank = size_t(std::ceil(q * double(sorted.size())));
        rank = std::clamp<size_t>(rank, 1, sorted.size());
        double exact = sorted[rank - 1];
        double est = m->hist.quantile(q);
        // The documented bound: the reported midpoint is within
        // 2^(1/16)-1 of any exact value in the same bucket.
        EXPECT_LE(std::abs(est - exact),
                  exact * obs::HistogramBuckets::kMaxRelativeError *
                      (1.0 + 1e-9))
            << what << " q=" << q << " exact=" << exact
            << " est=" << est;
    }
}

TEST(ObsHistogram, QuantilesWithinDocumentedError)
{
    std::mt19937_64 rng(23002);
    std::vector<double> uniform, lognormal, exponential, bimodal;
    std::uniform_real_distribution<double> u(0.1, 1000.0);
    std::lognormal_distribution<double> ln(1.5, 0.8);
    std::exponential_distribution<double> ex(0.25);
    for (int k = 0; k < 20000; ++k) {
        uniform.push_back(u(rng));
        lognormal.push_back(ln(rng));
        exponential.push_back(ex(rng) + 1e-3);
        // Latency-shaped: fast mode plus a 1% slow tail two decades up.
        bimodal.push_back((k % 100 == 0 ? 250.0 : 2.5) * (1.0 + u(rng) / 2000.0));
    }
    check_quantiles(uniform, "uniform");
    check_quantiles(lognormal, "lognormal");
    check_quantiles(exponential, "exponential");
    check_quantiles(bimodal, "bimodal");
}

TEST(ObsHistogram, EmptyAndSingleton)
{
    obs::MetricsRegistry reg;
    obs::MetricId h = reg.histogram("t23_edge");
    auto snap = reg.snapshot();
    ASSERT_NE(snap[h], nullptr);
    EXPECT_EQ(snap[h]->hist.count, 0u);
    EXPECT_DOUBLE_EQ(snap[h]->hist.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(snap[h]->hist.min, 0.0);
    EXPECT_DOUBLE_EQ(snap[h]->hist.max, 0.0);

    reg.observe(h, 42.0);
    snap = reg.snapshot();
    EXPECT_EQ(snap[h]->hist.count, 1u);
    // A single sample: every quantile is clamped to the exact value.
    EXPECT_DOUBLE_EQ(snap[h]->hist.quantile(0.5), 42.0);
    EXPECT_DOUBLE_EQ(snap[h]->hist.quantile(0.999), 42.0);
}

// ---------------------------------------------------------------------------
// Registry semantics: identity, gauges, kill switch, shard merging.
// ---------------------------------------------------------------------------

TEST(ObsRegistry, SeriesIdentityIsNamePlusSortedLabels)
{
    obs::MetricsRegistry reg;
    obs::MetricId a =
        reg.counter("t23_c", {{"x", "1"}, {"y", "2"}});
    obs::MetricId b =
        reg.counter("t23_c", {{"y", "2"}, {"x", "1"}});  // same, reordered
    obs::MetricId c = reg.counter("t23_c", {{"x", "1"}});
    EXPECT_EQ(a.index, b.index);
    EXPECT_NE(a.index, c.index);
    reg.add(a, 3);
    reg.add(b, 4);
    auto snap = reg.snapshot();
    EXPECT_EQ(snap[a]->counter, 7u);
    EXPECT_EQ(snap[a]->full_name(), "t23_c{x=\"1\",y=\"2\"}");
    EXPECT_EQ(snap.find("t23_c", {{"y", "2"}, {"x", "1"}}), snap[a]);
}

TEST(ObsRegistry, GaugesAndKillSwitch)
{
    obs::MetricsRegistry reg;
    obs::MetricId g = reg.gauge("t23_g");
    obs::MetricId c = reg.counter("t23_kc");
    obs::MetricId h = reg.histogram("t23_kh");
    reg.set(g, 2.5);
    reg.gauge_add(g, 0.5);
    EXPECT_DOUBLE_EQ(reg.snapshot()[g]->gauge, 3.0);

    obs::set_enabled(false);
    reg.set(g, 99.0);
    reg.add(c, 10);
    reg.observe(h, 1.0);
    obs::set_enabled(true);

    auto snap = reg.snapshot();
    EXPECT_DOUBLE_EQ(snap[g]->gauge, 3.0) << "gauge set while disabled";
    EXPECT_EQ(snap[c]->counter, 0u) << "counter add while disabled";
    EXPECT_EQ(snap[h]->hist.count, 0u) << "observe while disabled";
}

TEST(ObsRegistry, ShardMergeDeterministicUnderThreads)
{
    // The same multiset of observations, partitioned across different
    // thread counts, must merge to the identical snapshot (integer
    // values keep the FP sums exact under any merge order).
    constexpr size_t kN = 40000;
    auto value = [](size_t j) { return double(j % 997 + 1); };

    auto run = [&](size_t num_threads) {
        obs::MetricsRegistry reg;
        obs::MetricId h = reg.histogram("t23_merge");
        obs::MetricId c = reg.counter("t23_merge_count");
        std::vector<std::thread> threads;
        for (size_t t = 0; t < num_threads; ++t) {
            threads.emplace_back([&, t] {
                for (size_t j = t; j < kN; j += num_threads) {
                    reg.observe(h, value(j));
                    reg.add(c, j % 5);
                }
            });
        }
        for (auto &th : threads) th.join();
        auto snap = reg.snapshot();
        return std::make_pair(*snap[h], *snap[c]);
    };

    auto [h1, c1] = run(1);
    auto [h4, c4] = run(4);
    auto [h7, c7] = run(7);
    EXPECT_EQ(h1.hist.count, kN);
    EXPECT_EQ(h4.hist.count, kN);
    EXPECT_EQ(h7.hist.count, kN);
    EXPECT_DOUBLE_EQ(h4.hist.sum, h1.hist.sum);
    EXPECT_DOUBLE_EQ(h7.hist.sum, h1.hist.sum);
    EXPECT_DOUBLE_EQ(h4.hist.min, h1.hist.min);
    EXPECT_DOUBLE_EQ(h4.hist.max, h1.hist.max);
    ASSERT_EQ(h4.hist.buckets.size(), h1.hist.buckets.size());
    for (size_t i = 0; i < h1.hist.buckets.size(); ++i) {
        EXPECT_EQ(h4.hist.buckets[i].index, h1.hist.buckets[i].index);
        EXPECT_EQ(h4.hist.buckets[i].count, h1.hist.buckets[i].count);
        EXPECT_EQ(h7.hist.buckets[i].count, h1.hist.buckets[i].count);
    }
    EXPECT_EQ(c4.counter, c1.counter);
    EXPECT_EQ(c7.counter, c1.counter);
}

TEST(ObsRegistry, ShardsSurviveThreadExit)
{
    obs::MetricsRegistry reg;
    obs::MetricId c = reg.counter("t23_survivor");
    std::thread([&] { reg.add(c, 17); }).join();
    // The recording thread is gone; its cumulative cell must not be.
    EXPECT_EQ(reg.snapshot()[c]->counter, 17u);
}

// ---------------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------------

TEST(ObsTrace, NestingRoundTripAndChromeJson)
{
    auto &rec = obs::TraceRecorder::global();
    rec.clear();
    {
        obs::Span outer("t23.outer", "test", 77);
        {
            obs::Span mid("t23.mid", "test", 77);
            obs::Span inner("t23.inner", "test", 77);
            // Retroactive window: parent resolves to the stack top.
            auto now = std::chrono::steady_clock::now();
            obs::Span::record_complete("t23.window", "test",
                                       now - std::chrono::milliseconds(1),
                                       now, 77);
        }
    }
    auto evs = rec.events();
    auto find = [&](const char *name) -> const obs::SpanEvent * {
        for (const auto &e : evs) {
            if (e.name == name) return &e;
        }
        return nullptr;
    };
    const auto *outer = find("t23.outer");
    const auto *mid = find("t23.mid");
    const auto *inner = find("t23.inner");
    const auto *window = find("t23.window");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(mid, nullptr);
    ASSERT_NE(inner, nullptr);
    ASSERT_NE(window, nullptr);
    EXPECT_EQ(outer->parent_id, 0u);
    EXPECT_EQ(mid->parent_id, outer->span_id);
    EXPECT_EQ(inner->parent_id, mid->span_id);
    EXPECT_EQ(window->parent_id, inner->span_id);
    EXPECT_EQ(inner->correlation_id, 77u);
    // Temporal containment (same thread).
    EXPECT_LE(outer->ts_us, mid->ts_us);
    EXPECT_LE(mid->ts_us, inner->ts_us);
    EXPECT_GE(outer->ts_us + outer->dur_us, mid->ts_us + mid->dur_us);
    EXPECT_GE(mid->ts_us + mid->dur_us, inner->ts_us + inner->dur_us);
    EXPECT_EQ(outer->tid, inner->tid);

    std::string json = rec.render_chrome_json();
    EXPECT_TRUE(valid_json(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"t23.inner\""), std::string::npos);
    EXPECT_NE(json.find("\"job\":77"), std::string::npos);
}

TEST(ObsTrace, RingBoundAndDropCount)
{
    obs::TraceRecorder rec(8);
    for (int k = 0; k < 20; ++k) {
        obs::SpanEvent ev;
        ev.span_id = uint64_t(k + 1);
        ev.ts_us = double(k);
        ev.name = "t23.ring";
        rec.record(std::move(ev));
    }
    EXPECT_EQ(rec.size(), 8u);
    EXPECT_EQ(rec.dropped(), 12u);
    // Overwrite-oldest: the survivors are the 8 most recent spans.
    auto evs = rec.events();
    ASSERT_EQ(evs.size(), 8u);
    EXPECT_EQ(evs.front().span_id, 13u);
    EXPECT_EQ(evs.back().span_id, 20u);
    rec.clear();
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(rec.dropped(), 0u);
}

TEST(ObsRing, EvictsOldestFirstAndCountsEvictions)
{
    obs::Ring<uint64_t> ring(4);
    uint64_t evictions = 0;
    auto push_ids = [&](uint64_t from, uint64_t to) {
        for (uint64_t id = from; id <= to; ++id) {
            if (ring.push(id)) ++evictions;
        }
    };

    push_ids(1, 3);
    EXPECT_EQ(ring.items(), (std::vector<uint64_t>{1, 2, 3}));
    EXPECT_EQ(evictions, 0u);
    push_ids(4, 4);  // exactly full: still nothing evicted
    EXPECT_EQ(ring.items(), (std::vector<uint64_t>{1, 2, 3, 4}));
    EXPECT_EQ(evictions, 0u);
    push_ids(5, 6);
    EXPECT_EQ(ring.items(), (std::vector<uint64_t>{3, 4, 5, 6}));
    EXPECT_EQ(evictions, 2u);
    push_ids(7, 11);  // wraps the ring more than once
    EXPECT_EQ(ring.items(), (std::vector<uint64_t>{8, 9, 10, 11}));
    EXPECT_EQ(evictions, 7u);
    EXPECT_EQ(ring.evicted(), evictions);
    EXPECT_EQ(ring.size(), 4u);

    ring.clear();
    EXPECT_TRUE(ring.items().empty());
    EXPECT_EQ(ring.evicted(), 0u);
}

TEST(ObsTrace, DisabledSpansAreInert)
{
    auto &rec = obs::TraceRecorder::global();
    rec.clear();
    obs::set_enabled(false);
    {
        obs::Span s("t23.ghost", "test");
        EXPECT_EQ(s.id(), 0u);
    }
    obs::set_enabled(true);
    for (const auto &e : rec.events()) EXPECT_NE(e.name, "t23.ghost");
}

// ---------------------------------------------------------------------------
// Exposition formats.
// ---------------------------------------------------------------------------

TEST(ObsExport, PrometheusTextParses)
{
    obs::MetricsRegistry reg;
    obs::MetricId c = reg.counter(
        "t23_jobs_total", {{"class", "prove"}, {"status", "ok"}},
        "Jobs with \"quotes\" and a\nnewline in the help");
    obs::MetricId g = reg.gauge("t23_depth", {}, "plain gauge");
    obs::MetricId h =
        reg.histogram("t23_latency_ms", {{"svc", "a"}}, "latency");
    reg.add(c, 5);
    reg.set(g, -2.25);
    for (double v : {0.5, 1.0, 2.0, 2.0, 700.0}) reg.observe(h, v);

    std::string text = obs::render_prometheus_text(reg.snapshot());
    check_prometheus_lines(text);
    EXPECT_NE(
        text.find(
            "t23_jobs_total{class=\"prove\",status=\"ok\"} 5"),
        std::string::npos)
        << text;
    EXPECT_NE(text.find("# TYPE t23_latency_ms histogram"),
              std::string::npos);
    EXPECT_NE(text.find("t23_latency_ms_count{svc=\"a\"} 5"),
              std::string::npos);
    EXPECT_NE(text.find("t23_latency_ms_bucket{svc=\"a\",le=\"+Inf\"} 5"),
              std::string::npos);

    // Cumulative bucket counts must be nondecreasing and end at count.
    uint64_t prev = 0;
    size_t search = 0;
    while ((search = text.find("t23_latency_ms_bucket", search)) !=
           std::string::npos) {
        size_t sp = text.find(' ', search);
        uint64_t cum = std::strtoull(text.c_str() + sp + 1, nullptr, 10);
        EXPECT_GE(cum, prev);
        prev = cum;
        search = sp;
    }
    EXPECT_EQ(prev, 5u);

    std::string json = obs::render_json(reg.snapshot());
    EXPECT_TRUE(valid_json(json)) << json;
    EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Service integration: exhaustive exposition sweep + rejected-latency.
// ---------------------------------------------------------------------------

runtime::JobRequest
make_request(uint64_t id, size_t mu, uint64_t circuit_seed)
{
    std::mt19937_64 rng(circuit_seed);
    auto [index, wit] = hyperplonk::random_circuit(mu, rng);
    runtime::JobRequest req;
    req.request_id = id;
    req.circuit = std::move(index);
    req.witness = std::move(wit);
    return req;
}

/**
 * Whole-run total of `service`'s registry series matching `name` and
 * the label subset `labels`: counter values plus histogram observation
 * counts (obs::WindowDelta::total over a window opened at zero).
 */
uint64_t
series_total(const runtime::ProofService &service, const char *name,
             obs::LabelSet labels = {})
{
    labels.emplace_back("service", service.instance_label());
    auto run = obs::WindowDelta::between(
        obs::MetricsRegistry::global().snapshot(), obs::Snapshot{}, 0.0);
    return run.total({name, std::move(labels)});
}

TEST(ObsService, ExpositionExhaustive)
{
    // Snippet-1-style sweep: drive the service through a prove and a
    // verify, then assert every series the instance registered shows up
    // in BOTH rendered expositions — a metric that silently drops out
    // of the export is the exact failure mode this guards against.
    runtime::ServiceConfig cfg;
    cfg.num_workers = 2;
    cfg.total_parallelism = 2;
    cfg.verify_batch_size = 1;
    runtime::ProofService service(cfg);

    auto req = make_request(1, 3, 23100);
    auto proved = service.submit(req).get();
    ASSERT_TRUE(proved.ok()) << proved.error;

    runtime::KeyCache cache(2, cfg.srs_seed);
    auto keys = cache.get_or_create(req.circuit).first;
    runtime::VerifyRequest vreq;
    vreq.request_id = 2;
    vreq.vk = hyperplonk::serde::serialize_verifying_key(*keys.vk);
    vreq.public_inputs = req.witness.public_inputs(req.circuit);
    vreq.proof = proved.proof;
    auto verified = service.submit(vreq).get();
    EXPECT_TRUE(verified.ok()) << verified.error;
    service.shutdown();

    auto series = service.telemetry_series();
    // 6 latency + 2 queue + 2 active + 2 flush_reason + 2 verdicts
    // + 2 modmul + 8 singles + 4 gauges = 28 — keep in lockstep with
    // ProofService::register_telemetry.
    EXPECT_EQ(series.size(), 28u) << "register_telemetry drifted";

    auto snap = obs::MetricsRegistry::global().snapshot();
    std::string prom = obs::render_prometheus_text(snap);
    std::string json = obs::render_json(snap);
    EXPECT_TRUE(valid_json(json));

    for (const std::string &full : series) {
        const obs::MetricSnapshot *m = nullptr;
        for (const auto &cand : snap.metrics) {
            if (cand.full_name() == full) {
                m = &cand;
                break;
            }
        }
        ASSERT_NE(m, nullptr) << full << " not in the snapshot";
        // name{labels} -> the concrete exposition tokens per kind.
        size_t brace = full.find('{');
        std::string name = full.substr(0, brace);
        std::string labels =
            brace == std::string::npos ? "" : full.substr(brace);
        std::string prom_token =
            m->kind == obs::MetricKind::histogram
                ? name + "_count" + labels + " "
                : name + labels + " ";
        EXPECT_NE(prom.find(prom_token), std::string::npos)
            << full << " missing from Prometheus text";
        EXPECT_NE(json.find("\"name\":\"" + name + "\""),
                  std::string::npos)
            << full << " missing from JSON";
    }

    // Process-wide (non-service) series must be in both expositions
    // too: the build-info identity gauge registered by global() and the
    // trace-ring health series the global recorder exports.
    for (const char *name :
         {"zkspeed_build_info", "zkspeed_trace_ring_spans",
          "zkspeed_trace_spans_dropped_total"}) {
        EXPECT_NE(prom.find(name), std::string::npos)
            << name << " missing from Prometheus text";
        EXPECT_NE(json.find(std::string("\"name\":\"") + name + "\""),
                  std::string::npos)
            << name << " missing from JSON";
    }

    // And the series carry exactly the traffic this test sent.
    const char *lat = "zkspeed_job_latency_ms";
    EXPECT_EQ(series_total(service, lat,
                           {{"class", "prove"}, {"status", "ok"}}),
              1u);
    EXPECT_EQ(series_total(service, lat,
                           {{"class", "verify"}, {"status", "ok"}}),
              1u);
    EXPECT_EQ(series_total(service, "zkspeed_verify_flush_ms"), 1u);
    EXPECT_EQ(series_total(service, "zkspeed_verify_verdicts_total",
                           {{"verdict", "accepted"}}),
              1u);
    EXPECT_GT(series_total(service, "zkspeed_proof_bytes_total"), 0u);
}

TEST(ObsService, RejectedJobsKeepTheirLatency)
{
    // The status-labelled latency histogram records rejected jobs too,
    // not only ok ones.
    runtime::ServiceConfig cfg;
    cfg.num_workers = 1;
    cfg.total_parallelism = 1;
    runtime::ProofService service(cfg);

    // Perturb an output wire at a gate with an active q_O selector
    // (padding slots are unconstrained, so pick carefully).
    auto bad = make_request(3, 3, 23200);
    bool broke = false;
    for (size_t i = 0; i < bad.circuit.q_o.size() && !broke; ++i) {
        if (!bad.circuit.q_o[i].is_zero()) {
            bad.witness.w[2][i] += ff::Fr::one();
            broke = true;
        }
    }
    ASSERT_TRUE(broke);
    ASSERT_FALSE(bad.witness.satisfies_gates(bad.circuit));
    auto resp = service.submit(bad).get();
    EXPECT_EQ(resp.status, runtime::JobStatus::unsatisfiable);
    service.shutdown();

    EXPECT_EQ(series_total(service, "zkspeed_job_latency_ms",
                           {{"class", "prove"}, {"status", "ok"}}),
              0u);

    auto snap = obs::MetricsRegistry::global().snapshot();
    const auto *lat = snap.find(
        "zkspeed_job_latency_ms",
        {{"service", service.instance_label()},
         {"class", "prove"},
         {"status", "rejected"}});
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->hist.count, 1u);
    EXPECT_GT(lat->hist.sum, 0.0) << "rejection latency was dropped";
}

TEST(ObsService, CancelledJobsLandInFailedHistogram)
{
    runtime::ServiceConfig cfg;
    cfg.num_workers = 1;
    cfg.start_paused = true;  // never started: shutdown cancels the job
    runtime::ProofService service(cfg);
    auto fut = service.submit(make_request(4, 3, 23300));
    service.shutdown();
    EXPECT_EQ(fut.get().status, runtime::JobStatus::cancelled);
    EXPECT_EQ(series_total(service, "zkspeed_job_latency_ms",
                           {{"class", "prove"}, {"status", "failed"}}),
              1u);
}

// ---------------------------------------------------------------------------
// Kernel-recording hot path: concurrent recording.
// ---------------------------------------------------------------------------

TEST(ObsProfiler, TwoConcurrentRecordersNeverCorrupt)
{
    // The sharded kernel-recording path must produce exact totals under
    // 2-way concurrency — this is the 2-prover recording pattern with
    // the prover math stripped out.
    constexpr int kCalls = 50000;
    auto worker = [](int t) {
        for (int k = 0; k < kCalls; ++k) {
            hyperplonk::record_kernel("t23 kernel A", 3, 64, 32, 1e-7);
            if (k % 2 == t) {
                hyperplonk::record_kernel("t23 kernel B", 1, 8, 8, 1e-7);
            }
        }
    };
    std::thread a(worker, 0), b(worker, 1);
    a.join();
    b.join();

    auto kernels = hyperplonk::kernel_profiles(
        obs::MetricsRegistry::global().snapshot());
    ASSERT_TRUE(kernels.count("t23 kernel A"));
    ASSERT_TRUE(kernels.count("t23 kernel B"));
    const auto &ka = kernels["t23 kernel A"];
    EXPECT_EQ(ka.calls, uint64_t(2 * kCalls));
    EXPECT_EQ(ka.modmuls, uint64_t(2 * kCalls) * 3);
    EXPECT_EQ(ka.bytes_in, uint64_t(2 * kCalls) * 64);
    EXPECT_EQ(ka.bytes_out, uint64_t(2 * kCalls) * 32);
    EXPECT_EQ(kernels["t23 kernel B"].calls, uint64_t(kCalls));
    EXPECT_GT(ka.arithmetic_intensity(), 0.0);
}

TEST(ObsService, TwoConcurrentProversRecordEveryJob)
{
    // End-to-end flavour of the same satellite: two workers prove
    // concurrently; every job must land in the registry exactly once.
    runtime::ServiceConfig cfg;
    cfg.num_workers = 2;
    cfg.total_parallelism = 2;
    runtime::ProofService service(cfg);
    constexpr int kJobs = 6;
    std::vector<std::future<runtime::JobResponse>> futs;
    for (int k = 0; k < kJobs; ++k) {
        futs.push_back(
            service.submit(make_request(uint64_t(k), 3, 23400 + k)));
    }
    for (auto &f : futs) EXPECT_TRUE(f.get().ok());
    service.shutdown();
    EXPECT_EQ(series_total(service, "zkspeed_job_latency_ms",
                           {{"class", "prove"}, {"status", "ok"}}),
              uint64_t(kJobs));
    EXPECT_GT(series_total(service, "zkspeed_modmuls_total",
                           {{"field", "fr"}}),
              0u);
    // Kernel profiles from both workers folded into the registry.
    auto kernels = hyperplonk::kernel_profiles(
        obs::MetricsRegistry::global().snapshot());
    EXPECT_TRUE(kernels.count("Witness MSMs"));
}

}  // namespace
