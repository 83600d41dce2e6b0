/**
 * @file
 * Telemetry subsystem tests (DESIGN.md §10): histogram quantile error
 * against exact order statistics, shard-merge determinism under
 * threads, trace-event JSON well-formedness and span-nesting links,
 * Prometheus text parseability, the Snippet-1-style exposition
 * exhaustiveness sweep over every series a ProofService registers, the
 * prover kernel spans of two concurrent provers and the latency of
 * rejected and failed jobs.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <thread>
#include <unordered_map>

#include "hyperplonk/serialize.hpp"
#include "json_check.hpp"
#include "obs/export.hpp"
#include "obs/histogram.hpp"
#include "obs/log.hpp"
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
        if (i > 0) {
            EXPECT_GT(v, B::upper_bound(i - 1)) << v;
        }
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
// Registry semantics: identity, gauges, record tally, shard merging.
// ---------------------------------------------------------------------------

void
expect_counts(const obs::RecordCounts &got, const obs::RecordCounts &want)
{
    EXPECT_EQ(got.spans, want.spans);
    EXPECT_EQ(got.counter_adds, want.counter_adds);
    EXPECT_EQ(got.observations, want.observations);
    EXPECT_EQ(got.gauge_writes, want.gauge_writes);
    EXPECT_EQ(got.log_events, want.log_events);
}

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

TEST(ObsRegistry, GaugesSetAndAdd)
{
    obs::MetricsRegistry reg;
    obs::MetricId g = reg.gauge("t23_g");
    reg.set(g, 2.5);
    reg.gauge_add(g, 0.5);
    EXPECT_DOUBLE_EQ(reg.snapshot()[g]->gauge, 3.0);
    // A counter id carries no gauge slot: gauge writes through it are
    // no-ops, as are writes through an unregistered id.
    obs::MetricId c = reg.counter("t23_kc");
    reg.set(c, 9.0);
    reg.set(obs::MetricId{}, 9.0);
    EXPECT_EQ(reg.snapshot()[c]->counter, 0u);
    EXPECT_EQ(reg.record_counts().gauge_writes, 2u);
}

TEST(ObsRegistry, RecordCountsAreExactPerKind)
{
    obs::MetricsRegistry reg;
    obs::MetricId c = reg.counter("t28_c");
    obs::MetricId g = reg.gauge("t28_g");
    obs::MetricId h = reg.histogram("t28_h");
    reg.add(c, 3);
    reg.add(c, 0);  // a call counts whatever it adds
    reg.observe(h, 1.0);
    reg.set(g, 1.0);
    reg.gauge_add(g, 1.0);
    reg.add(obs::MetricId{}, 1);  // invalid ids record nothing
    // Another thread's calls land on its own shard and still count.
    std::thread([&] {
        reg.add(c);
        reg.observe(h, 2.0);
        reg.set(g, 0.0);
    }).join();
    reg.reset();  // zeroes values, never the tally
    obs::RecordCounts want;
    want.counter_adds = 3;
    want.observations = 2;
    want.gauge_writes = 3;
    expect_counts(reg.record_counts(), want);

    // The process-wide tally: a span is one span record plus the ring
    // telemetry it writes (one counter add, one gauge write); a log
    // event is one log record plus three counter adds and one gauge
    // write, whether or not it is admitted.
    auto &global = obs::MetricsRegistry::global();
    obs::MetricId gc = global.counter("t28_global_c");
    // Both rings register their series on first use.
    obs::TraceRecorder::global();
    obs::LogRecorder::global();
    const obs::RecordCounts before = obs::record_counts();
    { obs::Span s("t28.span", "test"); }
    auto now = std::chrono::steady_clock::now();
    obs::Span::record_complete("t28.window", "test", now, now);
    global.add(gc);
    obs::log_event(obs::LogLevel::debug, "t28", "tally");
    const obs::RecordCounts d = obs::record_counts() - before;
    obs::RecordCounts want_global;
    want_global.spans = 2;
    want_global.counter_adds = 2 + 1 + 3;
    want_global.gauge_writes = 2 + 1;
    want_global.log_events = 1;
    expect_counts(d, want_global);
}

TEST(ObsRegistry, GaugeWritesNeverWaitOnRegistrationOrSnapshots)
{
    // Gauge writes touch only their slot's atomic: writers run while
    // another thread registers series and snapshots (TSan checks the
    // races), and every write is counted.
    obs::MetricsRegistry reg;
    constexpr int kWriters = 4, kWrites = 2000;
    std::vector<obs::MetricId> gauges;
    for (int w = 0; w < kWriters; ++w) {
        gauges.push_back(reg.gauge("t28_busy", {{"w", std::to_string(w)}}));
    }
    std::atomic<bool> stop{false};
    std::thread churn([&] {
        for (int i = 0; !stop.load(); ++i) {
            reg.counter("t28_churn", {{"i", std::to_string(i % 512)}});
            auto snap = reg.snapshot();
            EXPECT_GE(snap.metrics.size(), size_t(kWriters));
        }
    });
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            for (int i = 1; i <= kWrites; ++i) {
                reg.set(gauges[w], double(i));
                reg.gauge_add(gauges[w], 1.0);
            }
        });
    }
    for (auto &t : writers) t.join();
    stop = true;
    churn.join();
    auto snap = reg.snapshot();
    for (int w = 0; w < kWriters; ++w) {
        EXPECT_DOUBLE_EQ(snap[gauges[w]]->gauge, double(kWrites + 1));
    }
    EXPECT_EQ(reg.record_counts().gauge_writes,
              uint64_t(2 * kWriters * kWrites));
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

// ---------------------------------------------------------------------------
// Span storage: the ring keeps spans packed (obs::PackedSpanRing) and
// events() rebuilds them; what comes back must be what went in.
// ---------------------------------------------------------------------------

static_assert(obs::PackedSpanRing::record_bytes(0) == 56 &&
                  obs::PackedSpanRing::record_bytes(4) == 104 &&
                  obs::PackedSpanRing::record_bytes(6) == 128,
              "a retained span costs 56 B plus 12 B per arg, rounded up "
              "to whole words");

/** A fixed span set covering what the packed ring stores: u64 ids up
 * to 2^64 - 1, equal and out-of-order start times, names and keys over
 * 15 chars (past the small-string buffer), and 0, 1, 4 and 6 args. */
std::vector<obs::SpanEvent>
fixed_spans()
{
    auto ev = [](uint64_t id, uint64_t parent, uint64_t job, uint32_t tid,
                 double ts, double dur, std::string name, std::string cat,
                 std::vector<std::pair<std::string, double>> args) {
        obs::SpanEvent e;
        e.span_id = id;
        e.parent_id = parent;
        e.correlation_id = job;
        e.tid = tid;
        e.ts_us = ts;
        e.dur_us = dur;
        e.name = std::move(name);
        e.category = std::move(cat);
        e.args = std::move(args);
        return e;
    };
    return {
        ev(1, 0, 18446744073709551615ull, 1, 10.25, 90.5, "prove.job",
           "service", {}),
        ev(2, 1, 18446744073709551615ull, 1, 12.0, 3.0,
           "prove.witness_check", "service", {}),
        ev(3, 1, 0, 2, 5.5, 1.0 / 3.0, "Wire Identity MSMs", "prover",
           {{"modmul_fr", 123456789.0},
            {"modmul_fq", 0.0},
            {"bytes_in", 1e15},
            {"bytes_out", -2.5}}),
        ev(4, 3, 7, 3, 12.0, 0.0, "a.span.name.longer.than.fifteen",
           "a.category.longer.than.fifteen",
           {{"k0", 1.0},
            {"a.key.longer.than.fifteen", 2.0},
            {"k2", 3.0},
            {"k3", 4.0},
            {"k4.the.fifth.arg.key", 5.0},
            {"modmul_fr", 6.0}}),
        ev(9007199254740993ull, 4, 42, 4294967295u, 0.0, 1e-9,
           "verify.flush", "service", {{"modmul_fq", 1e300}}),
    };
}

void
expect_same_span(const obs::SpanEvent &got, const obs::SpanEvent &want)
{
    EXPECT_EQ(got.span_id, want.span_id);
    EXPECT_EQ(got.parent_id, want.parent_id);
    EXPECT_EQ(got.correlation_id, want.correlation_id);
    EXPECT_EQ(got.tid, want.tid);
    // Bit-identical timestamps, not merely close ones.
    EXPECT_EQ(std::memcmp(&got.ts_us, &want.ts_us, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&got.dur_us, &want.dur_us, sizeof(double)), 0);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.category, want.category);
    EXPECT_EQ(got.args, want.args);
}

TEST(ObsSpanStorage, EventsReturnExactlyWhatWasRecorded)
{
    obs::TraceRecorder rec(16);
    auto spans = fixed_spans();
    for (const auto &e : spans) rec.record(e);
    // events() orders by start time, stably: equal starts (spans 2 and
    // 4 at 12 us) keep their record order.
    std::vector<size_t> order = {4, 2, 0, 1, 3};
    auto got = rec.events();
    ASSERT_EQ(got.size(), spans.size());
    for (size_t i = 0; i < order.size(); ++i) {
        SCOPED_TRACE(i);
        expect_same_span(got[i], spans[order[i]]);
    }
    // Reading is not destructive, and the string table survives a
    // second pass.
    auto again = rec.events();
    ASSERT_EQ(again.size(), got.size());
    for (size_t i = 0; i < got.size(); ++i) {
        expect_same_span(again[i], got[i]);
    }
}

TEST(ObsSpanStorage, EvictionOrderAndDropCountUnchanged)
{
    obs::TraceRecorder rec(3);
    auto spans = fixed_spans();
    // Record in start-time order so eviction order is visible directly.
    std::stable_sort(spans.begin(), spans.end(),
                     [](const obs::SpanEvent &a, const obs::SpanEvent &b) {
                         return a.ts_us < b.ts_us;
                     });
    for (const auto &e : spans) rec.record(e);
    EXPECT_EQ(rec.size(), 3u);
    EXPECT_EQ(rec.dropped(), 2u);
    auto got = rec.events();
    ASSERT_EQ(got.size(), 3u);
    for (size_t i = 0; i < 3; ++i) expect_same_span(got[i], spans[i + 2]);

    // clear() drops the spans and the string table; recording resumes
    // with fresh ids for the same strings.
    rec.clear();
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(rec.dropped(), 0u);
    rec.record(spans[4]);
    got = rec.events();
    ASSERT_EQ(got.size(), 1u);
    expect_same_span(got[0], spans[4]);

    rec.set_capacity(1);
    EXPECT_EQ(rec.size(), 0u);
    rec.record(spans[0]);
    rec.record(spans[1]);
    EXPECT_EQ(rec.dropped(), 1u);
    got = rec.events();
    ASSERT_EQ(got.size(), 1u);
    expect_same_span(got[0], spans[1]);
}

TEST(ObsSpanStorage, ChromeJsonMatchesTheUnpackedRing)
{
    // Rendered by the SpanEvent ring this storage replaced, for the
    // same fixed span set.
    const std::string golden =
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"verify.flush\","
        "\"cat\":\"service\",\"ph\":\"X\",\"pid\":1,\"tid\":4294967295,\"ts\":0,\"dur\""
        ":1e-09,\"args\":{\"span\":9007199254740993,\"parent\":4,\"job\":42,\"mo"
        "dmul_fq\":1e+300}},{\"name\":\"Wire Identity MSMs\",\"cat\":\"prover\","
        "\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":5.5,\"dur\":0.3333333333333333,\"ar"
        "gs\":{\"span\":3,\"parent\":1,\"job\":0,\"modmul_fr\":123456789,\"modmul"
        "_fq\":0,\"bytes_in\":1e+15,\"bytes_out\":-2.5}},{\"name\":\"prove.job\""
        ",\"cat\":\"service\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":10.25,\"dur\":90."
        "5,\"args\":{\"span\":1,\"parent\":0,\"job\":18446744073709551615}},{\"n"
        "ame\":\"prove.witness_check\",\"cat\":\"service\",\"ph\":\"X\",\"pid\":1,\"t"
        "id\":1,\"ts\":12,\"dur\":3,\"args\":{\"span\":2,\"parent\":1,\"job\":184467"
        "44073709551615}},{\"name\":\"a.span.name.longer.than.fifteen\",\"ca"
        "t\":\"a.category.longer.than.fifteen\",\"ph\":\"X\",\"pid\":1,\"tid\":3,\""
        "ts\":12,\"dur\":0,\"args\":{\"span\":4,\"parent\":3,\"job\":7,\"k0\":1,\"a.k"
        "ey.longer.than.fifteen\":2,\"k2\":3,\"k3\":4,\"k4.the.fifth.arg.key\""
        ":5,\"modmul_fr\":6}}]}";
    obs::TraceRecorder rec(16);
    for (const auto &e : fixed_spans()) rec.record(e);
    EXPECT_EQ(rec.render_chrome_json(), golden);
    EXPECT_TRUE(valid_json(golden));
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
// Prover kernel spans: the only record of a kernel.
// ---------------------------------------------------------------------------

/** Kernel name -> arg name -> sum over one job's `prover` spans. */
using KernelArgs = std::map<std::string, std::map<std::string, double>>;

/** Every job's prover spans, summed per kernel and keyed by the
 * correlation id of the nearest ancestor that carries one. */
std::map<uint64_t, KernelArgs>
prover_spans_by_job(const std::vector<obs::SpanEvent> &events)
{
    std::unordered_map<uint64_t, const obs::SpanEvent *> by_id;
    for (const auto &e : events) by_id[e.span_id] = &e;
    std::map<uint64_t, KernelArgs> jobs;
    for (const auto &e : events) {
        if (e.category != "prover") continue;
        const obs::SpanEvent *p = &e;
        while (p != nullptr && p->correlation_id == 0) {
            auto it = by_id.find(p->parent_id);
            p = it == by_id.end() ? nullptr : it->second;
        }
        if (p == nullptr) continue;
        for (const auto &[k, v] : e.args) {
            jobs[p->correlation_id][e.name][k] += v;
        }
    }
    return jobs;
}

TEST(ObsProfiler, ConcurrentProversRecordIdenticalKernelSpans)
{
    // Two workers prove the same circuit at the same time. Joined by
    // correlation chain, each job's prover spans must carry the same
    // modmuls and bytes per kernel: a span lost, doubled or credited
    // to the other job shows as a difference.
    obs::TraceRecorder::global().clear();
    runtime::ServiceConfig cfg;
    cfg.num_workers = 2;
    cfg.total_parallelism = 2;
    runtime::ProofService service(cfg);
    auto a = service.submit(make_request(29001, 4, 29000));
    auto b = service.submit(make_request(29002, 4, 29000));
    ASSERT_TRUE(a.get().ok());
    ASSERT_TRUE(b.get().ok());
    service.shutdown();

    const auto events = obs::TraceRecorder::global().events();
    auto jobs = prover_spans_by_job(events);
    ASSERT_EQ(jobs.size(), 2u);
    const KernelArgs &ka = jobs[29001];
    const KernelArgs &kb = jobs[29002];
    ASSERT_TRUE(ka.contains("Witness MSMs"));
    EXPECT_GT(ka.at("Witness MSMs").at("modmul_fq"), 0.0);
    ASSERT_EQ(ka.size(), kb.size());
    for (const auto &[kernel, args] : ka) {
        ASSERT_TRUE(kb.contains(kernel)) << kernel;
        for (const char *key :
             {"modmul_fr", "modmul_fq", "bytes_in", "bytes_out"}) {
            EXPECT_EQ(args.at(key), kb.at(kernel).at(key))
                << kernel << " " << key;
        }
    }

    // A sumcheck span's round/update split adds up to its totals. The
    // modmul total also holds the transcript's challenge derivations,
    // which are neither rounds nor updates: one per round (mu = 4),
    // 4 Fr muls each (Horner over the digest's four 64-bit words).
    size_t sumchecks = 0;
    for (const auto &e : events) {
        std::map<std::string, double> arg(e.args.begin(), e.args.end());
        if (e.category != "prover" || !arg.contains("round_modmuls")) {
            continue;
        }
        ++sumchecks;
        EXPECT_EQ(arg["round_bytes_in"] + arg["update_bytes_in"],
                  arg["bytes_in"])
            << e.name;
        EXPECT_EQ(arg["round_modmuls"] + arg["update_modmuls"] + 4 * 4,
                  arg["modmul_fr"] + arg["modmul_fq"])
            << e.name;
    }
    EXPECT_EQ(sumchecks, 6u);  // ZeroCheck, PermCheck, OpenCheck per job
}

TEST(ObsService, TwoConcurrentProversRecordEveryJob)
{
    // End-to-end flavour of the same satellite: two workers prove
    // concurrently; every job must land in the registry and the span
    // ring exactly once.
    obs::TraceRecorder::global().clear();
    runtime::ServiceConfig cfg;
    cfg.num_workers = 2;
    cfg.total_parallelism = 2;
    runtime::ProofService service(cfg);
    constexpr int kJobs = 6;
    std::vector<std::future<runtime::JobResponse>> futs;
    for (int k = 0; k < kJobs; ++k) {
        futs.push_back(service.submit(
            make_request(uint64_t(23400 + k), 3, 23400 + k)));
    }
    for (auto &f : futs) EXPECT_TRUE(f.get().ok());
    service.shutdown();
    EXPECT_EQ(series_total(service, "zkspeed_job_latency_ms",
                           {{"class", "prove"}, {"status", "ok"}}),
              uint64_t(kJobs));
    EXPECT_GT(series_total(service, "zkspeed_modmuls_total",
                           {{"field", "fr"}}),
              0u);
    // Kernel spans from both workers, joined to every job.
    auto jobs = prover_spans_by_job(obs::TraceRecorder::global().events());
    EXPECT_EQ(jobs.size(), size_t(kJobs));
    for (int k = 0; k < kJobs; ++k) {
        EXPECT_TRUE(jobs[uint64_t(23400 + k)].contains("Witness MSMs"))
            << "job " << 23400 + k;
    }
}

}  // namespace
