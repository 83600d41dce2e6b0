/**
 * @file
 * Load-generator and snapshot-delta suite (suite #24): the windowed
 * delta engine (counter deltas under concurrent recording, interval
 * percentiles against exact in-window order statistics, counter-reset
 * clamping after a registry reset), the SloEvaluator verdict and
 * error-budget-burn math, the plan parser's strict rule-map validation
 * (every recognised field exercised, unknown keys rejected by name),
 * the deterministic schedule builder, and a small end-to-end capacity
 * run through scenarios::run_capacity with both a generous SLO (must
 * pass, knee at the last window) and an impossible one (must breach).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <random>
#include <set>
#include <thread>

#include "loadgen/loadgen.hpp"
#include "obs/window.hpp"
#include "runtime/service.hpp"
#include "scenarios/harness.hpp"
#include "scenarios/registry.hpp"
#include "scenarios/seed.hpp"

namespace {

using namespace zkspeed;
using loadgen::Arrival;
using loadgen::MixEntry;
using loadgen::Plan;
using loadgen::PlanError;
using loadgen::Profile;
using obs::HistogramBuckets;
using obs::HistogramSnapshot;
using obs::MetricsRegistry;
using obs::SeriesSelector;
using obs::SloObjective;
using obs::SloVerdict;
using obs::WindowDelta;

const uint64_t kSeed = scenarios::test_seed(2027);

/** A synthetic histogram snapshot from raw samples. */
HistogramSnapshot
hist_of(const std::vector<double> &samples)
{
    HistogramSnapshot h;
    std::map<size_t, uint64_t> buckets;
    for (double v : samples) {
        h.count++;
        h.sum += v;
        h.min = h.count == 1 ? v : std::min(h.min, v);
        h.max = h.count == 1 ? v : std::max(h.max, v);
        buckets[HistogramBuckets::index_for(v)]++;
    }
    for (const auto &[idx, count] : buckets) {
        h.buckets.push_back({idx, HistogramBuckets::upper_bound(idx),
                             count});
    }
    return h;
}

/** Exact order statistic matching HistogramSnapshot::quantile's rank. */
double
exact_quantile(std::vector<double> samples, double q)
{
    std::sort(samples.begin(), samples.end());
    size_t rank = size_t(std::ceil(q * double(samples.size())));
    rank = std::clamp<size_t>(rank, 1, samples.size());
    return samples[rank - 1];
}

// ---------------------------------------------------------------------------
// Snapshot-delta math.
// ---------------------------------------------------------------------------

TEST(WindowDeltaMath, CounterDeltaAndResetClamp)
{
    bool reset = false;
    EXPECT_EQ(obs::counter_delta(10, 4, &reset), 6u);
    EXPECT_FALSE(reset);
    EXPECT_EQ(obs::counter_delta(7, 7, &reset), 0u);
    EXPECT_FALSE(reset);
    // Backwards: the series restarted; the delta is everything recorded
    // since the restart, never a negative wrap.
    EXPECT_EQ(obs::counter_delta(3, 9, &reset), 3u);
    EXPECT_TRUE(reset);
}

TEST(WindowDeltaMath, CounterDeltasUnderConcurrentRecording)
{
    // Windows cut while writer threads hammer the counter: every
    // snapshot is a consistent merge, so the window deltas are
    // non-negative and sum exactly to the grand total.
    MetricsRegistry reg;
    auto id = reg.counter("t_concurrent_total", {{"k", "v"}});
    constexpr size_t kThreads = 4, kIncrements = 20000;
    std::atomic<bool> go{false};
    std::vector<std::thread> writers;
    for (size_t t = 0; t < kThreads; ++t) {
        writers.emplace_back([&] {
            while (!go.load()) std::this_thread::yield();
            for (size_t i = 0; i < kIncrements; ++i) reg.add(id);
        });
    }
    go.store(true);
    std::vector<obs::Snapshot> snaps;
    snaps.push_back(reg.snapshot());
    for (int w = 0; w < 8; ++w) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        snaps.push_back(reg.snapshot());
    }
    for (auto &th : writers) th.join();
    snaps.push_back(reg.snapshot());

    uint64_t summed = snaps.front().metrics[id.index].counter;
    for (size_t i = 1; i < snaps.size(); ++i) {
        auto d = WindowDelta::between(snaps[i], snaps[i - 1], 0.001);
        EXPECT_EQ(d.counter_resets, 0u);
        summed += d.find("t_concurrent_total", {{"k", "v"}})->counter;
    }
    EXPECT_EQ(summed, kThreads * kIncrements);
}

TEST(WindowDeltaMath, IntervalPercentilesWithinDocumentedBound)
{
    // Pre-window traffic has a very different latency distribution from
    // the in-window samples; the interval quantiles must track the
    // exact in-window order statistics, not the cumulative mixture.
    MetricsRegistry reg;
    auto id = reg.histogram("t_latency_ms");
    std::mt19937_64 rng(kSeed);
    for (int i = 0; i < 4000; ++i) {  // baseline: fast ~1ms population
        reg.observe(id, 0.5 + double(rng() % 1000) / 1000.0);
    }
    auto before = reg.snapshot();

    std::vector<double> window_samples;  // in-window: slow, long-tailed
    for (int i = 0; i < 3000; ++i) {
        double v = 20.0 * std::exp(double(rng() % 2000) / 1000.0);
        window_samples.push_back(v);
        reg.observe(id, v);
    }
    auto after = reg.snapshot();

    bool reset = false;
    auto d = obs::histogram_delta(after.metrics[id.index].hist,
                                  before.metrics[id.index].hist, &reset);
    EXPECT_FALSE(reset);
    ASSERT_EQ(d.count, window_samples.size());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        double exact = exact_quantile(window_samples, q);
        double est = d.quantile(q);
        EXPECT_NEAR(est, exact,
                    exact * HistogramBuckets::kMaxRelativeError * 1.0001)
            << "q=" << q;
    }
    // Interval extrema: the window dominated both cumulative extrema
    // here, so they are exact.
    EXPECT_DOUBLE_EQ(
        d.max, *std::max_element(window_samples.begin(),
                                 window_samples.end()));
}

TEST(WindowDeltaMath, HistogramDeltaMinMaxBoundedByEdgeBuckets)
{
    // The cumulative min/max did NOT move in-window, so exact extrema
    // are unknowable from two snapshots; the delta must bound them by
    // its edge buckets instead of leaking the stale cumulative values.
    auto before = hist_of({0.001, 1.0, 2.0, 1000.0});
    auto after = hist_of({0.001, 1.0, 1.0, 2.0, 2.0, 2.0, 1000.0});
    bool reset = false;
    auto d = obs::histogram_delta(after, before, &reset);
    EXPECT_FALSE(reset);
    EXPECT_EQ(d.count, 3u);
    EXPECT_LE(d.min, 1.0);
    EXPECT_GT(d.min, 0.001);  // tighter than the stale cumulative min
    EXPECT_GE(d.max, 2.0);
    EXPECT_LT(d.max, 1000.0);
    // And the interval quantiles stay inside the documented bound.
    EXPECT_NEAR(d.quantile(0.99), 2.0,
                2.0 * HistogramBuckets::kMaxRelativeError * 1.0001);
}

TEST(WindowDeltaMath, RegistryResetIsClampedNotNegative)
{
    // A MetricsRegistry::reset() between the two snapshots (the
    // new-process / wiped-shard case): cumulative values go backwards,
    // deltas clamp to everything-since-the-reset and the window flags
    // how many series restarted.
    MetricsRegistry reg;
    auto c = reg.counter("t_jobs_total");
    auto h = reg.histogram("t_ms");
    reg.add(c, 100);
    for (int i = 0; i < 50; ++i) reg.observe(h, 5.0);
    auto before = reg.snapshot();

    reg.reset();
    reg.add(c, 7);
    for (int i = 0; i < 3; ++i) reg.observe(h, 9.0);
    auto after = reg.snapshot();

    auto d = WindowDelta::between(after, before, 1.0);
    EXPECT_EQ(d.counter_resets, 2u);
    EXPECT_EQ(d.find("t_jobs_total")->counter, 7u);
    EXPECT_EQ(d.find("t_ms")->hist.count, 3u);
    EXPECT_DOUBLE_EQ(d.rate("t_jobs_total"), 7.0);
}

TEST(WindowDeltaMath, NewSeriesMidWindowDeltasAgainstZero)
{
    MetricsRegistry reg;
    auto a = reg.counter("t_first_total");
    reg.add(a, 5);
    auto before = reg.snapshot();
    auto b = reg.counter("t_second_total");  // registered mid-window
    reg.add(a, 2);
    reg.add(b, 11);
    auto after = reg.snapshot();

    auto d = WindowDelta::between(after, before, 1.0);
    EXPECT_EQ(d.counter_resets, 0u);
    EXPECT_EQ(d.find("t_first_total")->counter, 2u);
    EXPECT_EQ(d.find("t_second_total")->counter, 11u);
}

TEST(WindowDeltaMath, SelectorMergesAcrossLabelSubsets)
{
    MetricsRegistry reg;
    auto h1 = reg.histogram("t_lat_ms", {{"class", "prove"},
                                         {"status", "ok"}});
    auto h2 = reg.histogram("t_lat_ms", {{"class", "verify"},
                                         {"status", "ok"}});
    auto h3 = reg.histogram("t_lat_ms", {{"class", "prove"},
                                         {"status", "failed"}});
    auto before = reg.snapshot();
    reg.observe(h1, 1.0);
    reg.observe(h1, 2.0);
    reg.observe(h2, 3.0);
    reg.observe(h3, 100.0);
    auto after = reg.snapshot();
    auto d = WindowDelta::between(after, before, 1.0);

    SeriesSelector ok{"t_lat_ms", {{"status", "ok"}}};
    EXPECT_EQ(d.total(ok), 3u);  // both classes, not the failed series
    auto merged = d.merged_histogram(ok);
    EXPECT_EQ(merged.count, 3u);
    EXPECT_DOUBLE_EQ(merged.min, 1.0);
    EXPECT_DOUBLE_EQ(merged.max, 3.0);
    SeriesSelector all{"t_lat_ms", {}};
    EXPECT_EQ(d.total(all), 4u);
}

// ---------------------------------------------------------------------------
// SLO evaluation.
// ---------------------------------------------------------------------------

TEST(SloEvaluation, QuantileVerdictAndBudgetBurn)
{
    MetricsRegistry reg;
    auto h = reg.histogram("t_lat_ms", {{"status", "ok"}});
    auto before = reg.snapshot();
    // 100 samples: 97 fast (~10ms), 3 slow (~1000ms). p99 > 100ms, and
    // the fraction over 100ms is 3% = 3x the 1% budget of a p99 SLO.
    for (int i = 0; i < 97; ++i) reg.observe(h, 10.0);
    for (int i = 0; i < 3; ++i) reg.observe(h, 1000.0);
    auto after = reg.snapshot();
    auto d = WindowDelta::between(after, before, 1.0);

    SloObjective fail_obj;
    fail_obj.name = "p99-tight";
    fail_obj.series = {"t_lat_ms", {{"status", "ok"}}};
    fail_obj.q = 0.99;
    fail_obj.threshold = 100.0;
    SloObjective pass_obj = fail_obj;
    pass_obj.name = "p99-loose";
    pass_obj.threshold = 2000.0;

    obs::SloEvaluator ev({fail_obj, pass_obj});
    auto verdicts = ev.evaluate(d);
    ASSERT_EQ(verdicts.size(), 2u);
    EXPECT_FALSE(verdicts[0].pass);
    EXPECT_EQ(verdicts[0].samples, 100u);
    EXPECT_NEAR(verdicts[0].budget_burn, 3.0, 1e-9);
    EXPECT_TRUE(verdicts[1].pass);
    EXPECT_NEAR(verdicts[1].budget_burn, 0.0, 1e-9);
    EXPECT_FALSE(obs::SloEvaluator::all_pass(verdicts));

    // An idle window passes vacuously with zero burn.
    auto idle = WindowDelta::between(after, after, 1.0);
    auto idle_verdicts = ev.evaluate(idle);
    EXPECT_TRUE(obs::SloEvaluator::all_pass(idle_verdicts));
    EXPECT_EQ(idle_verdicts[0].samples, 0u);
}

TEST(SloEvaluation, ErrorRatioVerdictAndBurn)
{
    MetricsRegistry reg;
    auto total = reg.counter("t_offered_total");
    auto errors = reg.counter("t_shed_total");
    auto before = reg.snapshot();
    reg.add(total, 200);
    reg.add(errors, 10);  // 5% observed
    auto after = reg.snapshot();
    auto d = WindowDelta::between(after, before, 2.0);

    SloObjective o;
    o.name = "shed";
    o.kind = SloObjective::Kind::error_ratio;
    o.series = {"t_offered_total", {}};
    o.errors = {"t_shed_total", {}};
    o.threshold = 0.01;
    auto verdicts = obs::SloEvaluator({o}).evaluate(d);
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_FALSE(verdicts[0].pass);
    EXPECT_NEAR(verdicts[0].value, 0.05, 1e-12);
    EXPECT_NEAR(verdicts[0].budget_burn, 5.0, 1e-9);

    o.threshold = 0.10;
    auto ok = obs::SloEvaluator({o}).evaluate(d);
    EXPECT_TRUE(ok[0].pass);
    EXPECT_NEAR(ok[0].budget_burn, 0.5, 1e-9);
}

// ---------------------------------------------------------------------------
// Plan parsing: strict rule-map validation.
// ---------------------------------------------------------------------------

/** One plan exercising EVERY recognised key of every directive. */
const char *kFullPlan =
    "# capacity plan, full schema\n"
    "mix family=rescue-chain weight=3 log_size=5 seed=11\n"
    "mix family=range-bank weight=1 log_size=4 seed=23  # trailing\n"
    "profile kind=ramp qps=4 qps0=2 qps1=24 steps=6\n"
    "run windows=10 window_ms=250 warmup_windows=2 seed=77 "
    "verify_fraction=0.25\n"
    "slo name=p99 kind=quantile series=zkspeed_job_latency_ms "
    "labels=status:ok,class:prove q=0.99 threshold_ms=250\n"
    "slo name=shed kind=error_ratio total=zkspeed_loadgen_offered_total "
    "total_labels=service:svc0 errors=zkspeed_loadgen_shed_total "
    "errors_labels=service:svc0 threshold=0.01\n";

TEST(PlanParser, FullSchemaRoundTrip)
{
    Plan p = loadgen::parse_plan(kFullPlan);
    ASSERT_EQ(p.mix.size(), 2u);
    EXPECT_EQ(p.mix[0].family, "rescue-chain");
    EXPECT_DOUBLE_EQ(p.mix[0].weight, 3.0);
    EXPECT_EQ(p.mix[0].log_size, 5u);
    EXPECT_EQ(p.mix[0].seed, 11u);
    EXPECT_EQ(p.profile.kind, Profile::Kind::ramp);
    EXPECT_DOUBLE_EQ(p.profile.qps, 4.0);
    EXPECT_DOUBLE_EQ(p.profile.qps0, 2.0);
    EXPECT_DOUBLE_EQ(p.profile.qps1, 24.0);
    EXPECT_EQ(p.profile.steps, 6u);
    EXPECT_EQ(p.windows, 10u);
    EXPECT_DOUBLE_EQ(p.window_ms, 250.0);
    EXPECT_EQ(p.warmup_windows, 2u);
    EXPECT_EQ(p.seed, 77u);
    EXPECT_DOUBLE_EQ(p.verify_fraction, 0.25);
    ASSERT_EQ(p.objectives.size(), 2u);
    EXPECT_EQ(p.objectives[0].kind, SloObjective::Kind::quantile);
    EXPECT_EQ(p.objectives[0].series.name, "zkspeed_job_latency_ms");
    // Labels sorted: class before status (series identity order).
    ASSERT_EQ(p.objectives[0].series.labels.size(), 2u);
    EXPECT_EQ(p.objectives[0].series.labels[0].first, "class");
    EXPECT_DOUBLE_EQ(p.objectives[0].threshold, 250.0);
    EXPECT_EQ(p.objectives[1].kind, SloObjective::Kind::error_ratio);
    EXPECT_EQ(p.objectives[1].errors.name, "zkspeed_loadgen_shed_total");
    EXPECT_DOUBLE_EQ(p.objectives[1].threshold, 0.01);
}

TEST(PlanParser, SchemaIsFullyExercisedByTheRoundTripPlan)
{
    // Guard against schema drift: every directive and every recognised
    // key must appear in kFullPlan, so FullSchemaRoundTrip really does
    // cover the whole rule map (Snippet-1-style exhaustiveness).
    const std::string text = kFullPlan;
    for (const auto &[directive, keys] : loadgen::plan_schema()) {
        EXPECT_NE(text.find("\n" + directive + " "), std::string::npos)
            << "directive '" << directive << "' not exercised";
        for (const auto &key : keys) {
            EXPECT_NE(text.find(key + "="), std::string::npos)
                << "key '" << key << "' of directive '" << directive
                << "' not exercised";
        }
    }
}

TEST(PlanParser, RejectsUnknownAndMalformedByName)
{
    auto expect_error = [](const char *text, const char *needle) {
        try {
            loadgen::parse_plan(text);
            FAIL() << "accepted: " << text;
        } catch (const PlanError &e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << "error '" << e.what() << "' does not name '" << needle
                << "'";
        }
    };
    expect_error("mixx family=rollup\n", "unknown directive 'mixx'");
    expect_error("mix family=rollup wieght=2\n", "unknown key 'wieght'");
    expect_error("profile kind=warp\n", "unknown profile kind 'warp'");
    expect_error("run windows=soon\n", "wants an integer");
    expect_error("mix family=rollup weight=fat\n", "wants a number");
    expect_error("mix weight=1\n", "missing required key 'family'");
    expect_error("slo name=x kind=quantile series=s threshold_ms=1 "
                 "labels=nocolon\n",
                 "wants k:v");
    expect_error("mix family=a family=b\n", "duplicate key 'family'");
    expect_error("run windows=0\n", "windows must be >= 1");
    expect_error("run windows=2 warmup_windows=2\n",
                 "at least one measured window");
    expect_error("slo name=x kind=sometimes series=s threshold_ms=1\n",
                 "unknown slo kind 'sometimes'");
}

// ---------------------------------------------------------------------------
// Deterministic scheduling.
// ---------------------------------------------------------------------------

TEST(Schedule, SameSeedSameScheduleAndSeedChangesIt)
{
    Plan p;
    p.windows = 6;
    p.window_ms = 100;
    p.seed = kSeed;
    p.verify_fraction = 0.3;
    p.profile.kind = Profile::Kind::constant;
    p.profile.qps = 200;
    const std::vector<double> weights = {3, 1};

    auto a = loadgen::build_schedule(p, weights);
    auto b = loadgen::build_schedule(p, weights);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_GT(a.size(), 50u);
    bool any_verify = false, every_pool[2] = {false, false};
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].t_ms, b[i].t_ms);
        EXPECT_EQ(a[i].pool, b[i].pool);
        EXPECT_EQ(a[i].verify, b[i].verify);
        EXPECT_GE(a[i].t_ms, 0.0);
        EXPECT_LT(a[i].t_ms, p.windows * p.window_ms);
        ASSERT_LT(a[i].pool, 2u);
        every_pool[a[i].pool] = true;
        any_verify = any_verify || a[i].verify;
        if (i > 0) EXPECT_GE(a[i].t_ms, a[i - 1].t_ms);
    }
    EXPECT_TRUE(any_verify);
    EXPECT_TRUE(every_pool[0]);
    EXPECT_TRUE(every_pool[1]);

    p.seed = kSeed + 1;
    auto c = loadgen::build_schedule(p, weights);
    bool differs = c.size() != a.size();
    for (size_t i = 0; !differs && i < a.size(); ++i) {
        differs = a[i].t_ms != c[i].t_ms;
    }
    EXPECT_TRUE(differs) << "seed does not influence the schedule";
}

TEST(Schedule, RampProfileIsMonotoneAndStepHasPlateaus)
{
    Plan p;
    p.windows = 8;
    p.profile.kind = Profile::Kind::ramp;
    p.profile.qps0 = 2;
    p.profile.qps1 = 30;
    double prev = -1;
    for (size_t w = 0; w < p.windows; ++w) {
        double q = p.profile.qps_for_window(w, p.windows);
        EXPECT_GT(q, prev) << "ramp not strictly increasing at " << w;
        prev = q;
    }
    EXPECT_DOUBLE_EQ(p.profile.qps_for_window(0, 8), 2.0);
    EXPECT_DOUBLE_EQ(p.profile.qps_for_window(7, 8), 30.0);

    Profile step;
    step.kind = Profile::Kind::step;
    step.qps0 = 10;
    step.qps1 = 40;
    step.steps = 4;
    std::set<double> levels;
    prev = -1;
    for (size_t w = 0; w < 8; ++w) {
        double q = step.qps_for_window(w, 8);
        EXPECT_GE(q, prev);
        prev = q;
        levels.insert(q);
    }
    EXPECT_EQ(levels.size(), 4u);
    EXPECT_DOUBLE_EQ(*levels.begin(), 10.0);
    EXPECT_DOUBLE_EQ(*levels.rbegin(), 40.0);

    // A ramp schedule offers more arrivals late than early.
    p.seed = kSeed;
    p.window_ms = 100;
    auto sched = loadgen::build_schedule(p, {1.0});
    size_t early = 0, late = 0;
    for (const auto &ar : sched) {
        if (ar.t_ms < 2 * p.window_ms) ++early;
        if (ar.t_ms >= 6 * p.window_ms) ++late;
    }
    EXPECT_GT(late, early);
}

// ---------------------------------------------------------------------------
// End to end through scenarios::run_capacity.
// ---------------------------------------------------------------------------

loadgen::Plan
small_capacity_plan()
{
    Plan p;
    p.mix.push_back(MixEntry{"rescue-chain", 3.0, 4, kSeed});
    p.mix.push_back(MixEntry{"range-bank", 1.0, 4, kSeed + 7});
    p.profile.kind = Profile::Kind::constant;
    p.profile.qps = 6;
    p.windows = 3;
    p.window_ms = 400;
    p.seed = kSeed;
    p.verify_fraction = 0.25;
    return p;
}

TEST(CapacityRun, UnderCapacityPassesAndFindsKneeAtLastWindow)
{
    scenarios::CapacityConfig cfg;
    cfg.plan = small_capacity_plan();
    SloObjective o;
    o.name = "p99-generous";
    o.series = {"zkspeed_job_latency_ms", {{"status", "ok"}}};
    o.q = 0.99;
    o.threshold = 60000.0;  // a gate nothing short of a hang can breach
    cfg.plan.objectives.push_back(o);
    cfg.frames_per_pool = 2;

    auto rep = scenarios::run_capacity(cfg);
    EXPECT_TRUE(rep.slo_ok);
    EXPECT_GT(rep.offered_total, 0u);
    EXPECT_GT(rep.completed_total, 0u);
    EXPECT_EQ(rep.errors_total, 0u);
    ASSERT_EQ(rep.windows.size(), cfg.plan.windows);
    ASSERT_TRUE(rep.knee_found);
    // Under capacity with traffic in every window, the knee is the
    // last window: nothing breached.
    EXPECT_EQ(rep.knee_window, cfg.plan.windows - 1);

    // The machine-readable report carries the whole window series.
    std::string json = rep.to_json().render(-1);
    for (const char *key :
         {"\"tool\":\"zkspeed_loadgen\"", "\"window_series\":",
          "\"knee\":", "\"slo_ok\":true", "\"qps_offered\":",
          "\"objectives\":", "\"budget_burn\":"}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
}

TEST(CapacityRun, ImpossibleSloBreachesAndReproducesAcrossRuns)
{
    scenarios::CapacityConfig cfg;
    cfg.plan = small_capacity_plan();
    cfg.plan.windows = 2;
    SloObjective o;
    o.name = "p99-impossible";
    o.series = {"zkspeed_job_latency_ms", {{"status", "ok"}}};
    o.q = 0.99;
    o.threshold = 1e-6;  // no real proof finishes in a nanosecond
    cfg.plan.objectives.push_back(o);
    cfg.frames_per_pool = 1;

    auto first = scenarios::run_capacity(cfg);
    EXPECT_FALSE(first.slo_ok);
    EXPECT_FALSE(first.knee_found);
    bool any_burn = false;
    for (const auto &w : first.windows) {
        for (const auto &v : w.verdicts) {
            if (!v.pass) {
                EXPECT_GT(v.budget_burn, 1.0);
                any_burn = true;
            }
        }
    }
    EXPECT_TRUE(any_burn);

    // Same seed, same plan: the offered traffic is identical (the
    // schedule is fully derived from the seed; completions may differ).
    auto second = scenarios::run_capacity(cfg);
    EXPECT_EQ(first.offered_total, second.offered_total);
    ASSERT_EQ(first.windows.size(), second.windows.size());
}

TEST(CapacityRun, KneeNeedsAnOkCompletion)
{
    // Every arrival is a malformed frame, so every job is rejected and
    // the status="ok" latency series gets no samples. Its objective
    // then passes vacuously, but a window where nothing completed is
    // not capacity, however fast the host.
    runtime::ProofService service(runtime::ServiceConfig{});
    loadgen::FramePool pool;
    pool.name = "malformed";
    pool.prove_frames = {{0xde, 0xad, 0xbe, 0xef}};
    Plan p;
    p.profile.kind = Profile::Kind::constant;
    p.profile.qps = 50;
    p.windows = 2;
    p.window_ms = 200;
    p.seed = kSeed;
    SloObjective o;
    o.name = "p99-generous";
    o.series = {"zkspeed_job_latency_ms", {{"status", "ok"}}};
    o.q = 0.99;
    o.threshold = 60000.0;
    p.objectives.push_back(o);

    loadgen::LoadGen generator(service, {pool}, p);
    auto rep = generator.run();
    service.shutdown();
    EXPECT_GT(rep.offered_total, 0u);
    EXPECT_EQ(rep.completed_total, 0u);
    for (const auto &w : rep.windows) EXPECT_EQ(w.completed_ok, 0u);
    EXPECT_FALSE(rep.knee_found);
}

TEST(CapacityRun, RejectsUnknownAndAdversarialMixes)
{
    scenarios::CapacityConfig cfg;
    cfg.plan = small_capacity_plan();
    cfg.plan.mix[0].family = "no-such-family";
    EXPECT_THROW(scenarios::run_capacity(cfg), PlanError);

    cfg.plan = small_capacity_plan();
    bool found_adversarial = false;
    for (const auto &f : scenarios::Registry::global().families()) {
        if (f.adversarial()) {
            cfg.plan.mix[0].family = f.name;
            found_adversarial = true;
            break;
        }
    }
    ASSERT_TRUE(found_adversarial);
    EXPECT_THROW(scenarios::run_capacity(cfg), PlanError);
}

}  // namespace
