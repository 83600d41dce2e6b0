#include "loadgen/loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <future>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include "obs/build_info.hpp"
#include "obs/log.hpp"
#include "runtime/service.hpp"

namespace zkspeed::loadgen {

namespace {

using Clock = std::chrono::steady_clock;

/** 53-bit uniform in [0, 1) from the raw generator word (the std
 * distributions are implementation-defined; this is bit-stable). */
double
uniform01(std::mt19937_64 &rng)
{
    return double(rng() >> 11) * 0x1.0p-53;
}

[[noreturn]] void
fail(const std::string &msg)
{
    throw PlanError("loadgen plan: " + msg);
}

std::string
join_keys(const std::set<std::string> &keys)
{
    std::string out;
    for (const auto &k : keys) {
        if (!out.empty()) out += ", ";
        out += k;
    }
    return out;
}

double
parse_double_value(const std::string &where, const std::string &key,
                   const std::string &value)
{
    char *end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || !std::isfinite(v)) {
        fail(where + ": key '" + key + "' wants a number, got '" + value +
             "'");
    }
    return v;
}

uint64_t
parse_u64_value(const std::string &where, const std::string &key,
                const std::string &value)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
        fail(where + ": key '" + key + "' wants an integer, got '" + value +
             "'");
    }
    return uint64_t(v);
}

/** `k:v,k:v` -> sorted LabelSet (sorted keys are the series identity). */
obs::LabelSet
parse_labels_value(const std::string &where, const std::string &key,
                   const std::string &value)
{
    obs::LabelSet out;
    std::stringstream ss(value);
    std::string pair;
    while (std::getline(ss, pair, ',')) {
        auto colon = pair.find(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 >= pair.size()) {
            fail(where + ": key '" + key + "' wants k:v[,k:v...], got '" +
                 value + "'");
        }
        out.emplace_back(pair.substr(0, colon), pair.substr(colon + 1));
    }
    std::sort(out.begin(), out.end());
    return out;
}

/** Strict rule-map check of one parsed directive line. */
void
check_keys(const std::string &where, const std::string &directive,
           const std::map<std::string, std::string> &kv)
{
    const auto &schema = plan_schema();
    const auto &known = schema.at(directive);
    for (const auto &[k, v] : kv) {
        if (known.count(k) == 0) {
            fail(where + ": unknown key '" + k + "' for directive '" +
                 directive + "' (recognised: " + join_keys(known) + ")");
        }
    }
}

const std::string &
require(const std::string &where,
        const std::map<std::string, std::string> &kv,
        const std::string &key)
{
    auto it = kv.find(key);
    if (it == kv.end()) fail(where + ": missing required key '" + key + "'");
    return it->second;
}

}  // namespace

double
Profile::qps_for_window(size_t w, size_t num_windows) const
{
    switch (kind) {
        case Kind::constant: return qps;
        case Kind::ramp: {
            if (num_windows <= 1) return qps1;
            double t = double(w) / double(num_windows - 1);
            return qps0 + (qps1 - qps0) * t;
        }
        case Kind::step: {
            if (steps <= 1 || num_windows == 0) return qps0;
            size_t plateau =
                std::min(steps - 1, w * steps / num_windows);
            return qps0 +
                   (qps1 - qps0) * double(plateau) / double(steps - 1);
        }
    }
    return qps;
}

const char *
Profile::kind_name() const
{
    switch (kind) {
        case Kind::constant: return "constant";
        case Kind::ramp: return "ramp";
        case Kind::step: return "step";
    }
    return "constant";
}

void
Plan::validate() const
{
    if (windows == 0) fail("run: windows must be >= 1");
    if (!(window_ms > 0)) fail("run: window_ms must be > 0");
    if (warmup_windows >= windows) {
        fail("run: warmup_windows must leave at least one measured window");
    }
    if (!(verify_fraction >= 0 && verify_fraction <= 1)) {
        fail("run: verify_fraction must be in [0, 1]");
    }
    if (!(profile.qps >= 0) || !(profile.qps0 >= 0) || !(profile.qps1 >= 0)) {
        fail("profile: qps levels must be >= 0");
    }
    if (profile.steps == 0) fail("profile: steps must be >= 1");
    for (const auto &m : mix) {
        if (m.family.empty()) fail("mix: family must be non-empty");
        if (!(m.weight > 0)) {
            fail("mix '" + m.family + "': weight must be > 0");
        }
    }
    for (const auto &o : objectives) {
        if (o.kind == obs::SloObjective::Kind::quantile) {
            if (!(o.q > 0 && o.q < 1)) {
                fail("slo '" + o.name + "': q must be in (0, 1)");
            }
        }
        if (!(o.threshold >= 0)) {
            fail("slo '" + o.name + "': threshold must be >= 0");
        }
    }
}

const std::map<std::string, std::set<std::string>> &
plan_schema()
{
    static const std::map<std::string, std::set<std::string>> schema = {
        {"mix", {"family", "weight", "log_size", "seed"}},
        {"profile", {"kind", "qps", "qps0", "qps1", "steps"}},
        {"run",
         {"windows", "window_ms", "warmup_windows", "seed",
          "verify_fraction"}},
        {"slo",
         {"name", "kind", "series", "labels", "q", "threshold_ms", "total",
          "total_labels", "errors", "errors_labels", "threshold"}},
    };
    return schema;
}

Plan
parse_plan(const std::string &text)
{
    Plan plan;
    std::stringstream lines(text);
    std::string line;
    size_t lineno = 0;
    while (std::getline(lines, line)) {
        ++lineno;
        if (auto hash = line.find('#'); hash != std::string::npos) {
            line.erase(hash);
        }
        std::stringstream toks(line);
        std::string directive;
        if (!(toks >> directive)) continue;  // blank / comment-only
        const std::string where = "line " + std::to_string(lineno);

        const auto &schema = plan_schema();
        if (schema.count(directive) == 0) {
            std::set<std::string> names;
            for (const auto &[d, keys] : schema) names.insert(d);
            fail(where + ": unknown directive '" + directive +
                 "' (recognised: " + join_keys(names) + ")");
        }

        std::map<std::string, std::string> kv;
        std::string tok;
        while (toks >> tok) {
            auto eq = tok.find('=');
            if (eq == std::string::npos || eq == 0) {
                fail(where + ": expected key=value, got '" + tok + "'");
            }
            std::string key = tok.substr(0, eq);
            if (!kv.emplace(key, tok.substr(eq + 1)).second) {
                fail(where + ": duplicate key '" + key + "'");
            }
        }
        check_keys(where, directive, kv);

        if (directive == "mix") {
            MixEntry m;
            m.family = require(where, kv, "family");
            if (auto it = kv.find("weight"); it != kv.end()) {
                m.weight = parse_double_value(where, "weight", it->second);
            }
            if (auto it = kv.find("log_size"); it != kv.end()) {
                m.log_size =
                    size_t(parse_u64_value(where, "log_size", it->second));
            }
            if (auto it = kv.find("seed"); it != kv.end()) {
                m.seed = parse_u64_value(where, "seed", it->second);
            }
            plan.mix.push_back(std::move(m));
        } else if (directive == "profile") {
            if (auto it = kv.find("kind"); it != kv.end()) {
                if (it->second == "constant") {
                    plan.profile.kind = Profile::Kind::constant;
                } else if (it->second == "ramp") {
                    plan.profile.kind = Profile::Kind::ramp;
                } else if (it->second == "step") {
                    plan.profile.kind = Profile::Kind::step;
                } else {
                    fail(where + ": unknown profile kind '" + it->second +
                         "' (recognised: constant, ramp, step)");
                }
            }
            if (auto it = kv.find("qps"); it != kv.end()) {
                plan.profile.qps =
                    parse_double_value(where, "qps", it->second);
            }
            if (auto it = kv.find("qps0"); it != kv.end()) {
                plan.profile.qps0 =
                    parse_double_value(where, "qps0", it->second);
            }
            if (auto it = kv.find("qps1"); it != kv.end()) {
                plan.profile.qps1 =
                    parse_double_value(where, "qps1", it->second);
            }
            if (auto it = kv.find("steps"); it != kv.end()) {
                plan.profile.steps =
                    size_t(parse_u64_value(where, "steps", it->second));
            }
        } else if (directive == "run") {
            if (auto it = kv.find("windows"); it != kv.end()) {
                plan.windows =
                    size_t(parse_u64_value(where, "windows", it->second));
            }
            if (auto it = kv.find("window_ms"); it != kv.end()) {
                plan.window_ms =
                    parse_double_value(where, "window_ms", it->second);
            }
            if (auto it = kv.find("warmup_windows"); it != kv.end()) {
                plan.warmup_windows = size_t(
                    parse_u64_value(where, "warmup_windows", it->second));
            }
            if (auto it = kv.find("seed"); it != kv.end()) {
                plan.seed = parse_u64_value(where, "seed", it->second);
            }
            if (auto it = kv.find("verify_fraction"); it != kv.end()) {
                plan.verify_fraction = parse_double_value(
                    where, "verify_fraction", it->second);
            }
        } else {  // slo
            obs::SloObjective o;
            o.name = require(where, kv, "name");
            std::string kind = "quantile";
            if (auto it = kv.find("kind"); it != kv.end()) kind = it->second;
            if (kind == "quantile") {
                o.kind = obs::SloObjective::Kind::quantile;
                o.series.name = require(where, kv, "series");
                if (auto it = kv.find("labels"); it != kv.end()) {
                    o.series.labels =
                        parse_labels_value(where, "labels", it->second);
                }
                if (auto it = kv.find("q"); it != kv.end()) {
                    o.q = parse_double_value(where, "q", it->second);
                }
                o.threshold = parse_double_value(
                    where, "threshold_ms",
                    require(where, kv, "threshold_ms"));
            } else if (kind == "error_ratio") {
                o.kind = obs::SloObjective::Kind::error_ratio;
                o.series.name = require(where, kv, "total");
                if (auto it = kv.find("total_labels"); it != kv.end()) {
                    o.series.labels = parse_labels_value(
                        where, "total_labels", it->second);
                }
                o.errors.name = require(where, kv, "errors");
                if (auto it = kv.find("errors_labels"); it != kv.end()) {
                    o.errors.labels = parse_labels_value(
                        where, "errors_labels", it->second);
                }
                o.threshold = parse_double_value(
                    where, "threshold", require(where, kv, "threshold"));
            } else {
                fail(where + ": unknown slo kind '" + kind +
                     "' (recognised: quantile, error_ratio)");
            }
            plan.objectives.push_back(std::move(o));
        }
    }
    plan.validate();
    return plan;
}

std::vector<Arrival>
build_schedule(const Plan &plan, const std::vector<double> &weights)
{
    if (weights.empty()) fail("schedule: no frame pools / weights");
    double total_weight = 0;
    std::vector<double> cumulative;
    cumulative.reserve(weights.size());
    for (double w : weights) {
        if (!(w > 0)) fail("schedule: every pool weight must be > 0");
        total_weight += w;
        cumulative.push_back(total_weight);
    }

    std::mt19937_64 rng(plan.seed * 0x9e3779b97f4a7c15ULL + 1);
    std::vector<Arrival> out;
    for (size_t w = 0; w < plan.windows; ++w) {
        double rate = plan.profile.qps_for_window(w, plan.windows);
        if (!(rate > 0)) continue;
        // Independent per-window Poisson process so ramp/step levels
        // switch exactly at the window boundary.
        double t = double(w) * plan.window_ms;
        const double end = double(w + 1) * plan.window_ms;
        for (;;) {
            double u = uniform01(rng);
            t += -std::log(1.0 - u) * 1000.0 / rate;  // exp gap, ms
            if (t >= end) break;
            Arrival a;
            a.t_ms = t;
            double pick = uniform01(rng) * total_weight;
            a.pool = uint32_t(
                std::lower_bound(cumulative.begin(), cumulative.end(),
                                 pick) -
                cumulative.begin());
            if (a.pool >= weights.size()) {
                a.pool = uint32_t(weights.size() - 1);
            }
            a.verify = uniform01(rng) < plan.verify_fraction;
            out.push_back(a);
        }
    }
    return out;
}

obs::jsonv::Value
Report::to_json() const
{
    using obs::jsonv::Value;
    Value doc = Value::object();
    doc.set("tool", Value::of("zkspeed_loadgen"));
    doc.set("build", obs::build_info_json());
    doc.set("seed", Value::of(plan.seed));
    Value profile = Value::object();
    profile.set("kind", Value::of(plan.profile.kind_name()));
    profile.set("qps", Value::of(plan.profile.qps));
    profile.set("qps0", Value::of(plan.profile.qps0));
    profile.set("qps1", Value::of(plan.profile.qps1));
    profile.set("steps", Value::of(plan.profile.steps));
    doc.set("profile", std::move(profile));
    doc.set("windows", Value::of(plan.windows));
    doc.set("window_ms", Value::of(plan.window_ms));
    doc.set("warmup_windows", Value::of(plan.warmup_windows));
    doc.set("verify_fraction", Value::of(plan.verify_fraction));

    Value mix = Value::array();
    for (const auto &m : plan.mix) {
        Value o = Value::object();
        o.set("family", Value::of(m.family));
        o.set("weight", Value::of(m.weight));
        o.set("log_size", Value::of(m.log_size));
        o.set("seed", Value::of(m.seed));
        mix.push(std::move(o));
    }
    doc.set("mix", std::move(mix));

    Value objectives = Value::array();
    for (const auto &obj : plan.objectives) {
        const bool quantile = obj.kind == obs::SloObjective::Kind::quantile;
        Value o = Value::object();
        o.set("name", Value::of(obj.name));
        o.set("kind", Value::of(quantile ? "quantile" : "error_ratio"));
        o.set("detail", Value::of(obj.describe()));
        o.set("threshold", Value::of(obj.threshold));
        if (quantile) o.set("q", Value::of(obj.q));
        objectives.push(std::move(o));
    }
    doc.set("objectives", std::move(objectives));

    Value series = Value::array();
    for (const auto &w : windows) {
        Value o = Value::object();
        o.set("index", Value::of(w.index));
        o.set("start_s", Value::of(w.start_s));
        o.set("dur_s", Value::of(w.dur_s));
        o.set("qps_target", Value::of(w.qps_target));
        o.set("qps_offered", Value::of(w.qps_offered));
        o.set("qps_achieved", Value::of(w.qps_achieved));
        o.set("offered", Value::of(w.offered));
        o.set("completed_ok", Value::of(w.completed_ok));
        o.set("errors", Value::of(w.errors));
        o.set("shed", Value::of(w.shed));
        o.set("errors_per_s", Value::of(w.errors_per_s));
        o.set("p50_ms", Value::of(w.p50_ms));
        o.set("p90_ms", Value::of(w.p90_ms));
        o.set("p99_ms", Value::of(w.p99_ms));
        o.set("p999_ms", Value::of(w.p999_ms));
        o.set("counter_resets", Value::of(w.counter_resets));
        o.set("slo_ok", Value::of(w.slo_ok));
        Value verdicts = Value::array();
        for (const auto &v : w.verdicts) {
            Value verdict = Value::object();
            verdict.set("objective", Value::of(v.objective));
            verdict.set("pass", Value::of(v.pass));
            verdict.set("value", Value::of(v.value));
            verdict.set("threshold", Value::of(v.threshold));
            verdict.set("budget_burn", Value::of(v.budget_burn));
            verdict.set("samples", Value::of(v.samples));
            verdicts.push(std::move(verdict));
        }
        o.set("verdicts", std::move(verdicts));
        series.push(std::move(o));
    }
    doc.set("window_series", std::move(series));

    Value totals = Value::object();
    totals.set("offered", Value::of(offered_total));
    totals.set("completed", Value::of(completed_total));
    totals.set("errors", Value::of(errors_total));
    totals.set("shed", Value::of(shed_total));
    totals.set("offered_qps", Value::of(offered_qps));
    totals.set("achieved_qps", Value::of(achieved_qps));
    doc.set("totals", std::move(totals));

    Value knee = Value::object();
    knee.set("found", Value::of(knee_found));
    knee.set("window", Value::of(knee_window));
    knee.set("qps_offered", Value::of(knee_qps_offered));
    knee.set("qps_achieved", Value::of(knee_qps_achieved));
    doc.set("knee", std::move(knee));

    doc.set("slo_ok", Value::of(slo_ok));
    return doc;
}

LoadGen::LoadGen(runtime::ProofService &service,
                 std::vector<FramePool> pools, Plan plan)
    : service_(service), pools_(std::move(pools)), plan_(std::move(plan))
{
}

Report
LoadGen::run(std::FILE *stream)
{
    plan_.validate();
    if (pools_.empty()) fail("run: no frame pools");
    for (const auto &p : pools_) {
        if (p.prove_frames.empty()) {
            fail("run: pool '" + p.name + "' has no prove frames");
        }
        if (!(p.weight > 0)) {
            fail("run: pool '" + p.name + "' weight must be > 0");
        }
    }

    auto &reg = obs::MetricsRegistry::global();
    const std::string svc = service_.instance_label();
    const obs::LabelSet svc_labels = {{"service", svc}};
    const obs::MetricId offered_id =
        reg.counter("zkspeed_loadgen_offered_total", svc_labels,
                    "Load-generator arrivals issued (submitted or shed)");
    const obs::MetricId shed_id = reg.counter(
        "zkspeed_loadgen_shed_total", svc_labels,
        "Load-generator arrivals dropped by queue backpressure");
    const obs::MetricId target_id =
        reg.gauge("zkspeed_loadgen_target_qps", svc_labels,
                  "Offered-load target of the current window");

    std::vector<double> weights;
    weights.reserve(pools_.size());
    for (const auto &p : pools_) weights.push_back(p.weight);
    const std::vector<Arrival> schedule = build_schedule(plan_, weights);
    const obs::SloEvaluator evaluator(plan_.objectives);

    // The per-window latency / error deltas come from the service's own
    // job series, scoped to this instance.
    const obs::SeriesSelector ok_sel{
        "zkspeed_job_latency_ms",
        {{"service", svc}, {"status", "ok"}}};
    const obs::SeriesSelector all_sel{"zkspeed_job_latency_ms",
                                      {{"service", svc}}};

    // Collector thread: harvests response futures off the submit path
    // so a slow completion never delays the next arrival.
    std::mutex fut_mu;
    std::condition_variable fut_cv;
    std::deque<std::future<runtime::JobResponse>> futures;
    bool submit_done = false;
    std::atomic<uint64_t> completed_ok{0}, completed_err{0};
    std::thread collector([&] {
        for (;;) {
            std::future<runtime::JobResponse> f;
            {
                std::unique_lock<std::mutex> lk(fut_mu);
                fut_cv.wait(lk, [&] {
                    return submit_done || !futures.empty();
                });
                if (futures.empty()) return;  // submit_done and drained
                f = std::move(futures.front());
                futures.pop_front();
            }
            runtime::JobResponse resp = f.get();
            if (resp.ok()) {
                completed_ok.fetch_add(1, std::memory_order_relaxed);
            } else {
                completed_err.fetch_add(1, std::memory_order_relaxed);
            }
        }
    });

    Report rep;
    rep.plan = plan_;
    std::vector<size_t> prove_cursor(pools_.size(), 0);
    std::vector<size_t> verify_cursor(pools_.size(), 0);
    uint64_t shed = 0;
    size_t next_arrival = 0;

    const auto t0 = Clock::now();
    auto to_tp = [&](double ms) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(ms));
    };

    obs::Snapshot prev_snap = reg.snapshot();
    auto prev_time = t0;

    for (size_t w = 0; w < plan_.windows; ++w) {
        const double target =
            plan_.profile.qps_for_window(w, plan_.windows);
        reg.set(target_id, target);
        const auto window_end = to_tp(double(w + 1) * plan_.window_ms);
        uint64_t offered_w = 0;
        const uint64_t shed_before = shed;

        for (;;) {
            const auto now = Clock::now();
            if (now >= window_end) break;
            if (next_arrival < schedule.size()) {
                const Arrival &ar = schedule[next_arrival];
                const auto due = to_tp(ar.t_ms);
                if (due <= now) {
                    FramePool &pool = pools_[ar.pool];
                    const bool verify =
                        ar.verify && !pool.verify_frames.empty();
                    const auto &src = verify ? pool.verify_frames
                                             : pool.prove_frames;
                    auto &cursor = verify ? verify_cursor[ar.pool]
                                          : prove_cursor[ar.pool];
                    const auto &frame = src[cursor++ % src.size()];
                    ++next_arrival;
                    ++offered_w;
                    reg.add(offered_id);
                    auto fut = service_.try_submit(frame);
                    if (!fut) {
                        ++shed;
                        reg.add(shed_id);
                        continue;
                    }
                    {
                        std::lock_guard<std::mutex> lk(fut_mu);
                        futures.push_back(std::move(*fut));
                    }
                    fut_cv.notify_one();
                    continue;
                }
                std::this_thread::sleep_until(std::min(due, window_end));
                continue;
            }
            std::this_thread::sleep_until(window_end);
        }

        const auto snap_time = Clock::now();
        obs::Snapshot snap = reg.snapshot();
        const double dur_s =
            std::chrono::duration<double>(snap_time - prev_time).count();
        const auto delta =
            obs::WindowDelta::between(snap, prev_snap, dur_s);
        prev_snap = std::move(snap);
        prev_time = snap_time;

        WindowReport wr;
        wr.index = w;
        wr.start_s = double(w) * plan_.window_ms / 1000.0;
        wr.dur_s = dur_s;
        wr.qps_target = target;
        wr.offered = offered_w;
        wr.shed = shed - shed_before;
        wr.completed_ok = delta.total(ok_sel);
        const uint64_t all = delta.total(all_sel);
        wr.errors = all > wr.completed_ok ? all - wr.completed_ok : 0;
        if (dur_s > 0) {
            wr.qps_offered = double(offered_w) / dur_s;
            wr.qps_achieved = double(wr.completed_ok) / dur_s;
            wr.errors_per_s = double(wr.errors) / dur_s;
        }
        const auto hist = delta.merged_histogram(ok_sel);
        if (hist.count > 0) {
            wr.p50_ms = hist.quantile(0.50);
            wr.p90_ms = hist.quantile(0.90);
            wr.p99_ms = hist.quantile(0.99);
            wr.p999_ms = hist.quantile(0.999);
        }
        wr.counter_resets = delta.counter_resets;
        wr.verdicts = evaluator.evaluate(delta);
        wr.slo_ok = obs::SloEvaluator::all_pass(wr.verdicts);

        {
            std::string failing;
            for (const auto &v : wr.verdicts) {
                if (v.pass) continue;
                failing += failing.empty() ? " FAIL[" : ",";
                failing += v.objective;
            }
            if (!failing.empty()) failing += "]";
            char line[256];
            std::snprintf(
                line, sizeof(line),
                "[loadgen %s] w%02zu target=%.1fqps offered=%.1f "
                "achieved=%.1f p50=%.2fms p99=%.2fms err/s=%.2f "
                "shed=%llu SLO=%s%s",
                svc.c_str(), w, target, wr.qps_offered, wr.qps_achieved,
                wr.p50_ms, wr.p99_ms, wr.errors_per_s,
                (unsigned long long)wr.shed, wr.slo_ok ? "ok" : "BREACH",
                failing.c_str());
            // Same line to the console stream and the structured ring,
            // so a crash's flight snapshot carries the recent windows.
            if (stream != nullptr) {
                std::fprintf(stream, "%s\n", line);
                std::fflush(stream);
            }
            obs::log_event(wr.slo_ok ? obs::LogLevel::info
                                     : obs::LogLevel::warn,
                           "loadgen", line);
        }
        rep.windows.push_back(std::move(wr));
    }

    // Drain: wake the collector, let it empty the deque, join.
    {
        std::lock_guard<std::mutex> lk(fut_mu);
        submit_done = true;
    }
    fut_cv.notify_all();
    collector.join();

    rep.offered_total = next_arrival;
    rep.completed_total = completed_ok.load();
    rep.errors_total = completed_err.load();
    rep.shed_total = shed;
    const double run_s =
        double(plan_.windows) * plan_.window_ms / 1000.0;
    if (run_s > 0) {
        rep.offered_qps = double(rep.offered_total) / run_s;
        rep.achieved_qps = double(rep.completed_total) / run_s;
    }

    rep.slo_ok = true;
    for (const auto &w : rep.windows) {
        if (w.index < plan_.warmup_windows) continue;
        if (!w.slo_ok) rep.slo_ok = false;
        if (w.offered > 0 && w.slo_ok) {
            rep.knee_found = true;
            rep.knee_window = w.index;
            rep.knee_qps_offered = w.qps_offered;
            rep.knee_qps_achieved = w.qps_achieved;
        }
    }
    return rep;
}

}  // namespace zkspeed::loadgen
