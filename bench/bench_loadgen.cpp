/**
 * @file
 * Closed-loop capacity bench: replays a seeded open-loop traffic mix
 * against one ProofService and reports windowed latency percentiles,
 * SLO verdicts and the knee-of-curve capacity estimate.
 *
 * Two modes:
 *   --mode smoke  constant offered load well under capacity; every
 *                 window must meet the plan's SLOs. Exit status is the
 *                 SLO verdict (CI runs this as a gate).
 *   --mode ramp   monotone offered-QPS sweep from --qps0 to --qps1; the
 *                 report pinpoints the capacity knee (last window whose
 *                 verdicts all pass). Breaching above the knee is the
 *                 point, so ramp mode exits 0 unless --enforce is given.
 *
 * The plan is assembled as loadgen plan text and run through
 * `loadgen::parse_plan`, so this bench exercises the same strict
 * rule-map validation path as user-authored plans (DESIGN.md §11).
 *
 * Usage: bench_loadgen [--quick] [--mode smoke|ramp] [--qps X]
 *                      [--qps0 X] [--qps1 Y] [--windows N]
 *                      [--window-ms M] [--seed S] [--enforce]
 *                      [--json PATH] [--report PATH]
 * `--json` writes BENCH_loadgen.json; `--report` writes the full
 * per-window SLO_report.json.
 */
#include <cstdio>
#include <cstring>
#include <string>

#include "obs/export.hpp"  // write_file
#include "report.hpp"
#include "scenarios/harness.hpp"

namespace {

using namespace zkspeed;

std::string
fmt_num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

}  // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    bool enforce = false;
    bool enforce_set = false;
    std::string mode = "smoke";
    double qps = -1, qps0 = -1, qps1 = -1, window_ms = -1;
    long windows = -1, seed = -1;
    const char *json_path = nullptr;
    const char *report_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--quick")) {
            quick = true;
        } else if (!std::strcmp(argv[i], "--mode") && i + 1 < argc) {
            mode = argv[++i];
        } else if (!std::strcmp(argv[i], "--qps") && i + 1 < argc) {
            qps = std::atof(argv[++i]);
        } else if (!std::strcmp(argv[i], "--qps0") && i + 1 < argc) {
            qps0 = std::atof(argv[++i]);
        } else if (!std::strcmp(argv[i], "--qps1") && i + 1 < argc) {
            qps1 = std::atof(argv[++i]);
        } else if (!std::strcmp(argv[i], "--windows") && i + 1 < argc) {
            windows = std::atol(argv[++i]);
        } else if (!std::strcmp(argv[i], "--window-ms") && i + 1 < argc) {
            window_ms = std::atof(argv[++i]);
        } else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
            seed = std::atol(argv[++i]);
        } else if (!std::strcmp(argv[i], "--enforce")) {
            enforce = true;
            enforce_set = true;
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            json_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--report") && i + 1 < argc) {
            report_path = argv[++i];
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return 2;
        }
    }
    if (mode != "smoke" && mode != "ramp") {
        std::fprintf(stderr, "--mode wants smoke or ramp, got %s\n",
                     mode.c_str());
        return 2;
    }
    const bool smoke = mode == "smoke";
    if (!enforce_set) enforce = smoke;

    // Defaults: the smoke plan offers a few QPS of small honest proofs
    // against a generous p99 bound (a gate, not a measurement); the
    // ramp plan sweeps far past one worker's capacity so the knee and
    // the breach above it are both visible.
    if (qps < 0) qps = 3;
    if (qps0 < 0) qps0 = 2;
    if (qps1 < 0) qps1 = quick ? 32 : 48;
    if (windows < 0) windows = smoke ? (quick ? 4 : 6) : (quick ? 6 : 10);
    if (window_ms < 0) window_ms = quick ? 400 : 500;
    if (seed < 0) seed = 42;

    std::string plan_text;
    plan_text +=
        "mix family=rescue-chain weight=3 log_size=4 seed=11\n"
        "mix family=range-bank weight=1 log_size=4 seed=23\n";
    if (smoke) {
        plan_text += "profile kind=constant qps=" + fmt_num(qps) + "\n";
    } else {
        plan_text += "profile kind=ramp qps0=" + fmt_num(qps0) +
                     " qps1=" + fmt_num(qps1) + "\n";
    }
    plan_text += "run windows=" + std::to_string(windows) +
                 " window_ms=" + fmt_num(window_ms) +
                 " warmup_windows=1 seed=" + std::to_string(seed) +
                 " verify_fraction=0.25\n";
    plan_text += "slo name=latency-p99 kind=quantile "
                 "series=zkspeed_job_latency_ms labels=status:ok q=0.99 "
                 "threshold_ms=";
    plan_text += smoke ? "1500" : "250";
    plan_text += "\n";
    plan_text += "slo name=shed-ratio kind=error_ratio "
                 "total=zkspeed_loadgen_offered_total "
                 "errors=zkspeed_loadgen_shed_total threshold=";
    plan_text += smoke ? "0.05" : "0.01";
    plan_text += "\n";

    scenarios::CapacityConfig cfg;
    cfg.stream = stdout;
    try {
        cfg.plan = loadgen::parse_plan(plan_text);
    } catch (const loadgen::PlanError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    bench::title(smoke ? "Capacity smoke (constant offered load)"
                       : "Capacity ramp (offered-QPS sweep)");
    std::printf("%s", plan_text.c_str());
    std::printf("---\n");

    loadgen::Report rep;
    try {
        rep = scenarios::run_capacity(cfg);
    } catch (const loadgen::PlanError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    bench::title("Windowed percentiles and SLO verdicts");
    bench::Table t({{"Window", 8}, {"Target", 8}, {"Offered", 9},
                    {"Achieved", 10}, {"p50 (ms)", 10}, {"p99 (ms)", 10},
                    {"Shed", 6}, {"SLO", 8}});
    for (const auto &w : rep.windows) {
        t.row({bench::fmt_int(w.index), bench::fmt(w.qps_target, 1),
               bench::fmt(w.qps_offered, 1), bench::fmt(w.qps_achieved, 1),
               bench::fmt(w.p50_ms, 2), bench::fmt(w.p99_ms, 2),
               bench::fmt_int(w.shed), w.slo_ok ? "ok" : "BREACH"});
    }
    std::printf("offered %.1f qps, achieved %.1f qps over %zu windows "
                "(%llu shed, %llu errors)\n",
                rep.offered_qps, rep.achieved_qps, rep.windows.size(),
                (unsigned long long)rep.shed_total,
                (unsigned long long)rep.errors_total);
    if (rep.knee_found) {
        std::printf("capacity knee: window %zu, %.1f qps offered / %.1f "
                    "qps achieved (last window meeting every SLO)\n",
                    rep.knee_window, rep.knee_qps_offered,
                    rep.knee_qps_achieved);
    } else {
        std::printf("capacity knee: not found (no post-warmup window met "
                    "every SLO)\n");
    }
    std::printf("run SLO verdict: %s\n", rep.slo_ok ? "ok" : "BREACH");

    if (report_path != nullptr) {
        if (!obs::write_file(report_path, rep.to_json().render(-1))) {
            return 2;
        }
        std::printf("wrote %s\n", report_path);
    }
    if (json_path != nullptr) {
        using obs::jsonv::Value;
        Value metrics = Value::object();
        metrics.set("mode", Value::of(mode));
        metrics.set("seed", Value::of(int64_t(seed)));
        metrics.set("windows", Value::of(uint64_t(rep.windows.size())));
        metrics.set("window_ms", Value::of(window_ms));
        metrics.set("offered_total", Value::of(uint64_t(rep.offered_total)));
        metrics.set("completed_total",
                    Value::of(uint64_t(rep.completed_total)));
        metrics.set("errors_total", Value::of(uint64_t(rep.errors_total)));
        metrics.set("shed_total", Value::of(uint64_t(rep.shed_total)));
        metrics.set("offered_qps", Value::of(rep.offered_qps));
        metrics.set("achieved_qps", Value::of(rep.achieved_qps));
        Value knee = Value::object();
        knee.set("found", Value::of(rep.knee_found));
        knee.set("window", Value::of(uint64_t(rep.knee_window)));
        knee.set("qps_offered", Value::of(rep.knee_qps_offered));
        knee.set("qps_achieved", Value::of(rep.knee_qps_achieved));
        metrics.set("knee", std::move(knee));
        metrics.set("slo_ok", Value::of(rep.slo_ok));
        std::vector<bench::Gate> gates;
        if (enforce) {
            gates.push_back({"slo_ok", rep.slo_ok,
                             "every post-warmup window met its SLO"});
        }
        if (!bench::write_unified_report(json_path, "loadgen",
                                         std::move(metrics), gates)) {
            std::fprintf(stderr, "cannot write %s\n", json_path);
            return 2;
        }
        std::printf("wrote %s\n", json_path);
    }

    if (enforce && !rep.slo_ok) {
        std::fprintf(stderr, "FAILED: SLO breach under %s load\n",
                     mode.c_str());
        return 1;
    }
    return 0;
}
