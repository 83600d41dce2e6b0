/**
 * @file
 * Batch proving service throughput: proofs/sec vs worker count and
 * batch size, plus the telemetry overhead gate.
 *
 * Each configuration proves a batch of small-circuit jobs (a few
 * distinct shapes, repeated, so the key cache behaves as in serving)
 * and reports wall-clock throughput, speedup over the 1-worker run,
 * latency percentiles straight from the obs registry histograms and
 * cache hit rate. The worker pool splits a fixed kernel-thread budget
 * (two-level parallelism), so worker counts compete for the same
 * hardware rather than oversubscribing it — scaling therefore tracks
 * physical cores; on a single-core host the sweep degenerates to ~1x
 * by construction.
 *
 * The final section measures instrumentation cost: the same fixed
 * batch is proven with telemetry on (`obs::set_enabled(true)`) and off,
 * interleaved over `--reps` repetitions, and the min-of-reps walls are
 * compared. Exit status is non-zero when the observed overhead exceeds
 * the 5% budget DESIGN.md §10 commits to — CI runs this as a gate.
 *
 * Usage: bench_runtime_throughput [--quick] [--reps N] [--json PATH]
 * `--json` writes the machine-readable BENCH_runtime.json summary.
 */
#include <algorithm>
#include <cstring>
#include <random>
#include <thread>

#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "report.hpp"
#include "runtime/service.hpp"
#include "sim/replay.hpp"

namespace {

using namespace zkspeed;
using namespace zkspeed::runtime;

/** Encoded batch: `batch` jobs cycling over `distinct` circuit shapes. */
std::vector<std::vector<uint8_t>>
make_batch(size_t batch, size_t distinct, size_t mu)
{
    std::vector<JobRequest> shapes;
    for (size_t c = 0; c < distinct; ++c) {
        std::mt19937_64 rng(9000 + c);
        auto [index, wit] = hyperplonk::random_circuit(mu, rng);
        JobRequest req;
        req.circuit = std::move(index);
        req.witness = std::move(wit);
        shapes.push_back(std::move(req));
    }
    std::vector<std::vector<uint8_t>> frames;
    for (size_t i = 0; i < batch; ++i) {
        JobRequest &req = shapes[i % distinct];
        req.request_id = i + 1;
        frames.push_back(wire::encode_request(req));
    }
    return frames;
}

struct RunResult {
    double wall_ms = 0;
    double proofs_per_s = 0;
    double mean_latency_ms = 0;
    double p50_ms = 0, p95_ms = 0, p99_ms = 0;
    double cache_hit_rate = 0;
    std::vector<TraceEntry> trace;
};

RunResult
run_batch(const std::vector<std::vector<uint8_t>> &frames, size_t workers,
          size_t total_parallelism)
{
    ServiceConfig cfg;
    cfg.num_workers = workers;
    cfg.total_parallelism = total_parallelism;
    cfg.queue_capacity = frames.size();
    auto t0 = std::chrono::steady_clock::now();
    RunResult res;
    {
        ProofService service(cfg);
        std::vector<std::future<JobResponse>> futures;
        for (const auto &frame : frames) {
            futures.push_back(service.submit(frame));
        }
        for (auto &f : futures) {
            auto resp = f.get();
            if (!resp.ok()) {
                std::fprintf(stderr, "job failed: %s\n", resp.error.c_str());
                std::exit(1);
            }
        }
        res.wall_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        res.cache_hit_rate = service.cache_stats().hit_rate();
        res.trace = service.trace();
        // Latency mean and percentiles come from this instance's
        // registry histogram (percentiles within ±4.4% bucket error;
        // zeros when telemetry is off).
        auto snap = obs::MetricsRegistry::global().snapshot();
        const auto *lat = snap.find(
            "zkspeed_job_latency_ms",
            {{"class", "prove"},
             {"service", service.instance_label()},
             {"status", "ok"}});
        if (lat != nullptr && lat->hist.count > 0) {
            res.mean_latency_ms = lat->hist.sum / double(lat->hist.count);
            res.p50_ms = lat->hist.quantile(0.50);
            res.p95_ms = lat->hist.quantile(0.95);
            res.p99_ms = lat->hist.quantile(0.99);
        }
    }
    res.proofs_per_s = 1000.0 * double(frames.size()) / res.wall_ms;
    return res;
}

}  // namespace

int
main(int argc, char **argv)
{
    size_t reps = 5;
    bool quick = false;
    const char *json_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--reps") && i + 1 < argc) {
            reps = size_t(std::max(1, std::atoi(argv[++i])));
        } else if (!std::strcmp(argv[i], "--quick")) {
            quick = true;
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            json_path = argv[++i];
        }
    }

    size_t cores = std::max(1u, std::thread::hardware_concurrency());
    bench::title("Batch proving service throughput");
    std::printf("host: %zu hardware thread(s); kernel budget fixed at "
                "%zu across all runs\n", cores, cores);

    // --- Sweep 1: worker count at a fixed batch --------------------------
    const size_t kBatch = quick ? 6 : 8, kDistinct = 2, kMu = 5;
    auto frames = make_batch(kBatch, kDistinct, kMu);

    bench::Table t({{"Workers", 9}, {"Batch", 7}, {"Wall (ms)", 11},
                    {"Proofs/s", 10}, {"Speedup", 9}, {"p50 (ms)", 10},
                    {"p99 (ms)", 10}, {"Cache hit", 10}});
    double base_pps = 0;
    RunResult last;
    for (size_t workers : {size_t(1), size_t(2), size_t(4)}) {
        auto res = run_batch(frames, workers, cores);
        if (workers == 1) base_pps = res.proofs_per_s;
        t.row({bench::fmt_int(workers), bench::fmt_int(kBatch),
               bench::fmt(res.wall_ms, 1), bench::fmt(res.proofs_per_s, 1),
               bench::fmt(res.proofs_per_s / base_pps, 2) + "x",
               bench::fmt(res.p50_ms, 1), bench::fmt(res.p99_ms, 1),
               bench::fmt(100.0 * res.cache_hit_rate, 0) + "%"});
        last = std::move(res);
    }

    // --- Sweep 2: batch size at 4 workers --------------------------------
    if (!quick) {
        bench::title("Batch size scaling (4 workers)");
        bench::Table t2({{"Batch", 7}, {"Wall (ms)", 11}, {"Proofs/s", 10},
                         {"p50 (ms)", 10}, {"p99 (ms)", 10},
                         {"Cache hit", 10}});
        for (size_t batch : {size_t(4), size_t(8), size_t(16)}) {
            auto res = run_batch(make_batch(batch, kDistinct, kMu), 4, cores);
            t2.row({bench::fmt_int(batch), bench::fmt(res.wall_ms, 1),
                    bench::fmt(res.proofs_per_s, 1),
                    bench::fmt(res.p50_ms, 1), bench::fmt(res.p99_ms, 1),
                    bench::fmt(100.0 * res.cache_hit_rate, 0) + "%"});
        }
    }

    // --- Replay the last trace on the paper's accelerator ----------------
    bench::title("Same stream on zkSpeed (sim replay)");
    auto report =
        sim::replay_trace(last.trace, sim::DesignConfig::paper_default());
    bench::Table t3({{"Prover", 22}, {"Busy (ms)", 12}, {"Proofs/s", 12}});
    t3.row({"software", bench::fmt(report.sw_total_ms, 1),
            bench::fmt(report.sw_jobs_per_s, 1)});
    t3.row({"zkSpeed (366 mm^2)", bench::fmt(report.chip_total_ms, 3),
            bench::fmt(report.chip_jobs_per_s, 1)});
    std::printf("accelerator speedup on this stream: %.0fx\n",
                report.speedup);

    // --- Telemetry overhead gate -----------------------------------------
    // Interleave on/off repetitions (drift hits both modes equally) and
    // compare min-of-reps walls: min damps scheduler noise, which at
    // these run lengths routinely exceeds the effect being measured.
    bench::title("Telemetry overhead (instrumentation on vs off)");
    const size_t kGateWorkers = std::min<size_t>(2, cores);
    const double kBudgetPct = 5.0;
    // The budget must hold with the live scrape plane up, not just the
    // record paths: keep an ephemeral HTTP server running for the whole
    // gate (idle acceptor + handler pool, like a production sidecar).
    auto http = obs::HttpServer::start();
    if (http != nullptr) {
        std::printf("telemetry HTTP server on 127.0.0.1:%u for the "
                    "gate\n",
                    unsigned(http->port()));
    }
    run_batch(frames, kGateWorkers, cores);  // warm-up (ff tables, ...)
    double min_on = 0, min_off = 0;
    RunResult best_on;
    for (size_t r = 0; r < reps; ++r) {
        obs::set_enabled(false);
        auto off = run_batch(frames, kGateWorkers, cores);
        obs::set_enabled(true);
        auto on = run_batch(frames, kGateWorkers, cores);
        if (r == 0 || off.wall_ms < min_off) min_off = off.wall_ms;
        if (r == 0 || on.wall_ms < min_on) {
            min_on = on.wall_ms;
            best_on = std::move(on);
        }
    }
    double overhead_pct = 100.0 * (min_on - min_off) / min_off;
    bool within_budget = overhead_pct < kBudgetPct;
    std::printf("%zu jobs x %zu reps, %zu workers: "
                "on %.1f ms, off %.1f ms -> overhead %+.2f%% "
                "(budget <%.0f%%) %s\n",
                kBatch, reps, kGateWorkers, min_on, min_off, overhead_pct,
                kBudgetPct, within_budget ? "OK" : "FAILED");
    std::printf("instrumented latency (registry, +/-4.4%% bucket error): "
                "p50 %.1f ms, p95 %.1f ms, p99 %.1f ms\n",
                best_on.p50_ms, best_on.p95_ms, best_on.p99_ms);

    if (json_path != nullptr) {
        using obs::jsonv::Value;
        Value metrics = Value::object();
        metrics.set("batch", Value::of(uint64_t(kBatch)));
        metrics.set("mu", Value::of(uint64_t(kMu)));
        metrics.set("workers", Value::of(uint64_t(kGateWorkers)));
        metrics.set("reps", Value::of(uint64_t(reps)));
        Value inst = Value::object();
        inst.set("wall_ms_min", Value::of(min_on));
        inst.set("proofs_per_s",
                 Value::of(1000.0 * double(kBatch) / min_on));
        inst.set("p50_ms", Value::of(best_on.p50_ms));
        inst.set("p95_ms", Value::of(best_on.p95_ms));
        inst.set("p99_ms", Value::of(best_on.p99_ms));
        inst.set("mean_latency_ms", Value::of(best_on.mean_latency_ms));
        metrics.set("instrumented", std::move(inst));
        Value uninst = Value::object();
        uninst.set("wall_ms_min", Value::of(min_off));
        uninst.set("proofs_per_s",
                   Value::of(1000.0 * double(kBatch) / min_off));
        metrics.set("uninstrumented", std::move(uninst));
        metrics.set("percentile_max_relative_error",
                    Value::of(obs::HistogramBuckets::kMaxRelativeError));
        metrics.set("overhead_pct", Value::of(overhead_pct));
        metrics.set("overhead_budget_pct", Value::of(kBudgetPct));
        metrics.set("within_overhead_budget", Value::of(within_budget));
        metrics.set("http_port",
                    Value::of(uint64_t(http != nullptr ? http->port()
                                                       : 0)));
        char detail[128];
        std::snprintf(detail, sizeof(detail),
                      "overhead %+.2f%% (budget <%.0f%%)", overhead_pct,
                      kBudgetPct);
        if (!bench::write_unified_report(
                json_path, "runtime_throughput", std::move(metrics),
                {{"telemetry_overhead_under_budget", within_budget,
                  detail}})) {
            std::fprintf(stderr, "cannot write %s\n", json_path);
            return 2;
        }
        std::printf("wrote %s\n", json_path);
    }

    if (!within_budget) {
        std::fprintf(stderr,
                     "FAILED: telemetry overhead %.2f%% exceeds the "
                     "%.0f%% budget\n",
                     overhead_pct, kBudgetPct);
        return 1;
    }
    return 0;
}
