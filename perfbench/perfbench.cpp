/**
 * Service benchmark for the HyperPlonk proving service.
 *
 * Three workloads drive runtime::ProofService through its public
 * submit() from one client thread, as closed loops (each caller waits
 * for its answer before it sends the next request):
 *
 *   prove-small   PROVE jobs on 12 circuits of 2^5..2^8 gates,
 *                 4 workers x 1 kernel thread, 4 requests in flight.
 *   prove-large   PROVE jobs on a dense and a sparse 2^12-gate circuit,
 *                 1 worker x 4 kernel threads, 1 request in flight.
 *   verify-batch  VERIFY jobs on the prove-small proofs, 4 workers,
 *                 batch size 16, 32 requests in flight.
 *
 * Every input is generated from --seed through scenarios::Registry and
 * encoded to wire frames before timing starts. With --trace 0 the run
 * prints the end-to-end metrics; with --trace 1 it repeats the measured
 * phase with the benchmark's own spans on and sweeps the public
 * functions of each layer, printing the per-layer metrics. The last
 * stdout line is one JSON object; perfbench/METRICS.md defines every
 * metric.
 *
 * Usage: perfbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> [--spans-out <path>]
 */
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "curve/msm.hpp"
#include "ff/counters.hpp"
#include "ff/parallel.hpp"
#include "hyperplonk/prover.hpp"
#include "hyperplonk/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pcs/mkzg.hpp"
#include "runtime/key_cache.hpp"
#include "runtime/service.hpp"
#include "runtime/wire.hpp"
#include "scenarios/registry.hpp"
#include "sim/replay.hpp"
#include "verify/batch_verifier.hpp"

namespace {

using namespace zkspeed;
using Clock = std::chrono::steady_clock;
using runtime::JobResponse;

double
ms_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
ms_since(Clock::time_point t0)
{
    return ms_between(t0, Clock::now());
}

uint64_t
splitmix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Linear-interpolated quantile of an unsorted sample (q in [0, 1]). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Process CPU time (user + system), seconds. */
double
process_cpu_s()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/** Keeps computed results observable so timed loops are not elided. */
volatile bool g_sink = false;

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------
// Benchmark spans: on only in the traced phase and the layer sweep.
// ---------------------------------------------------------------------

bool g_bench_spans = false;
constexpr const char *kBenchCategory = "bench";

/** A span in the benchmark's own category, inert while spans are off. */
class BenchSpan
{
  public:
    explicit BenchSpan(const char *name)
    {
        if (g_bench_spans) span_.emplace(name, kBenchCategory);
    }

  private:
    std::optional<obs::Span> span_;
};

// ---------------------------------------------------------------------
// Workloads and their inputs.
// ---------------------------------------------------------------------

struct Workload {
    std::string name;
    bool verify = false;  ///< VERIFY jobs (else PROVE jobs)
    runtime::ServiceConfig cfg;
    size_t in_flight = 1;
    /** (family, log2 gates, seeds) of the distinct circuits. */
    struct Family {
        const char *name;
        size_t log_size;
        size_t seeds;
        size_t weight;  ///< requests per traffic round, per circuit
    };
    std::vector<Family> families;
    size_t setup_reps = 0;
};

std::optional<Workload>
make_workload(const std::string &name)
{
    Workload w;
    w.name = name;
    w.cfg.total_parallelism = 4;
    if (name == "prove-small" || name == "verify-batch") {
        w.cfg.num_workers = 4;
        for (const char *fam :
             {"rescue-chain", "sparse-arithmetic", "range-via-lookup"}) {
            w.families.push_back({fam, 5, 2, 1});
            w.families.push_back({fam, 8, 2, 1});
        }
        if (name == "prove-small") {
            w.in_flight = 4;
        } else {
            w.verify = true;
            w.in_flight = 32;
            w.cfg.verify_batch_size = 16;
            // Sixteen parks take ~170 ms on 4 cores, so the shipped
            // 25 ms window would flush most batches on its timer; a
            // 500 ms window leaves the flush to the batch size.
            w.cfg.verify_batch_window_ms = 500;
        }
        w.setup_reps = 7;
        return w;
    }
    if (name == "prove-large") {
        w.cfg.num_workers = 1;
        w.in_flight = 1;
        // Two sparse proofs per dense one: the job p50 falls inside the
        // sparse mode and the p90 inside the dense mode, so neither
        // percentile sits on the gap between the two latency modes.
        w.families.push_back({"dense-arithmetic", 12, 1, 1});
        w.families.push_back({"sparse-arithmetic", 12, 1, 2});
        w.setup_reps = 5;
        return w;
    }
    return std::nullopt;
}

struct Circuit {
    scenarios::Instance inst;
    size_t weight = 1;
    std::vector<ff::Fr> publics;
    std::vector<uint8_t> prove_frame;
    /** Client-side keys (same SRS seed as the service). */
    runtime::KeyCache::Keys keys;
    std::vector<uint8_t> vk_bytes;
    /** Filled from the first set-up (proof bytes are deterministic). */
    std::vector<uint8_t> proof;
    std::vector<uint8_t> verify_frame;
    /** Exact modmuls of proving this circuit (first service answer). */
    uint64_t modmul_fr = 0, modmul_fq = 0;
};

std::vector<Circuit>
make_circuits(const Workload &w, uint64_t seed, runtime::KeyCache &client)
{
    const auto &reg = scenarios::Registry::global();
    std::vector<Circuit> out;
    uint64_t draw = 0;
    for (const auto &f : w.families) {
        for (size_t s = 0; s < f.seeds; ++s) {
            scenarios::Spec spec;
            spec.name = f.name;
            spec.log_size = f.log_size;
            spec.seed = splitmix(seed * 1000003ULL + draw++);
            Circuit c;
            c.inst = reg.build(spec);
            c.weight = f.weight;
            c.publics = c.inst.witness.public_inputs(c.inst.circuit);
            runtime::JobRequest req;
            req.request_id = out.size() + 1;
            req.circuit = c.inst.circuit;
            req.witness = c.inst.witness;
            c.prove_frame = runtime::wire::encode_request(req);
            c.keys = client.get_or_create(c.inst.circuit).first;
            c.vk_bytes = hyperplonk::serde::serialize_verifying_key(*c.keys.vk);
            out.push_back(std::move(c));
        }
    }
    return out;
}

std::vector<uint8_t>
make_verify_frame(const Circuit &c, uint64_t request_id)
{
    runtime::VerifyRequest req;
    req.request_id = request_id;
    req.vk = c.vk_bytes;
    req.public_inputs = c.publics;
    req.proof = c.proof;
    return runtime::wire::encode_verify_request(req);
}

/** Circuit indices of the traffic: rounds of the weighted circuit list,
 * each round shuffled by the seeded generator. */
class Traffic
{
  public:
    Traffic(const std::vector<Circuit> &circuits, uint64_t seed)
        : rng_(splitmix(seed ^ 0x7472616666696324ULL))
    {
        for (size_t i = 0; i < circuits.size(); ++i) {
            for (size_t k = 0; k < circuits[i].weight; ++k) {
                round_.push_back(i);
            }
        }
    }

    size_t
    next()
    {
        if (pos_ == order_.size()) {
            order_ = round_;
            std::shuffle(order_.begin(), order_.end(), rng_);
            pos_ = 0;
        }
        return order_[pos_++];
    }

  private:
    std::mt19937_64 rng_;
    std::vector<size_t> round_, order_;
    size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Closed-loop client.
// ---------------------------------------------------------------------

struct Completed {
    size_t circuit = 0;
    double latency_ms = 0;
    JobResponse resp;
};

struct PhaseResult {
    std::vector<Completed> done;
    double wall_s = 0;  ///< phase start -> last answer
    double cpu_s = 0;   ///< process CPU over the phase
    /** OK answers up to the deadline, and the time the last of them
     * took from phase start (throughput excludes the drain). */
    size_t ok_by_deadline = 0;
    double by_deadline_s = 0;
};

/**
 * Keep `in_flight` callers busy from this one thread. Requests are the
 * circuit indices `next()` yields, until it returns nullopt or the
 * deadline passes; in-flight requests are always answered.
 */
template <typename Next>
PhaseResult
closed_loop(runtime::ProofService &svc,
            const std::vector<const std::vector<uint8_t> *> &frames,
            size_t in_flight, std::optional<Clock::time_point> deadline,
            Next next)
{
    struct Slot {
        bool busy = false;
        size_t circuit = 0;
        Clock::time_point sent;
        std::future<JobResponse> fut;
    };
    PhaseResult out;
    std::vector<Slot> slots(in_flight);
    double cpu0 = process_cpu_s();
    auto start = Clock::now();
    auto last = start;
    bool open = true;
    auto launch = [&](Slot &s) {
        if (!open || (deadline && Clock::now() >= *deadline)) {
            open = false;
            return;
        }
        std::optional<size_t> c = next();
        if (!c) {
            open = false;
            return;
        }
        s.circuit = *c;
        s.sent = Clock::now();
        s.fut = svc.submit(*frames[*c]);
        s.busy = true;
    };
    for (auto &s : slots) launch(s);
    for (;;) {
        bool any_busy = false, progressed = false;
        for (auto &s : slots) {
            if (!s.busy) continue;
            if (s.fut.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
                any_busy = true;
                continue;
            }
            auto now = Clock::now();
            Completed c;
            c.circuit = s.circuit;
            c.latency_ms = ms_between(s.sent, now);
            c.resp = s.fut.get();
            if (g_bench_spans) {
                obs::Span::record_complete("bench.job", kBenchCategory,
                                           s.sent, now,
                                           c.resp.request_id);
            }
            if (c.resp.ok() && (!deadline || now <= *deadline)) {
                ++out.ok_by_deadline;
                out.by_deadline_s = ms_between(start, now) / 1e3;
            }
            out.done.push_back(std::move(c));
            last = now;
            s.busy = false;
            progressed = true;
            launch(s);
            any_busy = any_busy || s.busy;
        }
        if (!any_busy) break;
        if (!progressed) {
            // Block on the oldest request. With others in flight, wake
            // every millisecond to poll them too: that bounds their
            // timing error to 1 ms without spinning the client thread.
            Slot *oldest = nullptr;
            size_t busy = 0;
            for (auto &s : slots) {
                if (!s.busy) continue;
                ++busy;
                if (oldest == nullptr || s.sent < oldest->sent) oldest = &s;
            }
            if (busy == 1) {
                oldest->fut.wait();
            } else {
                oldest->fut.wait_for(std::chrono::milliseconds(1));
            }
        }
    }
    out.wall_s = ms_between(start, last) / 1e3;
    out.cpu_s = process_cpu_s() - cpu0;
    return out;
}

/** `count` requests cycling through the frames in index order (the
 * fixed warm-up order). */
PhaseResult
in_order(runtime::ProofService &svc,
         const std::vector<const std::vector<uint8_t> *> &frames,
         size_t in_flight, size_t count)
{
    size_t i = 0;
    return closed_loop(svc, frames, in_flight, std::nullopt,
                       [&]() -> std::optional<size_t> {
                           if (i == count) return std::nullopt;
                           return i++ % frames.size();
                       });
}

/** Spin every core for `seconds`, so the host has woken all of them
 * before anything is timed. */
void
warm_host(double seconds)
{
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < std::max(1u, std::thread::hardware_concurrency());
         ++t) {
        threads.emplace_back([&stop, t] {
            ff::Fq x = ff::Fq::from_uint(t + 3);
            ff::Fq acc = x;
            while (!stop.load(std::memory_order_relaxed)) {
                for (int i = 0; i < 1000; ++i) acc = acc * x;
            }
            g_sink = acc.is_zero();
        });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop = true;
    for (auto &t : threads) t.join();
}

std::vector<const std::vector<uint8_t> *>
prove_frames(const std::vector<Circuit> &cs)
{
    std::vector<const std::vector<uint8_t> *> out;
    for (const auto &c : cs) out.push_back(&c.prove_frame);
    return out;
}

std::vector<const std::vector<uint8_t> *>
verify_frames(const std::vector<Circuit> &cs)
{
    std::vector<const std::vector<uint8_t> *> out;
    for (const auto &c : cs) out.push_back(&c.verify_frame);
    return out;
}

/** Outcome of the correctness checks over a set of answers. */
struct Checks {
    size_t attempted = 0;
    size_t failed = 0;
    bool ok = true;
    std::vector<std::string> problems;

    void
    fail(std::string why)
    {
        ok = false;
        if (problems.size() < 8) problems.push_back(std::move(why));
    }
};

/**
 * One set-up: construct the service and have every distinct circuit
 * answered once (PROVE; then one full VERIFY batch on verify-batch).
 * The first set-up of a run also records each circuit's proof bytes and
 * modmul counts. @return set-up seconds.
 */
double
setup_once(const Workload &w, std::vector<Circuit> &cs,
           std::unique_ptr<runtime::ProofService> &svc, Checks &checks)
{
    svc.reset();
    auto t0 = Clock::now();
    svc = std::make_unique<runtime::ProofService>(w.cfg);
    auto proved = in_order(*svc, prove_frames(cs), w.in_flight, cs.size());
    for (auto &d : proved.done) {
        Circuit &c = cs[d.circuit];
        if (!d.resp.ok()) {
            checks.fail("set-up PROVE of circuit " +
                        c.inst.spec.describe() + " answered " +
                        runtime::to_string(d.resp.status));
            continue;
        }
        if (c.proof.empty()) {
            c.proof = d.resp.proof;
            c.modmul_fr = d.resp.metrics.modmul_fr;
            c.modmul_fq = d.resp.metrics.modmul_fq;
            c.verify_frame = make_verify_frame(c, 1000 + d.circuit + 1);
        } else if (c.proof != d.resp.proof) {
            checks.fail("proof bytes differ between set-ups for " +
                        c.inst.spec.describe());
        }
    }
    if (w.verify && checks.ok) {
        // One full batch, so the flush is triggered by size, not timer.
        auto verified =
            in_order(*svc, verify_frames(cs), w.in_flight,
                     std::max(cs.size(), w.cfg.verify_batch_size));
        for (auto &d : verified.done) {
            if (!d.resp.ok()) {
                checks.fail("set-up VERIFY answered " +
                            std::string(runtime::to_string(d.resp.status)));
            }
        }
    }
    return ms_since(t0) / 1e3;
}

/** Correctness of a measured phase: every answer ok, byte-identical
 * proof bytes per frame. Counts failed ops. */
void
check_phase(const Workload &w, const std::vector<Circuit> &cs,
            const PhaseResult &ph, Checks &checks)
{
    for (const auto &d : ph.done) {
        ++checks.attempted;
        bool good = d.resp.ok();
        if (good && !w.verify && d.resp.proof != cs[d.circuit].proof) {
            good = false;
            checks.fail("proof bytes differ for one frame of " +
                        cs[d.circuit].inst.spec.describe());
        }
        if (!good) {
            ++checks.failed;
            checks.fail(std::string("job answered ") +
                        runtime::to_string(d.resp.status) + ": " +
                        d.resp.error);
        }
    }
}

/** Each distinct proof verifies in pairing mode (outside timing). */
void
check_proofs(const std::vector<Circuit> &cs, Checks &checks)
{
    for (const auto &c : cs) {
        auto proof = hyperplonk::serde::deserialize_proof(c.proof);
        if (!proof.has_value() ||
            !hyperplonk::verify(*c.keys.vk, c.publics, *proof,
                                hyperplonk::PcsCheckMode::pairing)) {
            checks.fail("proof of " + c.inst.spec.describe() +
                        " does not verify in pairing mode");
        }
    }
}

// ---------------------------------------------------------------------
// Registry reads.
// ---------------------------------------------------------------------

struct ServiceCounters {
    uint64_t flushes_size = 0, flushes_timeout = 0;
    uint64_t pairing_checks = 0, bisection_steps = 0, msm_points = 0;
    double batch_size_sum = 0;
    double active_ms = 0;
};

ServiceCounters
read_counters(const runtime::ProofService &svc)
{
    auto snap = obs::MetricsRegistry::global().snapshot();
    const std::pair<std::string, std::string> sv{"service",
                                                 svc.instance_label()};
    auto counter = [&](const char *name, obs::LabelSet labels) {
        const auto *m = snap.find(name, labels);
        return m != nullptr ? m->counter : uint64_t(0);
    };
    ServiceCounters c;
    c.flushes_size =
        counter("zkspeed_verify_flushes_total", {{"reason", "size"}, sv});
    c.flushes_timeout =
        counter("zkspeed_verify_flushes_total", {{"reason", "timeout"}, sv});
    c.pairing_checks = counter("zkspeed_verify_pairing_checks_total", {sv});
    c.bisection_steps =
        counter("zkspeed_verify_bisection_steps_total", {sv});
    c.msm_points = counter("zkspeed_verify_msm_points_total", {sv});
    if (const auto *m = snap.find("zkspeed_verify_batch_size", {sv})) {
        c.batch_size_sum = m->hist.sum;
    }
    for (const char *cls : {"prove", "verify"}) {
        if (const auto *m =
                snap.find("zkspeed_job_active_ms", {{"class", cls}, sv})) {
            c.active_ms += m->hist.sum;
        }
    }
    return c;
}

ServiceCounters
operator-(const ServiceCounters &a, const ServiceCounters &b)
{
    ServiceCounters d;
    d.flushes_size = a.flushes_size - b.flushes_size;
    d.flushes_timeout = a.flushes_timeout - b.flushes_timeout;
    d.pairing_checks = a.pairing_checks - b.pairing_checks;
    d.bisection_steps = a.bisection_steps - b.bisection_steps;
    d.msm_points = a.msm_points - b.msm_points;
    d.batch_size_sum = a.batch_size_sum - b.batch_size_sum;
    d.active_ms = a.active_ms - b.active_ms;
    return d;
}

// ---------------------------------------------------------------------
// Span-ring analysis (program spans plus the benchmark's own).
// ---------------------------------------------------------------------

/** Table-1 kernel span names and their metric keys. */
const std::vector<std::pair<const char *, const char *>> kKernels = {
    {"Witness MSMs", "witness_msms"},
    {"Wire Identity MSMs", "wire_identity_msms"},
    {"Poly Open MSMs", "poly_open_msms"},
    {"Build MLE", "build_mle"},
    {"ZeroCheck Rounds", "zerocheck_rounds"},
    {"PermCheck Rounds", "permcheck_rounds"},
    {"LookupCheck Rounds", "lookupcheck_rounds"},
    {"OpenCheck Rounds", "opencheck_rounds"},
    {"Construct N & D", "construct_nd"},
    {"Fraction MLE", "fraction_mle"},
    {"Product MLE", "product_mle"},
    {"Batch Evaluations", "batch_evaluations"},
    {"Linear Combine", "linear_combine"},
};

struct SpanStats {
    size_t program_spans = 0;
    /** Per kernel key: self ms and modmuls per proof, averaged over the
     * distinct circuits the service proved (so the modmul figures are
     * exact counts whatever the traffic mix was). */
    std::map<std::string, double> kernel_self_ms, kernel_modmuls;
    std::vector<double> queue_wait_ms, window_wait_ms;
};

/** Span duration minus the union of its children's intervals. */
std::unordered_map<uint64_t, double>
self_times_ms(const std::vector<obs::SpanEvent> &events)
{
    std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> kids;
    for (const auto &e : events) {
        if (e.parent_id != 0) {
            kids[e.parent_id].emplace_back(e.ts_us, e.ts_us + e.dur_us);
        }
    }
    std::unordered_map<uint64_t, double> out;
    for (const auto &e : events) {
        double lo = e.ts_us, hi = e.ts_us + e.dur_us, covered = 0;
        auto it = kids.find(e.span_id);
        if (it != kids.end()) {
            auto iv = it->second;
            std::sort(iv.begin(), iv.end());
            double cur_lo = 0, cur_hi = -1;
            for (auto [a, b] : iv) {
                a = std::max(a, lo);
                b = std::min(b, hi);
                if (b <= a) continue;
                if (a > cur_hi) {
                    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
                    cur_lo = a;
                    cur_hi = b;
                } else {
                    cur_hi = std::max(cur_hi, b);
                }
            }
            if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        }
        out[e.span_id] = (e.dur_us - covered) / 1e3;
    }
    return out;
}

SpanStats
analyse_spans(const std::vector<obs::SpanEvent> &events)
{
    SpanStats s;
    auto self = self_times_ms(events);
    std::unordered_map<std::string, std::string> key;
    for (const auto &[span, k] : kKernels) key[span] = k;
    std::unordered_map<uint64_t, const obs::SpanEvent *> by_id;
    for (const auto &e : events) by_id[e.span_id] = &e;
    /** The request id of the service "prove.prove" span above a span. */
    auto request_of = [&](const obs::SpanEvent &e) -> std::optional<uint64_t> {
        for (const obs::SpanEvent *p = &e; p != nullptr;) {
            if (p->name == "prove.prove") return p->correlation_id;
            auto it = by_id.find(p->parent_id);
            p = it == by_id.end() ? nullptr : it->second;
        }
        return std::nullopt;
    };
    std::map<uint64_t, size_t> jobs;  // request id -> proofs
    std::map<uint64_t, std::map<std::string, std::pair<double, double>>>
        per_request;  // request id -> kernel -> (self ms, modmuls)
    for (const auto &e : events) {
        if (e.category == kBenchCategory) continue;
        ++s.program_spans;
        if (e.name == "prove.prove") ++jobs[e.correlation_id];
        if (e.name == "job.queue_wait") {
            s.queue_wait_ms.push_back(e.dur_us / 1e3);
        }
        if (e.name == "verify.window_wait") {
            s.window_wait_ms.push_back(e.dur_us / 1e3);
        }
        auto k = key.find(e.name);
        if (k == key.end()) continue;
        auto req = request_of(e);
        if (!req) continue;
        auto &cell = per_request[*req][k->second];
        cell.first += self[e.span_id];
        for (const auto &[arg, v] : e.args) {
            if (arg == "modmul_fr" || arg == "modmul_fq") cell.second += v;
        }
    }
    for (const auto &[span, k] : kKernels) {
        s.kernel_self_ms[k] = 0;
        s.kernel_modmuls[k] = 0;
    }
    for (const auto &[req, n] : jobs) {
        for (const auto &[k, cell] : per_request[req]) {
            double share = double(n) * double(jobs.size());
            s.kernel_self_ms[k] += cell.first / share;
            s.kernel_modmuls[k] += cell.second / share;
        }
    }
    return s;
}

// ---------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void
print_result(const Checks &checks, const std::vector<Metric> &metrics)
{
    std::string json = "{\"correct\": ";
    json += checks.ok && checks.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(checks.attempted);
    json += ", \"failed\": " + std::to_string(checks.failed);
    json += ", \"metrics\": {";
    char buf[256];
    for (size_t i = 0; i < metrics.size(); ++i) {
        double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                      metrics[i].unit.c_str());
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

void
print_table(const std::vector<Metric> &metrics)
{
    for (const auto &m : metrics) {
        std::printf("  %-38s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
}

// ---------------------------------------------------------------------
// Layer sweep (traced run only): time public functions of each layer
// on the workload's own inputs.
// ---------------------------------------------------------------------

/** Median wall ms of `reps` calls of fn, each in a benchmark span. */
template <typename Fn>
double
time_ms(const char *span, size_t reps, Fn fn)
{
    std::vector<double> v;
    for (size_t r = 0; r < reps; ++r) {
        BenchSpan s(span);
        auto t0 = Clock::now();
        fn();
        v.push_back(ms_since(t0));
    }
    return median(v);
}

/** Median ms per input of `reps` passes over the distinct circuits. */
template <typename Fn>
double
per_circuit_ms(const char *span, const std::vector<Circuit> &cs,
               size_t reps, Fn fn)
{
    return time_ms(span, reps, [&] {
               for (const auto &c : cs) fn(c);
           }) /
           double(cs.size());
}

template <typename F>
double
mul_ns(const std::vector<F> &xs, size_t total)
{
    F acc = F::one();
    auto t0 = Clock::now();
    for (size_t i = 0; i < total; ++i) acc = acc * xs[i % xs.size()];
    double ns = ms_since(t0) * 1e6 / double(total);
    g_sink = acc.is_zero();
    return ns;
}

template <typename F>
double
inv_ns(const std::vector<F> &xs, size_t total)
{
    F acc = F::zero();
    auto t0 = Clock::now();
    for (size_t i = 0; i < total; ++i) acc += xs[i % xs.size()].inverse();
    double ns = ms_since(t0) * 1e6 / double(total);
    g_sink = acc.is_zero();
    return ns;
}

void
sweep_layers(const Workload &w, const std::vector<Circuit> &cs,
             uint64_t seed, double job_p50_ms, std::vector<Metric> &out,
             Checks &checks)
{
    auto add = [&](std::string name, double v, std::string unit) {
        out.push_back({std::move(name), v, std::move(unit)});
    };
    size_t budget = std::max<size_t>(
        1, w.cfg.total_parallelism / w.cfg.num_workers);
    size_t max_vars = 0;
    const Circuit *largest = &cs[0];
    for (const auto &c : cs) {
        if (c.inst.circuit.num_vars > max_vars) {
            max_vars = c.inst.circuit.num_vars;
            largest = &c;
        }
    }

    // The workload's own scalars (witness tables) and base-field values
    // (affine SRS coordinates).
    std::vector<ff::Fr> scalars;
    for (const auto &c : cs) {
        for (const auto &mle : c.inst.witness.w) {
            scalars.insert(scalars.end(), mle.evals().begin(),
                           mle.evals().end());
        }
    }
    std::vector<ff::Fr> nonzero;
    for (const auto &s : scalars) {
        if (!s.is_zero()) nonzero.push_back(s);
    }
    runtime::KeyCache srs_cache(1, w.cfg.srs_seed);
    auto srs = srs_cache.srs_for(max_vars);
    auto msm_srs = max_vars >= 12 ? srs : srs_cache.srs_for(12);
    std::vector<ff::Fq> fqs;
    for (const auto &p : srs->lagrange[max_vars]) {
        if (!p.infinity) {
            fqs.push_back(p.x);
            fqs.push_back(p.y);
        }
    }

    {
        ff::WorkerBudgetScope one(1);
        add("ff.fq_mul_ns", mul_ns(fqs, 2'000'000), "ns");
        add("ff.fq_inv_ns", inv_ns(fqs, 2'000), "ns");
        add("ff.fr_mul_ns", mul_ns(nonzero, 2'000'000), "ns");
        add("ff.fr_inv_ns", inv_ns(nonzero, 4'000), "ns");
    }
    double fq_per_proof = 0, fr_per_proof = 0;
    for (const auto &c : cs) {
        fq_per_proof += double(c.modmul_fq) / double(cs.size());
        fr_per_proof += double(c.modmul_fr) / double(cs.size());
    }
    add("ff.fq_muls_per_proof", fq_per_proof, "count");
    add("ff.fr_muls_per_proof", fr_per_proof, "count");

    // curve: MSMs at fixed sizes, points from the SRS Lagrange basis.
    for (size_t logn : {2, 6, 10, 12}) {
        size_t n = size_t(1) << logn;
        ff::WorkerBudgetScope threads(logn <= 6 ? 1 : 4);
        const auto &pts = msm_srs->lagrange[logn];
        std::vector<ff::Fr> sc(n);
        for (size_t i = 0; i < n; ++i) sc[i] = scalars[i % scalars.size()];
        ff::ModmulScope muls;
        curve::msm(pts, sc);
        double per_point = double(muls.fq_delta()) / double(n);
        size_t reps = n <= 64 ? 25 : 9;
        std::string tag = ".n" + std::to_string(n);
        add("curve.msm_ms" + tag,
            time_ms("bench.curve.msm", reps, [&] { curve::msm(pts, sc); }),
            "ms");
        add("curve.msm_fq_muls_per_point" + tag, per_point, "count");
    }

    // Direct proofs, deferred verifications and one 16-proof flush.
    std::vector<hyperplonk::Proof> proofs;
    std::vector<hyperplonk::VerifyingKey> vks;
    for (const auto &c : cs) {
        proofs.push_back(*hyperplonk::serde::deserialize_proof(c.proof));
        vks.push_back(
            *hyperplonk::serde::deserialize_verifying_key(c.vk_bytes));
    }
    std::vector<double> flush_ms, pairing_ms;
    for (int r = 0; r < 3; ++r) {
        verifier::BatchVerifier bv;
        for (size_t i = 0; i < 16; ++i) {
            size_t k = i % cs.size();
            verifier::PairingAccumulator acc;
            hyperplonk::verify_deferred(vks[k], cs[k].publics, proofs[k],
                                        acc);
            bv.add(std::move(acc));
        }
        BenchSpan s("bench.verify.flush");
        auto t0 = Clock::now();
        auto res = bv.flush();
        flush_ms.push_back(ms_since(t0));
        pairing_ms.push_back(res.stats.pairing_ms);
    }
    add("curve.pairing_ms", median(pairing_ms), "ms");

    // pcs and keygen, at the thread budget a service worker has.
    ff::WorkerBudgetScope worker(budget);
    add("pcs.srs_generate_ms",
        time_ms("bench.pcs.srs_generate", max_vars >= 12 ? 2 : 5,
                [&] {
                    std::mt19937_64 rng(splitmix(seed));
                    pcs::Srs::generate(max_vars, rng, true);
                }),
        "ms");
    std::mt19937_64 rng(splitmix(seed + 1));
    std::vector<ff::Fr> point(max_vars);
    for (auto &x : point) x = ff::Fr::random(rng);
    add("pcs.open_ms",
        time_ms("bench.pcs.open", 5,
                [&] { pcs::open(*srs, largest->inst.witness.w[0], point); }),
        "ms");

    // hyperplonk
    add("hyperplonk.keygen_ms",
        per_circuit_ms("bench.hyperplonk.keygen", cs, 1,
                       [&](const Circuit &c) {
                           hyperplonk::keygen(
                               c.inst.circuit,
                               srs_cache.srs_for(c.inst.circuit.num_vars));
                       }),
        "ms");
    std::vector<double> prove_ms;
    Traffic traffic(cs, seed);
    size_t round = 0;
    for (const auto &c : cs) round += c.weight;
    for (size_t i = 0; i < 2 * round; ++i) {
        const Circuit &c = cs[traffic.next()];
        BenchSpan s("bench.hyperplonk.prove");
        auto t0 = Clock::now();
        hyperplonk::prove(*c.keys.pk, c.inst.witness);
        prove_ms.push_back(ms_since(t0));
    }
    double prove_p50 = median(prove_ms);
    add("hyperplonk.prove_ms", prove_p50, "ms");
    auto prove_at = [&](size_t threads) {
        ff::WorkerBudgetScope scope(threads);
        return time_ms("bench.hyperplonk.prove", 3, [&] {
            hyperplonk::prove(*largest->keys.pk, largest->inst.witness);
        });
    };
    double t1 = prove_at(1);
    double t4 = prove_at(4);
    add("hyperplonk.prove_speedup_4t", t1 / t4, "x");
    double vdef_ms = per_circuit_ms(
        "bench.hyperplonk.verify_deferred", cs, 3, [&](const Circuit &c) {
            size_t k = size_t(&c - cs.data());
            verifier::PairingAccumulator acc;
            hyperplonk::verify_deferred(vks[k], c.publics, proofs[k], acc);
        });
    add("hyperplonk.verify_deferred_ms", vdef_ms, "ms");

    // runtime: wire codec and the witness checks.
    add("runtime.decode_ms",
        per_circuit_ms("bench.runtime.decode", cs, 5,
                       [&](const Circuit &c) {
                           bool ok = w.verify
                                         ? runtime::wire::decode_verify_request(
                                               c.verify_frame)
                                               .has_value()
                                         : runtime::wire::decode_request(
                                               c.prove_frame)
                                               .has_value();
                           if (!ok) checks.fail("a frame failed to decode");
                       }),
        "ms");
    add("runtime.witness_check_ms",
        per_circuit_ms("bench.runtime.witness_check", cs, 5,
                       [&](const Circuit &c) {
                           const auto &wit = c.inst.witness;
                           const auto &idx = c.inst.circuit;
                           if (!wit.satisfies_gates(idx) ||
                               !wit.satisfies_wiring(idx) ||
                               !wit.satisfies_lookups(idx)) {
                               checks.fail("a witness fails its circuit");
                           }
                       }),
        "ms");
    add("runtime.encode_ms",
        per_circuit_ms("bench.runtime.encode", cs, 5,
                       [&](const Circuit &c) {
                           if (w.verify) {
                               g_sink = make_verify_frame(c, 1).empty();
                               return;
                           }
                           runtime::JobRequest req;
                           req.request_id = 1;
                           req.circuit = c.inst.circuit;
                           req.witness = c.inst.witness;
                           g_sink = runtime::wire::encode_request(req).empty();
                       }),
        "ms");
    double core_ms = w.verify ? vdef_ms + median(flush_ms) : prove_p50;
    add("runtime.service_overhead_ms", job_p50_ms - core_ms, "ms");
    add("verify.flush_ms", median(flush_ms), "ms");
}

// ---------------------------------------------------------------------
// main
// ---------------------------------------------------------------------

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spans_out;
};

std::optional<Args>
parse_args(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (k == "--seconds") {
            a.seconds = std::atof(v.c_str());
        } else if (k == "--trace") {
            a.trace = v == "1";
        } else if (k == "--spans-out") {
            a.spans_out = v;
        } else {
            return std::nullopt;
        }
    }
    if (!have_workload || !(a.seconds > 0)) return std::nullopt;
    return a;
}

/** Latency percentiles of the OK jobs of a phase. */
struct Latency {
    double p50 = 0, p90 = 0, per_s = 0, cpu_ms = 0;
    size_t n = 0;
};

Latency
summarise(const PhaseResult &ph)
{
    Latency l;
    std::vector<double> v;
    for (const auto &d : ph.done) {
        if (d.resp.ok()) v.push_back(d.latency_ms);
    }
    l.n = v.size();
    l.p50 = quantile(v, 0.5);
    l.p90 = quantile(v, 0.9);
    l.per_s = ph.by_deadline_s > 0
                  ? double(ph.ok_by_deadline) / ph.by_deadline_s
                  : 0.0;
    l.cpu_ms = ph.done.empty() ? 0.0
                               : ph.cpu_s * 1e3 / double(ph.done.size());
    return l;
}

int
run(const Args &args)
{
    auto wl = make_workload(args.workload);
    if (!wl) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    const Workload &w = *wl;
    const char *op = w.verify ? "verify" : "prove";
    std::printf("workload %s seed %llu: %s jobs, %zu workers x %zu "
                "kernel threads, %zu in flight, closed loop\n",
                w.name.c_str(), (unsigned long long)args.seed, op,
                w.cfg.num_workers,
                std::max<size_t>(1, w.cfg.total_parallelism /
                                        w.cfg.num_workers),
                w.in_flight);

    runtime::KeyCache client(64, w.cfg.srs_seed);
    auto cs = make_circuits(w, args.seed, client);
    Checks checks;

    // Wake every core, then set up in a fixed order; keep the last
    // set-up's service for the measured phase.
    warm_host(1.5);
    std::unique_ptr<runtime::ProofService> svc;
    std::vector<double> setups;
    size_t reps = args.trace ? 1 : w.setup_reps;
    for (size_t r = 0; r < reps && checks.ok; ++r) {
        setups.push_back(setup_once(w, cs, svc, checks));
    }
    if (!checks.ok) {
        for (const auto &p : checks.problems) {
            std::fprintf(stderr, "set-up failed: %s\n", p.c_str());
        }
        return 1;
    }

    const auto frames = w.verify ? verify_frames(cs) : prove_frames(cs);
    auto measure = [&](uint64_t traffic_seed) {
        Traffic traffic(cs, traffic_seed);
        auto deadline = Clock::now() +
                        std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(args.seconds));
        return closed_loop(*svc, frames, w.in_flight, deadline,
                           [&]() -> std::optional<size_t> {
                               return traffic.next();
                           });
    };

    std::vector<Metric> metrics;
    if (!args.trace) {
        auto c0 = read_counters(*svc);
        auto ph = measure(args.seed);
        auto c1 = read_counters(*svc) - c0;
        check_phase(w, cs, ph, checks);
        check_proofs(cs, checks);
        if (w.verify && c1.bisection_steps != 0) {
            checks.fail("verify.bisection_steps is not 0");
        }
        Latency l = summarise(ph);
        metrics = {
            {"setup_s", median(setups), "s"},
            {"job_p50_ms", l.p50, "ms"},
            {"job_p90_ms", l.p90, "ms"},
            {"jobs_per_s", l.per_s, "1/s"},
            {"cpu_ms_per_job", l.cpu_ms, "ms"},
            {"peak_rss_mb", peak_rss_mb(), "MB"},
        };
        std::printf("  %s_p50_ms %.3f ms, %s_p90_ms %.3f ms over %zu OK "
                    "jobs (%zu answered); %s %.3f /s\n",
                    op, l.p50, op, l.p90, l.n, ph.done.size(),
                    w.verify ? "verifies_per_s" : "proofs_per_s",
                    l.per_s);
        std::printf("  setup_s is the median of %zu set-ups\n",
                    setups.size());
    } else {
        // Untraced phase (shipped telemetry only), then the traced
        // phase with the benchmark's spans and a ring that keeps all.
        auto plain = measure(args.seed);
        check_phase(w, cs, plain, checks);
        auto &ring = obs::TraceRecorder::global();
        ring.set_capacity(size_t(1) << 18);
        g_bench_spans = true;
        auto cache0 = svc->cache_stats();
        auto c0 = read_counters(*svc);
        auto traced = measure(args.seed + 1);
        auto c1 = read_counters(*svc) - c0;
        auto cache1 = svc->cache_stats();
        check_phase(w, cs, traced, checks);
        check_proofs(cs, checks);
        if (w.verify && c1.bisection_steps != 0) {
            checks.fail("verify.bisection_steps is not 0");
        }
        auto spans = analyse_spans(ring.events());
        Latency lp = summarise(plain), lt = summarise(traced);

        auto add = [&](std::string name, double v, std::string unit) {
            metrics.push_back({std::move(name), v, std::move(unit)});
        };
        sweep_layers(w, cs, args.seed, lp.p50, metrics, checks);

        for (const auto &[span, key] : kKernels) {
            add(std::string("hyperplonk.kernel_ms.") + key,
                spans.kernel_self_ms[key], "ms");
            add(std::string("hyperplonk.kernel_modmuls.") + key,
                spans.kernel_modmuls[key], "count");
        }
        add("runtime.queue_wait_ms", median(spans.queue_wait_ms), "ms");
        uint64_t lookups = (cache1.hits - cache0.hits) +
                           (cache1.misses - cache0.misses);
        add("runtime.key_cache_hit_ratio",
            lookups == 0 ? 0.0
                         : double(cache1.hits - cache0.hits) /
                               double(lookups),
            "ratio");
        add("runtime.worker_busy_ratio",
            c1.active_ms / (1e3 * traced.wall_s *
                            double(w.cfg.num_workers)),
            "ratio");
        add("runtime.trace_entries", double(svc->trace().size()), "count");

        uint64_t flushes = c1.flushes_size + c1.flushes_timeout;
        double nf = double(std::max<uint64_t>(1, flushes));
        add("verify.window_wait_ms", median(spans.window_wait_ms), "ms");
        add("verify.batch_size_mean", c1.batch_size_sum / nf, "count");
        add("verify.timeout_flush_ratio",
            double(c1.flushes_timeout) / nf, "ratio");
        add("verify.msm_points_per_flush", double(c1.msm_points) / nf,
            "count");
        add("verify.pairing_checks_per_flush",
            double(c1.pairing_checks) / nf, "count");
        add("verify.bisection_steps", double(c1.bisection_steps), "count");

        // sim: replay the run's service trace; the chip's prove latency
        // comes from one entry per distinct circuit, in circuit order.
        auto trace = svc->trace();
        add("sim.replay_ms",
            time_ms("bench.sim.replay", 3,
                    [&] {
                        sim::replay_trace(trace,
                                          sim::DesignConfig::paper_default());
                    }),
            "ms");
        std::vector<runtime::TraceEntry> distinct;
        for (size_t i = 0; i < cs.size(); ++i) {
            for (const auto &e : trace) {
                if (e.kind == runtime::JobKind::prove &&
                    e.request_id == i + 1) {
                    distinct.push_back(e);
                    break;
                }
            }
        }
        auto chip = sim::replay_trace(distinct,
                                      sim::DesignConfig::paper_default());
        add("sim.chip_prove_us",
            chip.chip_prove_ms * 1e3 / double(std::max<size_t>(
                                           1, chip.prove_jobs)),
            "us");

        add("obs.spans_per_job",
            double(spans.program_spans) /
                double(std::max<size_t>(1, traced.done.size())),
            "count");
        add("obs.spans_dropped", double(ring.dropped()), "count");
        add("obs.tracing_overhead_pct",
            lp.p50 > 0 ? 100.0 * (lt.p50 - lp.p50) / lp.p50 : 0.0, "%");
        if (ring.dropped() != 0) checks.fail("trace ring dropped spans");

        std::printf("  untraced %s_p50_ms %.3f (n=%zu), traced %.3f "
                    "(n=%zu)\n",
                    op, lp.p50, lp.n, lt.p50, lt.n);
        if (!args.spans_out.empty()) {
            std::ofstream f(args.spans_out);
            f << ring.render_chrome_json();
        }
        g_bench_spans = false;
    }
    svc->shutdown();
    print_table(metrics);
    for (const auto &p : checks.problems) {
        std::fprintf(stderr, "check failed: %s\n", p.c_str());
    }
    print_result(checks, metrics);
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    auto args = parse_args(argc, argv);
    if (!args) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <prove-small|prove-large|"
                     "verify-batch> --seed <n> --seconds <s> --trace <0|1> "
                     "[--spans-out <path>]\n");
        return 2;
    }
    return run(*args);
}
