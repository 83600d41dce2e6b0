/**
 * @file
 * Proof server driver: feed a stream of length-prefixed, wire-encoded
 * proving requests through the batch proving service, then round-trip
 * the returned proofs as VERIFY jobs through the same worker pool, and
 * print the responses, per-class metrics and the accelerator replay.
 *
 * Usage:
 *   proof_server [requests.bin|-] [num_workers]
 *
 * With a file argument the driver decodes `[u64 len][request bytes]...`
 * frames from it (`-` keeps the demo stream). Without one it synthesises a demo stream: a batch of
 * Rescue-style and random-circuit jobs with repeated circuit shapes
 * (exercising the key cache) plus deliberately malformed frames
 * (exercising the reject-don't-crash path). Every frame — valid or not
 * — gets exactly one response on the output stream.
 *
 * The round-trip stage asserts the protocol end to end: every proof the
 * service produced must verify (batched, one folded pairing check), and
 * one deliberately corrupted proof must be rejected — isolated by the
 * batch verifier's bisection, without dragging honest proofs down.
 */
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string_view>
#include <thread>

#include "hyperplonk/serialize.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/http.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "obs/attrib.hpp"
#include "runtime/service.hpp"
#include "scenarios/registry.hpp"
#include "sim/replay.hpp"
#include "sim/tech.hpp"

using namespace zkspeed;
using namespace zkspeed::runtime;
using ff::Fr;

namespace {

/** A job drawn from the scenario workload library. */
JobRequest
scenario_request(uint64_t id, const char *family, uint64_t seed)
{
    scenarios::Spec spec;
    spec.name = family;
    spec.seed = seed;
    auto inst = scenarios::Registry::global().build(spec);
    JobRequest req;
    req.request_id = id;
    req.circuit = std::move(inst.circuit);
    req.witness = std::move(inst.witness);
    return req;
}

/** Demo stream: repeated circuit shapes + malformed frames. */
std::vector<uint8_t>
demo_stream()
{
    std::vector<uint8_t> stream;
    uint64_t id = 1;
    // Three scenario-library jobs: a Rescue hash chain, a Merkle
    // membership proof, and a lookup-argument range bank (the wire
    // frame carries the table; the proof carries the LogUp artifacts).
    wire::append_frame(stream, wire::encode_request(
        scenario_request(id++, "rescue-chain", 2025)));
    wire::append_frame(stream, wire::encode_request(
        scenario_request(id++, "merkle-membership", 2026)));
    wire::append_frame(stream, wire::encode_request(
        scenario_request(id++, "range-via-lookup", 2028)));
    // The same random circuit proved three times: cache hits.
    std::mt19937_64 circuit_rng(7);
    auto [index, witness] = hyperplonk::random_circuit(5, circuit_rng);
    for (int i = 0; i < 3; ++i) {
        JobRequest req;
        req.request_id = id++;
        req.circuit = index;
        req.witness = witness;
        wire::append_frame(stream, wire::encode_request(req));
    }
    // A malformed frame: truncated request.
    auto victim = wire::encode_request(
        scenario_request(id++, "range-bank", 2027));
    victim.resize(victim.size() / 3);
    wire::append_frame(stream, victim);
    // A garbage frame.
    wire::append_frame(stream, std::vector<uint8_t>{0xba, 0xad, 0xf0, 0x0d});
    return stream;
}

/**
 * ^C / SIGTERM: flush every telemetry artifact (metrics, trace, log
 * ring, attribution, flight snapshot) before dying, so an interrupted
 * run keeps its telemetry. Not strictly async-signal-safe (the
 * exporters allocate and lock), but the alternative is losing the
 * artifacts entirely — acceptable for a demo driver on its way out.
 * (Fatal signals — SIGSEGV/SIGABRT — go through the flight recorder's
 * own handlers instead, which ARE async-signal-safe.)
 */
void
on_interrupt(int sig)
{
    obs::flush_all();
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

std::vector<uint8_t>
read_file(const char *path)
{
    FILE *f = std::fopen(path, "rb");
    if (!f) {
        obs::logf(obs::LogLevel::error, "proof_server", 0,
                  "cannot open %s", path);
        std::exit(2);
    }
    std::fseek(f, 0, SEEK_END);
    long n = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<uint8_t> bytes(static_cast<size_t>(n), 0);
    if (std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
        obs::logf(obs::LogLevel::error, "proof_server", 0,
                  "short read from %s", path);
        std::exit(2);
    }
    std::fclose(f);
    return bytes;
}

}  // namespace

int
main(int argc, char **argv)
{
    bool use_demo = argc <= 1 || std::string_view(argv[1]) == "-";
    std::vector<uint8_t> stream =
        use_demo ? demo_stream() : read_file(argv[1]);
    size_t workers = argc > 2 ? size_t(std::atoi(argv[2])) : 2;

    auto frames = wire::split_frames(stream);
    if (!frames.has_value()) {
        obs::logf(obs::LogLevel::error, "proof_server", 0,
                  "input is not a valid frame stream");
        return 2;
    }
    std::printf("proof_server: %zu request frame(s), %zu worker(s)\n\n",
                frames->size(), workers);

    std::signal(SIGINT, on_interrupt);
    std::signal(SIGTERM, on_interrupt);
    // Crash forensics: pre-serialized FLIGHT_report.json snapshot kept
    // fresh from normal context, dumped async-signal-safely on
    // SIGSEGV/SIGABRT (path override: ZKSPEED_FLIGHT_OUT).
    obs::flight::install();

    ServiceConfig cfg;
    cfg.num_workers = workers;
    cfg.queue_capacity = 32;
    ProofService service(cfg);

    // Live scrape plane (ZKSPEED_HTTP_PORT; 0 = ephemeral). /readyz
    // answers from the service's readiness formula.
    obs::set_readiness_provider([&service] {
        auto r = service.readiness();
        return obs::Readiness{r.ready, r.detail};
    });
    auto http = obs::HttpServer::start_from_env();
    if (http != nullptr) {
        std::printf("http: serving telemetry on 127.0.0.1:%u\n",
                    unsigned(http->port()));
        if (const char *pf = std::getenv("ZKSPEED_HTTP_PORT_FILE");
            pf != nullptr && *pf != '\0') {
            obs::write_file(pf, std::to_string(http->port()) + "\n");
        }
    }

    // Live stats line every 500 ms while jobs are in flight: windowed
    // rates and interval percentiles from successive registry snapshots
    // (obs::WindowDelta), on stderr so the report stream stays clean.
    std::atomic<bool> live_stop{false};
    std::thread live_stats([&service, &live_stop] {
        auto &reg = obs::MetricsRegistry::global();
        const obs::SeriesSelector ok_sel{
            "zkspeed_job_latency_ms",
            {{"service", service.instance_label()}, {"status", "ok"}}};
        obs::Snapshot prev = reg.snapshot();
        auto prev_t = std::chrono::steady_clock::now();
        while (!live_stop.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(500));
            auto now_t = std::chrono::steady_clock::now();
            obs::Snapshot snap = reg.snapshot();
            double dt =
                std::chrono::duration<double>(now_t - prev_t).count();
            auto delta = obs::WindowDelta::between(snap, prev, dt);
            auto hist = delta.merged_histogram(ok_sel);
            if (hist.count > 0) {
                char line[160];
                std::snprintf(line, sizeof(line),
                              "%.1f jobs/s  p50 %.1f ms  p99 %.1f ms  "
                              "queue %zu",
                              double(hist.count) / dt,
                              hist.quantile(0.50), hist.quantile(0.99),
                              service.queue_depth());
                std::fprintf(stderr, "[live] %s\n", line);
                obs::log_event(obs::LogLevel::info, "live_stats", line);
            }
            prev = std::move(snap);
            prev_t = now_t;
        }
    });

    std::vector<std::future<JobResponse>> futures;
    futures.reserve(frames->size());
    for (auto &frame : *frames) {
        // Copy: the frames are re-decoded below to rebuild client-side
        // verifying keys for the VERIFY round-trip.
        futures.push_back(service.submit(frame));
    }

    std::vector<uint8_t> response_stream;
    std::vector<JobResponse> prove_responses;
    size_t ok = 0;
    for (auto &f : futures) {
        JobResponse resp = f.get();
        std::printf("  request %-3llu %-18s 2^%-2u gates  %7.2f ms  "
                    "%s%zu proof bytes%s\n",
                    (unsigned long long)resp.request_id,
                    to_string(resp.status), resp.metrics.num_vars,
                    resp.metrics.total_ms,
                    resp.metrics.key_cache_hit ? "[cached] " : "",
                    resp.proof.size(),
                    resp.ok() ? "" : (" — " + resp.error).c_str());
        wire::append_frame(response_stream, wire::encode_response(resp));
        if (resp.ok()) ++ok;
        prove_responses.push_back(std::move(resp));
    }

    // Optional hold-open window (ZKSPEED_SERVE_MS): keep the workers
    // loaded with small prove jobs for ~N ms so external scrapers (the
    // CI lane curling /metrics and /readyz) observe a live, busy
    // process rather than a raced startup.
    if (const char *serve = std::getenv("ZKSPEED_SERVE_MS");
        serve != nullptr && *serve != '\0') {
        double serve_ms = std::atof(serve);
        auto serve_until =
            std::chrono::steady_clock::now() +
            std::chrono::duration<double, std::milli>(serve_ms);
        std::mt19937_64 serve_rng(11);
        auto [serve_circuit, serve_witness] =
            hyperplonk::random_circuit(4, serve_rng);
        uint64_t serve_id = 9000;
        size_t served = 0;
        while (std::chrono::steady_clock::now() < serve_until) {
            JobRequest req;
            req.request_id = serve_id++;
            req.circuit = serve_circuit;
            req.witness = serve_witness;
            service.submit(req).get();
            ++served;
        }
        obs::logf(obs::LogLevel::info, "proof_server", 0,
                  "serve window closed after %zu extra prove job(s)",
                  served);
    }

    // ------------------------------------------------------------------
    // Round-trip: feed every proof back as a VERIFY job, plus one
    // deliberately corrupted copy that must be rejected via bisection.
    // The client rebuilds each vk from the request's circuit (the vk is
    // deterministic given the circuit and the service's SRS seed).
    // ------------------------------------------------------------------
    KeyCache client_keys(8, cfg.srs_seed);
    std::vector<std::future<JobResponse>> verify_futures;
    uint64_t corrupted_id = 0;
    size_t expected_ok = 0;
    for (size_t i = 0; i < frames->size(); ++i) {
        const JobResponse &resp = prove_responses[i];
        if (!resp.ok()) continue;
        auto req = wire::decode_request((*frames)[i]);
        if (!req.has_value()) continue;
        auto keys = client_keys.get_or_create(req->circuit).first;
        VerifyRequest vreq;
        vreq.request_id = 1000 + resp.request_id;
        vreq.vk = hyperplonk::serde::serialize_verifying_key(*keys.vk);
        vreq.public_inputs = req->witness.public_inputs(req->circuit);
        vreq.proof = resp.proof;
        verify_futures.push_back(service.submit(vreq));
        ++expected_ok;
        auto proof = hyperplonk::serde::deserialize_proof(resp.proof);
        if (corrupted_id == 0 && proof.has_value() &&
            !proof->gprime_proof.quotients.empty()) {
            // One tampered copy: still decodes (the point stays on the
            // curve) but the folded pairing check must reject it.
            auto &q = proof->gprime_proof.quotients[0];
            q = (curve::G1::from_affine(q) + curve::g1_generator())
                    .to_affine();
            vreq.request_id = corrupted_id = 2000 + resp.request_id;
            vreq.proof = hyperplonk::serde::serialize_proof(*proof);
            verify_futures.push_back(service.submit(vreq));
        }
    }

    std::printf("\nround-trip: %zu VERIFY job(s) (incl. 1 corrupted)\n",
                verify_futures.size());
    size_t verified_ok = 0;
    bool corrupted_rejected = false;
    for (auto &f : verify_futures) {
        JobResponse resp = f.get();
        std::printf("  request %-4llu %-14s batch=%-2u  %7.2f ms%s\n",
                    (unsigned long long)resp.request_id,
                    to_string(resp.status), resp.metrics.batch_size,
                    resp.metrics.total_ms,
                    resp.ok() ? "" : (" — " + resp.error).c_str());
        wire::append_frame(response_stream, wire::encode_response(resp));
        if (resp.ok()) ++verified_ok;
        if (resp.request_id == corrupted_id &&
            resp.status == JobStatus::invalid_proof) {
            corrupted_rejected = true;
        }
    }
    live_stop.store(true, std::memory_order_relaxed);
    live_stats.join();

    bool round_trip_ok =
        verified_ok == expected_ok && corrupted_rejected;
    std::printf("  => %zu/%zu accepted, corrupted proof %s\n",
                verified_ok, expected_ok,
                corrupted_rejected ? "rejected (bisection)"
                                   : "NOT rejected");

    // Whole-run aggregates straight from this instance's registry
    // series (the window opens at zero, i.e. at service start).
    const std::pair<std::string, std::string> sv{"service",
                                                 service.instance_label()};
    auto run = obs::WindowDelta::between(
        obs::MetricsRegistry::global().snapshot(), obs::Snapshot{}, 0.0);
    auto latency = [&](obs::LabelSet labels) {
        labels.push_back(sv);
        return run.merged_histogram({"zkspeed_job_latency_ms", labels});
    };
    auto total = [&](const char *name, obs::LabelSet labels) {
        labels.push_back(sv);
        return (unsigned long long)run.total({name, labels});
    };
    auto mean = [](const obs::HistogramSnapshot &h) {
        return h.count == 0 ? 0.0 : h.sum / double(h.count);
    };
    auto prove_ok = latency({{"class", "prove"}, {"status", "ok"}});
    auto verify_ok = latency({{"class", "verify"}, {"status", "ok"}});
    auto batches = run.merged_histogram({"zkspeed_verify_batch_size", {sv}});
    auto cache = service.cache_stats();
    std::printf("\naggregate: %llu ok, %llu rejected, %llu failed\n",
                total("zkspeed_job_latency_ms", {{"status", "ok"}}),
                total("zkspeed_job_latency_ms", {{"status", "rejected"}}),
                total("zkspeed_job_latency_ms", {{"status", "failed"}}));
    std::printf("  prove   %llu ok, mean %.2f ms\n",
                (unsigned long long)prove_ok.count, mean(prove_ok));
    std::printf("  verify  %llu ok, %llu rejected, mean %.2f ms "
                "(%llu batch(es), %.1f proofs/batch, "
                "%llu bisection probe(s))\n",
                (unsigned long long)verify_ok.count,
                total("zkspeed_job_latency_ms",
                      {{"class", "verify"}, {"status", "rejected"}}),
                mean(verify_ok), (unsigned long long)batches.count,
                mean(batches),
                total("zkspeed_verify_bisection_steps_total", {}));
    std::printf("  modmuls  %.1f M Fr, %.1f M Fq\n",
                double(total("zkspeed_modmuls_total", {{"field", "fr"}})) /
                    1e6,
                double(total("zkspeed_modmuls_total", {{"field", "fq"}})) /
                    1e6);
    std::printf("  key cache: %llu hits / %llu misses (%.0f%% hit rate)\n",
                (unsigned long long)cache.hits,
                (unsigned long long)cache.misses,
                100.0 * cache.hit_rate());
    std::printf("  response stream: %zu bytes for %zu responses\n",
                response_stream.size(),
                futures.size() + verify_futures.size());
    if (prove_ok.count > 0) {
        std::printf("  prove latency p50/p90/p99: %.2f / %.2f / "
                    "%.2f ms (±%.1f%% bucket error)\n",
                    prove_ok.quantile(0.50), prove_ok.quantile(0.90),
                    prove_ok.quantile(0.99),
                    100.0 * obs::HistogramBuckets::kMaxRelativeError);
    }

    // What would the paper's accelerator do with this exact job stream?
    // Shutdown also fires the telemetry artifact hooks: set
    // ZKSPEED_METRICS_OUT / ZKSPEED_TRACE_OUT to dump metrics.prom (or
    // .json) and a Perfetto-loadable trace.json.
    service.shutdown();  // flush any parked verify window into the trace
    if (const char *p = std::getenv("ZKSPEED_METRICS_OUT")) {
        std::printf("  metrics exposition written to %s\n", p);
    }
    if (const char *p = std::getenv("ZKSPEED_TRACE_OUT")) {
        std::printf("  trace (%zu span(s), %llu dropped) written to %s\n",
                    obs::TraceRecorder::global().size(),
                    (unsigned long long)obs::TraceRecorder::global()
                        .dropped(),
                    p);
    }
    auto trace = service.trace();
    if (!trace.empty()) {
        auto report =
            sim::replay_trace(trace, sim::DesignConfig::paper_default());
        std::printf("\nzkSpeed replay (366 mm^2 design, %zu prove job(s) "
                    "+ %zu verify flush(es)):\n",
                    report.prove_jobs, report.verify_flushes);
        std::printf("  software  %8.2f ms busy  -> %7.1f units/s\n",
                    report.sw_total_ms, report.sw_jobs_per_s);
        std::printf("  zkSpeed   %8.2f ms busy  -> %7.1f units/s "
                    "(%.0fx)\n",
                    report.chip_total_ms, report.chip_jobs_per_s,
                    report.speedup);
        if (report.verify_flushes > 0) {
            std::printf("  verify    %8.2f ms sw vs %.2f ms chip for "
                        "%llu proof(s) checked\n",
                        report.sw_verify_ms, report.chip_verify_ms,
                        (unsigned long long)report.proofs_verified);
        }

        // Kernel-level cost attribution: join the prover spans still
        // in the trace ring with the replay's per-kernel cycles, export
        // the drift gauges and write ATTRIB_report.json. Re-dump the
        // env artifacts afterwards so ZKSPEED_METRICS_OUT includes the
        // drift series.
        obs::attrib::Options aopts;
        aopts.clock_ghz = sim::kClockGhz;
        auto attrib =
            obs::attrib::build(obs::TraceRecorder::global().events(),
                               sim::attrib_jobs(report), aopts);
        obs::attrib::export_to_registry(attrib,
                                        obs::MetricsRegistry::global());
        const char *attrib_out = std::getenv("ZKSPEED_ATTRIB_OUT");
        const char *attrib_path =
            attrib_out != nullptr && *attrib_out != '\0'
                ? attrib_out
                : "ATTRIB_report.json";
        std::string attrib_json = obs::attrib::render_json(attrib);
        obs::set_latest_attrib_json(attrib_json);  // /attrib goes live
        obs::write_file(attrib_path, attrib_json);
        obs::dump_artifacts_to_env();
        std::printf("\nattribution: %zu job(s) joined, %zu kernel "
                    "group(s), report written to %s\n",
                    attrib.jobs_joined, attrib.kernels.size(),
                    attrib_path);
        for (const auto &row : attrib.kernels) {
            std::printf("  %-18s %8.2f ms measured  %8.2f ms modeled  "
                        "drift %.2f\n",
                        row.kernel.c_str(), row.measured_seconds * 1e3,
                        double(row.modeled_cycles) /
                            (sim::kClockGhz * 1e6),
                        row.drift_ratio);
        }
    }
    return ok > 0 && round_trip_ok ? 0 : 1;
}
