#include "runtime/service.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string_view>

#include "ff/parallel.hpp"
#include "hyperplonk/serialize.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace zkspeed::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double
ms_since(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Distinguishes each instance's series in the process registry. */
std::atomic<uint32_t> g_next_instance{0};

/** Status label index: 0 = ok, 1 = rejected, 2 = failed. */
int
status_bucket(JobStatus s)
{
    switch (s) {
        case JobStatus::ok: return 0;
        case JobStatus::malformed_request:
        case JobStatus::unsatisfiable:
        case JobStatus::too_large:
        case JobStatus::invalid_proof: return 1;
        case JobStatus::internal_error:
        case JobStatus::cancelled: return 2;
    }
    return 2;
}

/** True when ZKSPEED_FAULT_INJECT names this stage (test/CI hook for
 * exercising the worker-exception flight-recorder path). */
bool
fault_injected(const char *stage)
{
    const char *v = std::getenv("ZKSPEED_FAULT_INJECT");
    return v != nullptr && std::string_view(v) == stage;
}

/** Worker catch-site hook: one structured log line + a flight-recorder
 * snapshot, so a crashing job class is diagnosable post-mortem even
 * when the process survives (workers are crash-isolated per job). */
void
note_worker_exception(const char *where, const std::string &what)
{
    obs::logf(obs::LogLevel::error, "service", 0,
              "worker exception in %s: %s", where, what.c_str());
    obs::flight::note_worker_exception(where, what.c_str());
}

}  // namespace

ProofService::ProofService(ServiceConfig cfg)
    : cfg_(cfg),
      instance_("svc" + std::to_string(g_next_instance.fetch_add(1))),
      tele_(register_telemetry()),
      queue_(std::max<size_t>(1, cfg.queue_capacity)),
      cache_(cfg.key_cache_capacity, cfg.srs_seed)
{
    cfg_.num_workers = std::max<size_t>(1, cfg_.num_workers);
    cfg_.verify_batch_size = std::max<size_t>(1, cfg_.verify_batch_size);
    size_t total = cfg_.total_parallelism != 0
                       ? cfg_.total_parallelism
                       : std::max<size_t>(
                             1, std::thread::hardware_concurrency());
    per_worker_budget_ = std::max<size_t>(1, total / cfg_.num_workers);
    if (!cfg_.start_paused) start();
}

ProofService::Telemetry
ProofService::register_telemetry() const
{
    Telemetry tele;
    auto &reg = obs::MetricsRegistry::global();
    const std::pair<std::string, std::string> svc{"service", instance_};
    static const char *kClass[2] = {"prove", "verify"};
    static const char *kStatus[3] = {"ok", "rejected", "failed"};
    for (int c = 0; c < 2; ++c) {
        for (int s = 0; s < 3; ++s) {
            tele.latency[c][s] = reg.histogram(
                "zkspeed_job_latency_ms",
                {svc, {"class", kClass[c]}, {"status", kStatus[s]}},
                "End-to-end job latency (submit -> response), every "
                "terminal job including rejected/failed ones");
        }
        tele.queue_ms[c] = reg.histogram(
            "zkspeed_job_queue_ms", {svc, {"class", kClass[c]}},
            "Submit -> worker-pickup wait per job");
        tele.active_ms[c] = reg.histogram(
            "zkspeed_job_active_ms", {svc, {"class", kClass[c]}},
            "Worker-active time per job (prove / algebraic verify)");
    }
    tele.modmul_fr =
        reg.counter("zkspeed_modmuls_total", {svc, {"field", "fr"}},
                    "Modular multiplications across all jobs");
    tele.modmul_fq =
        reg.counter("zkspeed_modmuls_total", {svc, {"field", "fq"}},
                    "Modular multiplications across all jobs");
    tele.cache_hits =
        reg.counter("zkspeed_key_cache_hits_total", {svc},
                    "Jobs that found their proving key resident");
    tele.proof_bytes =
        reg.counter("zkspeed_proof_bytes_total", {svc},
                    "Canonical proof bytes produced");
    tele.flush_ms = reg.histogram(
        "zkspeed_verify_flush_ms", {svc},
        "Wall time of each folded batch-verify flush");
    tele.batch_size = reg.histogram(
        "zkspeed_verify_batch_size", {svc},
        "Proofs folded per batch-verify flush");
    tele.flush_reason[0] = reg.counter(
        "zkspeed_verify_flushes_total", {svc, {"reason", "size"}},
        "Batch flushes by trigger");
    tele.flush_reason[1] = reg.counter(
        "zkspeed_verify_flushes_total", {svc, {"reason", "timeout"}},
        "Batch flushes by trigger (timeout includes shutdown drains)");
    tele.verdicts[0] = reg.counter(
        "zkspeed_verify_verdicts_total", {svc, {"verdict", "accepted"}},
        "Per-proof batch-verify verdicts");
    tele.verdicts[1] = reg.counter(
        "zkspeed_verify_verdicts_total", {svc, {"verdict", "rejected"}},
        "Per-proof batch-verify verdicts");
    tele.pairing_checks = reg.counter(
        "zkspeed_verify_pairing_checks_total", {svc},
        "Pairing checks run, bisection probes included");
    tele.bisection_steps = reg.counter(
        "zkspeed_verify_bisection_steps_total", {svc},
        "Bisection probes isolating rejected proofs");
    tele.msm_points = reg.counter(
        "zkspeed_verify_msm_points_total", {svc},
        "Folded RLC MSM points across all flushes");
    tele.queue_depth =
        reg.gauge("zkspeed_queue_depth", {svc},
                  "Jobs waiting in the admission queue");
    tele.busy_workers = reg.gauge(
        "zkspeed_busy_workers", {svc}, "Workers currently running a job");
    tele.utilization = reg.gauge(
        "zkspeed_worker_utilization", {svc},
        "busy_workers / num_workers, 0..1");
    tele.window_depth = reg.gauge(
        "zkspeed_verify_window_depth", {svc},
        "VERIFY jobs parked in the open batch window");
    tele.trace_evicted = reg.counter(
        "zkspeed_trace_entries_evicted_total", {svc},
        "Replay trace entries evicted from the bounded trace ring");
    return tele;
}

std::vector<std::string>
ProofService::telemetry_series() const
{
    std::vector<std::string> out;
    auto snap = obs::MetricsRegistry::global().snapshot();
    std::vector<obs::MetricId> ids;
    for (int c = 0; c < 2; ++c) {
        for (int s = 0; s < 3; ++s) ids.push_back(tele_.latency[c][s]);
        ids.push_back(tele_.queue_ms[c]);
        ids.push_back(tele_.active_ms[c]);
        ids.push_back(tele_.flush_reason[c]);
        ids.push_back(tele_.verdicts[c]);
    }
    for (obs::MetricId id :
         {tele_.modmul_fr, tele_.modmul_fq, tele_.cache_hits,
          tele_.proof_bytes, tele_.flush_ms, tele_.batch_size,
          tele_.pairing_checks, tele_.bisection_steps, tele_.msm_points,
          tele_.queue_depth, tele_.busy_workers, tele_.utilization,
          tele_.window_depth, tele_.trace_evicted}) {
        ids.push_back(id);
    }
    for (obs::MetricId id : ids) {
        const obs::MetricSnapshot *m = snap[id];
        if (m != nullptr) out.push_back(m->full_name());
    }
    return out;
}

void
ProofService::record_job_telemetry(const JobResponse &resp)
{
    if (!obs::enabled()) return;
    auto &reg = obs::MetricsRegistry::global();
    int cls = resp.kind == JobKind::verify ? 1 : 0;
    const JobMetrics &m = resp.metrics;
    reg.observe(tele_.latency[cls][status_bucket(resp.status)],
                m.total_ms);
    reg.observe(tele_.queue_ms[cls], m.queue_ms);
    reg.observe(tele_.active_ms[cls], m.prove_ms);
    if (m.modmul_fr != 0) reg.add(tele_.modmul_fr, m.modmul_fr);
    if (m.modmul_fq != 0) reg.add(tele_.modmul_fq, m.modmul_fq);
    if (m.key_cache_hit) reg.add(tele_.cache_hits);
    if (m.proof_bytes != 0) reg.add(tele_.proof_bytes, m.proof_bytes);
}

void
ProofService::set_worker_gauges(size_t busy)
{
    auto &reg = obs::MetricsRegistry::global();
    reg.set(tele_.busy_workers, double(busy));
    reg.set(tele_.utilization, double(busy) / double(cfg_.num_workers));
}

void
ProofService::set_queue_depth_gauge()
{
    obs::MetricsRegistry::global().set(tele_.queue_depth,
                                       double(queue_.size()));
}

ProofService::~ProofService() { shutdown(); }

void
ProofService::start()
{
    if (started_) return;
    started_ = true;
    workers_.reserve(cfg_.num_workers);
    for (size_t i = 0; i < cfg_.num_workers; ++i) {
        workers_.emplace_back(
            [this, i] { worker_loop(uint32_t(i)); });
    }
    flusher_ = std::thread([this] { flusher_loop(); });
}

std::future<JobResponse>
ProofService::submit(std::vector<uint8_t> request_bytes)
{
    // Classify before the push: push takes the job by value, so the
    // request bytes are gone (moved) whether or not it succeeds.
    JobKind kind =
        wire::classify_request(request_bytes).value_or(JobKind::prove);
    QueuedJob job;
    job.request = std::move(request_bytes);
    job.enqueued = Clock::now();
    auto future = job.promise.get_future();
    if (!queue_.push(std::move(job))) {
        // Shutting down (push only fails after close()): answer
        // directly instead of losing the promise.
        std::promise<JobResponse> p;
        future = p.get_future();
        JobResponse resp;
        resp.kind = kind;
        resp.status = JobStatus::cancelled;
        resp.error = "service is shutting down";
        // Same accounting as every other cancellation path.
        record_job_telemetry(resp);
        p.set_value(std::move(resp));
        return future;
    }
    set_queue_depth_gauge();
    return future;
}

std::optional<std::future<JobResponse>>
ProofService::try_submit(std::vector<uint8_t> request_bytes)
{
    QueuedJob job;
    job.request = std::move(request_bytes);
    job.enqueued = Clock::now();
    auto future = job.promise.get_future();
    if (!queue_.try_push(job)) return std::nullopt;
    set_queue_depth_gauge();
    return future;
}

std::future<JobResponse>
ProofService::submit(const JobRequest &request)
{
    return submit(wire::encode_request(request));
}

std::future<JobResponse>
ProofService::submit(const VerifyRequest &request)
{
    return submit(wire::encode_verify_request(request));
}

void
ProofService::shutdown()
{
    if (stopped_) return;
    stopped_ = true;
    queue_.close();
    if (!started_) {
        // Paused service: nobody will drain the queue; cancel directly.
        while (auto job = queue_.try_pop()) {
            JobResponse resp;
            resp.kind = wire::classify_request(job->request)
                            .value_or(JobKind::prove);
            resp.status = JobStatus::cancelled;
            resp.error = "service shut down before the job ran";
            finish(*job, std::move(resp));
        }
        obs::flush_all();  // shutdown artifacts (obs/export.hpp)
        return;
    }
    for (auto &t : workers_) {
        if (t.joinable()) t.join();
    }
    // Workers are gone, so no new verify jobs can be parked; tell the
    // flusher to drain whatever is left in the window and exit.
    {
        std::lock_guard<std::mutex> lock(window_mu_);
        draining_ = true;
    }
    window_cv_.notify_all();
    if (flusher_.joinable()) flusher_.join();
    obs::flush_all();
}

void
ProofService::worker_loop(uint32_t worker_id)
{
    // The worker's kernels fan out to this thread's budget only; with
    // W workers on C cores that is ~C/W threads each, so concurrent
    // proofs never oversubscribe the machine (two-level parallelism).
    ff::WorkerBudgetScope budget(per_worker_budget_);
    while (auto job = queue_.pop()) {
        set_queue_depth_gauge();
        set_worker_gauges(busy_workers_.fetch_add(1) + 1);
        handle(std::move(*job), worker_id);
        set_worker_gauges(busy_workers_.fetch_sub(1) - 1);
    }
}

void
ProofService::handle(QueuedJob &&job, uint32_t worker_id)
{
    auto kind = wire::classify_request(job.request);
    if (kind == JobKind::verify) {
        // True queue time: submit -> this worker picking the job up.
        // Rejected verify jobs short-circuit below and would otherwise
        // report queue_ms = 0, hiding queue pressure from the metrics.
        double queue_ms = ms_since(job.enqueued);
        JobResponse resp;
        resp.kind = JobKind::verify;
        resp.metrics.queue_ms = queue_ms;
        std::optional<PendingVerify> parked;
        try {
            parked = process_verify(job, resp);
        } catch (const std::exception &e) {
            parked.reset();
            resp.status = JobStatus::internal_error;
            resp.error = e.what();
            note_worker_exception("verify", resp.error);
        } catch (...) {
            parked.reset();
            resp.status = JobStatus::internal_error;
            resp.error = "unknown exception while verifying";
            note_worker_exception("verify", resp.error);
        }
        if (parked.has_value()) {
            parked->metrics.worker_id = worker_id;
            park_verify(std::move(*parked));
            return;
        }
        resp.metrics.worker_id = worker_id;
        resp.metrics.total_ms = ms_since(job.enqueued);
        finish(job, std::move(resp));
        return;
    }
    // PROVE, or an unknown magic (which fails strict decoding below and
    // is answered malformed_request — bad job kinds never kill workers).
    JobResponse resp;
    try {
        resp = process_prove(job);
    } catch (const std::exception &e) {
        resp = JobResponse{};
        resp.status = JobStatus::internal_error;
        resp.error = e.what();
        note_worker_exception("prove", resp.error);
    } catch (...) {
        resp = JobResponse{};
        resp.status = JobStatus::internal_error;
        resp.error = "unknown exception while proving";
        note_worker_exception("prove", resp.error);
    }
    resp.kind = JobKind::prove;
    resp.metrics.worker_id = worker_id;
    resp.metrics.queue_ms = resp.metrics.total_ms - resp.metrics.prove_ms;
    finish(job, std::move(resp));
}

JobResponse
ProofService::process_prove(QueuedJob &job)
{
    JobResponse resp;
    ff::ModmulScope muls;
    auto picked_up = Clock::now();

    auto decoded = wire::decode_request(job.request);
    if (!decoded.has_value()) {
        resp.status = JobStatus::malformed_request;
        resp.error = "request failed strict decoding";
        resp.metrics.total_ms = ms_since(job.enqueued);
        return resp;
    }
    JobRequest &req = *decoded;
    resp.request_id = req.request_id;
    resp.metrics.num_vars = uint32_t(req.circuit.num_vars);

    obs::Span job_span("prove.job", "service", req.request_id);
    obs::Span::record_complete("job.queue_wait", "service", job.enqueued,
                               picked_up, req.request_id, job_span.id());

    {
        obs::Span check_span("prove.witness_check", "service",
                             req.request_id);
        if (!req.witness.satisfies_gates(req.circuit) ||
            !req.witness.satisfies_wiring(req.circuit) ||
            !req.witness.satisfies_lookups(req.circuit)) {
            resp.status = JobStatus::unsatisfiable;
            resp.error = "witness does not satisfy the circuit";
            resp.metrics.total_ms = ms_since(job.enqueued);
            return resp;
        }
    }

    auto prove_start = Clock::now();
    bool cache_hit = false;
    try {
        if (fault_injected("prove")) {
            throw std::runtime_error(
                "fault injection: ZKSPEED_FAULT_INJECT=prove");
        }
        auto kc_start = Clock::now();
        auto [keys, hit] = cache_.get_or_create(req.circuit);
        obs::Span::record_complete("prove.key_cache", "service", kc_start,
                                   Clock::now(), req.request_id);
        cache_hit = hit;
        hyperplonk::Proof proof;
        {
            // Prover-phase spans (ProfileRegion, category "prover")
            // nest under this one via the thread-local span stack.
            obs::Span prove_span("prove.prove", "service", req.request_id);
            proof = hyperplonk::prove(*keys.pk, req.witness);
        }
        obs::Span encode_span("prove.encode", "service", req.request_id);
        resp.proof = hyperplonk::serde::serialize_proof(proof);
    } catch (const std::exception &e) {
        // Catch here rather than in handle() so the response keeps
        // the decoded request_id for correlation.
        resp.status = JobStatus::internal_error;
        resp.error = e.what();
        resp.metrics.total_ms = ms_since(job.enqueued);
        note_worker_exception("prove", resp.error);
        return resp;
    }

    resp.status = JobStatus::ok;
    resp.metrics.prove_ms = ms_since(prove_start);
    resp.metrics.total_ms = ms_since(job.enqueued);
    resp.metrics.key_cache_hit = cache_hit;
    resp.metrics.proof_bytes = resp.proof.size();
    resp.metrics.modmul_fr = muls.fr_delta();
    resp.metrics.modmul_fq = muls.fq_delta();

    TraceEntry entry;
    entry.kind = JobKind::prove;
    entry.request_id = req.request_id;
    entry.num_vars = uint32_t(req.circuit.num_vars);
    entry.prove_ms = resp.metrics.prove_ms;
    entry.key_cache_hit = cache_hit;
    for (const auto &w : req.witness.w) {
        for (size_t i = 0; i < w.size(); ++i) {
            if (w[i].is_zero()) ++entry.zero_scalars;
            else if (w[i].is_one()) ++entry.one_scalars;
            ++entry.total_scalars;
        }
    }
    entry.table_rows = req.circuit.table_rows;
    entry.per_table_rows = req.circuit.table_row_counts;
    entry.lookup_gates = req.circuit.num_lookup_gates();
    push_trace(std::move(entry));
    return resp;
}

std::optional<ProofService::PendingVerify>
ProofService::process_verify(QueuedJob &job, JobResponse &resp)
{
    ff::ModmulScope muls;
    auto picked_up = Clock::now();

    auto decoded = wire::decode_verify_request(job.request);
    if (!decoded.has_value()) {
        resp.status = JobStatus::malformed_request;
        resp.error = "verify request failed strict decoding";
        return std::nullopt;
    }
    VerifyRequest &req = *decoded;
    resp.request_id = req.request_id;

    obs::Span job_span("verify.job", "service", req.request_id);
    obs::Span::record_complete("job.queue_wait", "service", job.enqueued,
                               picked_up, req.request_id, job_span.id());

    auto vk = hyperplonk::serde::deserialize_verifying_key(req.vk);
    if (!vk.has_value()) {
        resp.status = JobStatus::malformed_request;
        resp.error = "verifying key failed strict decoding";
        return std::nullopt;
    }
    resp.metrics.num_vars = uint32_t(vk->num_vars);
    if (vk->num_vars > wire::kMaxRequestVars) {
        resp.status = JobStatus::too_large;
        resp.error = "verifying key exceeds the wire format's size cap";
        return std::nullopt;
    }

    auto proof = hyperplonk::serde::deserialize_proof(req.proof);
    if (!proof.has_value()) {
        resp.status = JobStatus::malformed_request;
        resp.error = "proof failed strict decoding";
        return std::nullopt;
    }

    // Algebraic stage (transcript, sumchecks, claimed evaluations) runs
    // inline on this worker; only the pairing check is deferred.
    auto alg_start = Clock::now();
    verifier::PairingAccumulator acc;
    bool algebraic_ok;
    {
        obs::Span alg_span("verify.algebraic", "service", req.request_id);
        algebraic_ok = hyperplonk::verify_deferred(*vk, req.public_inputs,
                                                   *proof, acc);
    }
    double alg_ms = ms_since(alg_start);
    if (!algebraic_ok) {
        resp.status = JobStatus::invalid_proof;
        resp.error = "algebraic verification checks failed";
        resp.metrics.prove_ms = alg_ms;
        resp.metrics.modmul_fr = muls.fr_delta();
        resp.metrics.modmul_fq = muls.fq_delta();
        return std::nullopt;
    }

    PendingVerify pending;
    pending.request_id = req.request_id;
    pending.promise = std::move(job.promise);
    pending.acc = std::move(acc);
    pending.enqueued = job.enqueued;
    pending.metrics.num_vars = uint32_t(vk->num_vars);
    // Queue time was measured at worker pickup (handle()); keep that
    // one definition whether the job is answered now or after a flush.
    pending.metrics.queue_ms = resp.metrics.queue_ms;
    pending.metrics.prove_ms = alg_ms;
    pending.metrics.modmul_fr = muls.fr_delta();
    pending.metrics.modmul_fq = muls.fq_delta();
    return pending;
}

void
ProofService::park_verify(PendingVerify pending)
{
    pending.parked = Clock::now();
    std::vector<PendingVerify> batch;
    size_t depth = 0;
    {
        std::lock_guard<std::mutex> lock(window_mu_);
        if (window_.empty()) window_opened_ = Clock::now();
        window_.push_back(std::move(pending));
        if (window_.size() >= cfg_.verify_batch_size) {
            batch.swap(window_);
        }
        depth = window_.size();
    }
    obs::MetricsRegistry::global().set(tele_.window_depth, double(depth));
    if (!batch.empty()) {
        flush_verify_batch(std::move(batch), /*timed_out=*/false);
    } else {
        // Wake the flusher so it arms the window deadline.
        window_cv_.notify_one();
    }
}

void
ProofService::flusher_loop()
{
    std::unique_lock<std::mutex> lock(window_mu_);
    for (;;) {
        if (window_.empty()) {
            if (draining_) return;
            window_cv_.wait(lock, [this] {
                return draining_ || !window_.empty();
            });
            continue;
        }
        auto deadline =
            window_opened_ +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(
                    cfg_.verify_batch_window_ms));
        if (!draining_ && Clock::now() < deadline) {
            window_cv_.wait_until(lock, deadline);
            continue;  // re-evaluate: batch may have been size-flushed
        }
        std::vector<PendingVerify> batch;
        batch.swap(window_);
        lock.unlock();
        flush_verify_batch(std::move(batch), /*timed_out=*/true);
        lock.lock();
    }
}

void
ProofService::flush_verify_batch(std::vector<PendingVerify> batch,
                                 bool timed_out)
{
    if (batch.empty()) return;
    obs::MetricsRegistry::global().set(tele_.window_depth, 0.0);
    auto flush_start = Clock::now();
    // Residency spans: parked -> flush start, one per folded job, so
    // Perfetto shows what each proof spent waiting in the window.
    for (const auto &p : batch) {
        obs::Span::record_complete("verify.window_wait", "service",
                                   p.parked, flush_start, p.request_id);
    }
    std::optional<verifier::BatchResult> result;
    std::string flush_error;
    try {
        obs::Span flush_span("verify.flush", "service");
        verifier::BatchVerifier bv;
        for (auto &p : batch) bv.add(std::move(p.acc));
        result = bv.flush();
    } catch (const std::exception &e) {
        flush_error = e.what();
    } catch (...) {
        flush_error = "unknown exception while flushing verify batch";
    }
    if (!flush_error.empty()) {
        note_worker_exception("verify_flush", flush_error);
    }
    if (!result.has_value()) {
        // Flush blew up (e.g. allocation failure): every parked job
        // still gets a response — the flush runs on worker and flusher
        // threads, where an escaped exception would kill the process.
        for (auto &p : batch) {
            JobResponse resp;
            resp.kind = JobKind::verify;
            resp.request_id = p.request_id;
            resp.metrics = p.metrics;
            resp.metrics.batch_size = uint32_t(batch.size());
            resp.metrics.total_ms = ms_since(p.enqueued);
            resp.status = JobStatus::internal_error;
            resp.error = flush_error;
            finish_response(p.promise, std::move(resp));
        }
        return;
    }
    double flush_ms = ms_since(flush_start);

    uint32_t max_vars = 0;
    size_t accepted = 0;
    for (const auto &p : batch) {
        max_vars = std::max(max_vars, p.metrics.num_vars);
    }
    for (size_t i = 0; i < batch.size(); ++i) {
        if (result->verdicts[i]) ++accepted;
    }

    if (obs::enabled()) {
        auto &reg = obs::MetricsRegistry::global();
        reg.observe(tele_.flush_ms, flush_ms);
        reg.observe(tele_.batch_size, double(batch.size()));
        reg.add(tele_.flush_reason[timed_out ? 1 : 0]);
        if (accepted != 0) reg.add(tele_.verdicts[0], accepted);
        if (accepted != batch.size()) {
            reg.add(tele_.verdicts[1], batch.size() - accepted);
        }
        reg.add(tele_.pairing_checks, result->stats.pairing_checks);
        reg.add(tele_.bisection_steps, result->stats.bisection_steps);
        reg.add(tele_.msm_points, result->stats.msm_points);
    }
    TraceEntry entry;
    entry.kind = JobKind::verify;
    entry.num_vars = max_vars;
    entry.batch_size = uint32_t(batch.size());
    entry.msm_points = result->stats.msm_points;
    entry.num_pairings = uint32_t(result->stats.num_pairings);
    entry.verify_ms = flush_ms;
    entry.pairing_ms = result->stats.pairing_ms;
    push_trace(std::move(entry));

    for (size_t i = 0; i < batch.size(); ++i) {
        JobResponse resp;
        resp.kind = JobKind::verify;
        resp.request_id = batch[i].request_id;
        resp.metrics = batch[i].metrics;
        resp.metrics.verify_ms = flush_ms;
        resp.metrics.batch_size = uint32_t(batch.size());
        resp.metrics.total_ms = ms_since(batch[i].enqueued);
        // queue_ms stays the submit -> worker-pickup time measured in
        // handle() (carried through PendingVerify); batch-window idle
        // is total - queue - prove - verify, not queue pressure.
        if (result->verdicts[i]) {
            resp.status = JobStatus::ok;
        } else {
            resp.status = JobStatus::invalid_proof;
            resp.error = "batch pairing check rejected this proof "
                         "(isolated by bisection)";
        }
        finish_response(batch[i].promise, std::move(resp));
    }
}

void
ProofService::finish(QueuedJob &job, JobResponse resp)
{
    finish_response(job.promise, std::move(resp));
}

void
ProofService::finish_response(std::promise<JobResponse> &promise,
                              JobResponse resp)
{
    // Readiness window first and unconditionally: /readyz must keep
    // answering truthfully with the telemetry kill switch off.
    uint64_t slot = terminal_jobs_.fetch_add(1, std::memory_order_relaxed);
    recent_failed_[slot % kReadinessWindow].store(
        status_bucket(resp.status) == 2 ? 1 : 0,
        std::memory_order_relaxed);
    record_job_telemetry(resp);
    promise.set_value(std::move(resp));
}

void
ProofService::push_trace(TraceEntry entry)
{
    bool evicted;
    {
        std::lock_guard<std::mutex> lock(trace_mu_);
        evicted = trace_.push(std::move(entry));
    }
    if (evicted) obs::MetricsRegistry::global().add(tele_.trace_evicted);
}

ServiceReadiness
ProofService::readiness() const
{
    ServiceReadiness r;
    r.workers_up = started_.load(std::memory_order_acquire) &&
                   !stopped_.load(std::memory_order_acquire);
    r.queue_depth = queue_.size();
    r.queue_capacity = std::max<size_t>(1, cfg_.queue_capacity);
    uint64_t seen = terminal_jobs_.load(std::memory_order_relaxed);
    size_t n = size_t(std::min<uint64_t>(seen, kReadinessWindow));
    size_t failed = 0;
    for (size_t i = 0; i < n; ++i) {
        failed += recent_failed_[i].load(std::memory_order_relaxed);
    }
    r.recent_error_ratio = n != 0 ? double(failed) / double(n) : 0.0;
    bool saturated = r.queue_depth >= r.queue_capacity;
    bool erroring = r.recent_error_ratio >= kReadinessErrorThreshold;
    r.ready = r.workers_up && !saturated && !erroring;
    if (!r.workers_up) {
        r.detail = "workers not running";
    } else if (saturated) {
        r.detail = "queue saturated (" + std::to_string(r.queue_depth) +
                   "/" + std::to_string(r.queue_capacity) + ")";
    } else if (erroring) {
        char buf[64];
        std::snprintf(buf, sizeof(buf),
                      "recent error ratio %.2f over last %zu jobs",
                      r.recent_error_ratio, n);
        r.detail = buf;
    }
    return r;
}

}  // namespace zkspeed::runtime
