/**
 * @file
 * The batch proving/verification service: a worker pool pulling encoded
 * requests from a bounded queue and serving mixed PROVE/VERIFY traffic.
 *
 * Two-level parallelism (see DESIGN.md "Runtime"): the pool schedules
 * whole proofs across workers, and each worker carves its share of the
 * machine out of a total core budget via ff::WorkerBudgetScope, so the
 * per-proof kernels (`ff::parallel_for` inside MSM / sumcheck) never
 * oversubscribe the host while concurrent proofs run.
 *
 * VERIFY jobs are coalesced in a batch window: a worker runs the
 * per-proof algebraic checks inline (parallel across workers), parks
 * the deferred pairing accumulator, and the window flushes through one
 * folded BatchVerifier check when it reaches `verify_batch_size` or
 * when the oldest parked job has waited `verify_batch_window_ms` (a
 * dedicated flusher thread enforces the deadline, so a lone verify job
 * never waits for traffic that isn't coming).
 *
 * Workers are crash-isolated per job: decode failures, witness
 * mismatches and unexpected exceptions all turn into error responses;
 * the worker thread survives and moves to the next job.
 */
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/ring.hpp"
#include "runtime/job.hpp"
#include "runtime/key_cache.hpp"
#include "runtime/queue.hpp"
#include "runtime/wire.hpp"
#include "verify/batch_verifier.hpp"

namespace zkspeed::runtime {

struct ServiceConfig {
    /** Proof-level workers. */
    size_t num_workers = 1;
    /** Jobs admitted before submitters feel backpressure. */
    size_t queue_capacity = 64;
    /**
     * Total kernel-thread budget split across workers (two-level
     * parallelism). 0 = one hardware thread per core. Each worker gets
     * max(1, total / num_workers).
     */
    size_t total_parallelism = 0;
    /** Resident proving keys (LRU beyond this). */
    size_t key_cache_capacity = 16;
    /** Seed of the simulated per-size SRS ceremonies. */
    uint64_t srs_seed = 0x7a6b5eedULL;
    /** VERIFY jobs folded per batch flush (the size trigger). */
    size_t verify_batch_size = 16;
    /** Max time a parked VERIFY job waits before a timeout flush. */
    double verify_batch_window_ms = 25.0;
    /**
     * Create the service with idle workers; call start() to run them.
     * Lets tests fill the queue deterministically first.
     */
    bool start_paused = false;
};

/**
 * Readiness probe answer (the /readyz formula, DESIGN.md §14):
 * ready = workers up AND queue below capacity AND the failed-job
 * ratio over the last `kReadinessWindow` terminal jobs under
 * `kReadinessErrorThreshold`. Rejected jobs (bad requests) do not
 * count against readiness — only `failed` ones (internal errors /
 * cancellations) signal an unhealthy instance.
 */
struct ServiceReadiness {
    bool ready = false;
    bool workers_up = false;
    size_t queue_depth = 0;
    size_t queue_capacity = 0;
    double recent_error_ratio = 0.0;
    /** Human-readable reason when not ready (empty when ready). */
    std::string detail;
};

class ProofService
{
  public:
    explicit ProofService(ServiceConfig cfg);
    ~ProofService();

    ProofService(const ProofService &) = delete;
    ProofService &operator=(const ProofService &) = delete;

    /** Launch the worker threads (no-op unless start_paused). */
    void start();

    /**
     * Enqueue encoded request bytes; blocks when the queue is full
     * (backpressure). The future resolves when a worker answers.
     */
    std::future<JobResponse> submit(std::vector<uint8_t> request_bytes);

    /**
     * Non-blocking enqueue. @return empty optional when the queue is
     * full or the service is shutting down.
     */
    std::optional<std::future<JobResponse>> try_submit(
        std::vector<uint8_t> request_bytes);

    /** Convenience: encode and enqueue a structured request. */
    std::future<JobResponse> submit(const JobRequest &request);

    /** Convenience: encode and enqueue a structured verify request. */
    std::future<JobResponse> submit(const VerifyRequest &request);

    /** Stop accepting work, drain the queue, join the workers. */
    void shutdown();

    /** Failed-job window size of the readiness formula. */
    static constexpr size_t kReadinessWindow = 64;
    /** Recent failed-job ratio at or above this flips /readyz to 503. */
    static constexpr double kReadinessErrorThreshold = 0.5;
    /** Evaluate the /readyz formula against live state (lock-free
     * reads; safe from the telemetry HTTP server's handler threads). */
    ServiceReadiness readiness() const;

    KeyCacheStats cache_stats() const { return cache_.stats(); }
    /** Trace entries kept for sim replay (one per proved job and per
     * verify flush); beyond this the oldest are evicted. */
    static constexpr size_t kTraceCapacity = 16384;
    /** Snapshot of the replayable trace, oldest entry first. */
    std::vector<TraceEntry>
    trace() const
    {
        std::lock_guard<std::mutex> lock(trace_mu_);
        return trace_.items();
    }
    size_t queue_depth() const { return queue_.size(); }
    const ServiceConfig &config() const { return cfg_; }
    /** Kernel-thread budget each worker proves under. */
    size_t worker_budget() const { return per_worker_budget_; }

    /**
     * `service` label value of this instance's registry series. The
     * registry is the only store of this instance's aggregates: e.g.
     * prove jobs ok = the count of zkspeed_job_latency_ms{class="prove",
     * service=instance_label(),status="ok"}.
     */
    const std::string &instance_label() const { return instance_; }
    /** Canonical `name{labels}` of every series this instance
     * registered (exposition-exhaustiveness tests sweep this). */
    std::vector<std::string> telemetry_series() const;

  private:
    struct QueuedJob {
        std::vector<uint8_t> request;
        std::promise<JobResponse> promise;
        std::chrono::steady_clock::time_point enqueued;
    };

    /** A VERIFY job parked in the batch window, algebraic checks done. */
    struct PendingVerify {
        uint64_t request_id = 0;
        std::promise<JobResponse> promise;
        verifier::PairingAccumulator acc;
        JobMetrics metrics;
        std::chrono::steady_clock::time_point enqueued;
        /** When it entered the batch window (residency trace span). */
        std::chrono::steady_clock::time_point parked;
    };

    /** MetricIds of this instance's registry series.
     * Class index: 0 = prove, 1 = verify. Status index: 0 = ok,
     * 1 = rejected, 2 = failed. */
    struct Telemetry {
        obs::MetricId latency[2][3];  ///< total_ms, ALL terminal jobs
        obs::MetricId queue_ms[2];
        obs::MetricId active_ms[2];
        obs::MetricId modmul_fr, modmul_fq;
        obs::MetricId cache_hits, proof_bytes;
        obs::MetricId flush_ms, batch_size;
        obs::MetricId flush_reason[2];  ///< 0 = size, 1 = timeout
        obs::MetricId verdicts[2];      ///< 0 = accepted, 1 = rejected
        obs::MetricId pairing_checks, bisection_steps, msm_points;
        obs::MetricId queue_depth, busy_workers, utilization,
            window_depth;
        obs::MetricId trace_evicted;
    };

    Telemetry register_telemetry() const;
    /** Fold one terminal job into the registry (all statuses). */
    void record_job_telemetry(const JobResponse &resp);
    void set_worker_gauges(size_t busy);
    void set_queue_depth_gauge();

    void worker_loop(uint32_t worker_id);
    /** Answer or park one job (VERIFY jobs park in the batch window). */
    void handle(QueuedJob &&job, uint32_t worker_id);
    JobResponse process_prove(QueuedJob &job);
    /** @return the parked job, or nullopt with `resp` filled in. */
    std::optional<PendingVerify> process_verify(QueuedJob &job,
                                               JobResponse &resp);
    void park_verify(PendingVerify pending);
    void flush_verify_batch(std::vector<PendingVerify> batch,
                            bool timed_out);
    void flusher_loop();
    void finish(QueuedJob &job, JobResponse resp);
    void finish_response(std::promise<JobResponse> &promise,
                         JobResponse resp);
    /** Append to the replay trace, counting an eviction on
     * zkspeed_trace_entries_evicted_total. */
    void push_trace(TraceEntry entry);

    ServiceConfig cfg_;
    size_t per_worker_budget_ = 1;
    std::string instance_;  ///< `service` label value (svc0, svc1, ...)
    const Telemetry tele_;
    BoundedQueue<QueuedJob> queue_;
    KeyCache cache_;
    std::vector<std::thread> workers_;
    std::thread flusher_;
    std::atomic<bool> started_{false};
    std::atomic<bool> stopped_{false};
    std::atomic<size_t> busy_workers_{0};

    /** Terminal-status ring behind readiness(): slot = job index mod
     * window, value 1 when the job failed. Updated in finish_response
     * before the job's promise is set. */
    std::array<std::atomic<uint8_t>, kReadinessWindow> recent_failed_{};
    std::atomic<uint64_t> terminal_jobs_{0};

    std::mutex window_mu_;
    std::condition_variable window_cv_;
    std::vector<PendingVerify> window_;
    std::chrono::steady_clock::time_point window_opened_;
    bool draining_ = false;

    mutable std::mutex trace_mu_;
    obs::Ring<TraceEntry> trace_{kTraceCapacity};
};

}  // namespace zkspeed::runtime
