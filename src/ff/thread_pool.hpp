/**
 * @file
 * Persistent worker pool behind ff::parallel_for.
 *
 * The seed library spawned and joined fresh std::threads on every
 * parallel_for call, which taxed every sumcheck round and MSM window
 * with thread start-up latency. This pool keeps a set of long-lived
 * workers that service chunked range calls; a call enqueues its chunks,
 * the calling thread itself executes chunks (so progress never depends
 * on a free worker), and idle workers steal the rest.
 *
 * Contract (same as the fork-join version it replaces):
 *  - the chunk partition of [0, n) is a pure function of (n, chunks),
 *    never of which thread runs a chunk, so deterministic merges give
 *    bit-identical results at any worker count;
 *  - modmul and inversion counters are exact: chunks run on pool
 *    workers measure their counter delta and migrate it back to the
 *    caller, chunks run inline on the calling thread count directly;
 *    the modmuls of both also land in the caller's `parallel` tally
 *    (ff/counters.hpp);
 *  - chunks execute with worker_budget() == 1 so a kernel that nests
 *    parallel_for runs its inner loops inline instead of forking a
 *    second level.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "ff/counters.hpp"

namespace zkspeed::ff {

inline size_t &
worker_budget()
{
    thread_local size_t n = 0;
    return n;
}

class WorkerPool
{
  public:
    /** One parallel_for invocation: a chunked range plus completion and
     * counter-migration state. Lives on the caller's stack; workers only
     * hold a pointer between claiming a chunk and marking it done, both
     * of which happen under the pool mutex while the caller is still
     * waiting, so the pointer can never dangle. */
    struct Call {
        const std::function<void(size_t, size_t)> *fn = nullptr;
        size_t n = 0;
        size_t per = 0;
        size_t chunks = 0;
        size_t next = 0;  ///< next unclaimed chunk (guarded by pool mutex)
        size_t done = 0;  ///< finished chunks (guarded by pool mutex)
        std::atomic<uint64_t> migrated_fr{0};
        std::atomic<uint64_t> migrated_fq{0};
        std::atomic<uint64_t> migrated_inv_fr{0};
        std::atomic<uint64_t> migrated_inv_fq{0};
    };

    static WorkerPool &
    instance()
    {
        static WorkerPool pool;
        return pool;
    }

    /**
     * Run fn over ceil-partitioned chunks of [0, n). At most `chunks`
     * threads (the caller plus pool workers) execute concurrently, so a
     * caller's worker budget bounds its parallelism exactly as before.
     * Blocks until every chunk has finished; worker-side modmul deltas
     * are migrated into the caller's counters before returning, and
     * every mul of the region is tallied as parallel.
     */
    void
    run(size_t n, const std::function<void(size_t, size_t)> &fn,
        size_t chunks)
    {
        Call call;
        call.fn = &fn;
        call.n = n;
        call.chunks = chunks;
        call.per = (n + chunks - 1) / chunks;
        {
            std::lock_guard<std::mutex> lock(mu_);
            // The caller runs one chunk at a time itself; keep enough
            // workers around for the rest (old behaviour: a request for
            // W workers really ran on W threads, cores notwithstanding).
            ensure_workers_locked(chunks - 1);
            active_.push_back(&call);
        }
        work_cv_.notify_all();
        const ModmulCounters before = modmul_counters();
        // The caller participates: claim and run chunks until none are
        // left, so the call completes even with zero free workers.
        for (;;) {
            size_t idx;
            {
                std::lock_guard<std::mutex> lock(mu_);
                if (call.next >= call.chunks) break;
                idx = call.next++;
            }
            run_chunk(call, idx, /*on_worker=*/false);
            finish_chunk(call);
        }
        {
            std::unique_lock<std::mutex> lock(mu_);
            done_cv_.wait(lock, [&] { return call.done == call.chunks; });
        }
        // Migrate worker-thread counter deltas into the caller, then
        // tally the whole region (its own chunks included) as parallel.
        ModmulCounters &c = modmul_counters();
        c.counts[0] += call.migrated_fr.load();
        c.counts[1] += call.migrated_fq.load();
        c.inversions[0] += call.migrated_inv_fr.load();
        c.inversions[1] += call.migrated_inv_fq.load();
        for (int t = 0; t < 2; ++t) {
            c.parallel[t] += c.counts[t] - before.counts[t];
        }
    }

    size_t
    worker_count()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return threads_.size();
    }

  private:
    WorkerPool() = default;

    ~WorkerPool()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        work_cv_.notify_all();
        for (auto &t : threads_) t.join();
    }

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Grow the pool to at least `want` workers (capped; callers asking
     * for more parallelism than the cap still complete — the caller
     * thread drains whatever the pool doesn't pick up). */
    void
    ensure_workers_locked(size_t want)
    {
        constexpr size_t kMaxWorkers = 128;
        want = std::min(want, kMaxWorkers);
        while (threads_.size() < want) {
            threads_.emplace_back([this] { worker_loop(); });
        }
    }

    void
    worker_loop()
    {
        for (;;) {
            Call *call = nullptr;
            size_t idx = 0;
            {
                std::unique_lock<std::mutex> lock(mu_);
                work_cv_.wait(lock, [&] {
                    if (stop_) return true;
                    for (Call *c : active_) {
                        if (c->next < c->chunks) return true;
                    }
                    return false;
                });
                if (stop_) return;
                for (Call *c : active_) {
                    if (c->next < c->chunks) {
                        call = c;
                        idx = c->next++;
                        break;
                    }
                }
                if (call == nullptr) continue;
            }
            run_chunk(*call, idx, /*on_worker=*/true);
            finish_chunk(*call);
        }
    }

    void
    run_chunk(Call &call, size_t idx, bool on_worker)
    {
        size_t begin = idx * call.per;
        size_t end = std::min(call.n, begin + call.per);
        if (begin >= end) return;
        size_t saved_budget = worker_budget();
        worker_budget() = 1;
        if (on_worker) {
            // Counters are thread-local; measure this chunk's delta and
            // migrate it so the caller's instrumentation stays exact.
            ModmulScope scope;
            (*call.fn)(begin, end);
            call.migrated_fr += scope.fr_delta();
            call.migrated_fq += scope.fq_delta();
            call.migrated_inv_fr += scope.inv_fr_delta();
            call.migrated_inv_fq += scope.inv_fq_delta();
        } else {
            // Inline on the caller: muls already land on its counters.
            (*call.fn)(begin, end);
        }
        worker_budget() = saved_budget;
    }

    void
    finish_chunk(Call &call)
    {
        bool complete;
        {
            std::lock_guard<std::mutex> lock(mu_);
            complete = (++call.done == call.chunks);
            if (complete) {
                for (size_t i = 0; i < active_.size(); ++i) {
                    if (active_[i] == &call) {
                        active_.erase(active_.begin() + i);
                        break;
                    }
                }
            }
        }
        if (complete) done_cv_.notify_all();
    }

    std::mutex mu_;
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    std::vector<Call *> active_;
    std::vector<std::thread> threads_;
    bool stop_ = false;
};

}  // namespace zkspeed::ff
