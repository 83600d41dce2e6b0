/**
 * @file
 * Minimal data parallelism for prover kernels.
 *
 * parallel_for splits [0, n) into per-thread ranges executed on a
 * persistent worker pool (ff/thread_pool.hpp) — the calling thread
 * participates, so calls never wait on a busy pool. Worker threads
 * migrate their thread-local modmul counters back to the caller so the
 * Table-1 instrumentation stays exact under parallel execution. Field
 * arithmetic is exact, so results are bit-identical to serial runs as
 * long as callers merge per-range partial results deterministically;
 * the chunk partition depends only on (n, item_modmuls, budget), never
 * on which thread runs a chunk.
 *
 * Grain rule: every caller states roughly how many modmuls one item
 * costs, and a region splits only into chunks that each carry at least
 * kGrainModmuls of work. There are no per-kernel size thresholds; a
 * kernel honours the caller's budget at every size where its work pays
 * for the dispatch.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <thread>

#include "ff/counters.hpp"
#include "ff/thread_pool.hpp"

namespace zkspeed::ff {

/** Default worker count: the hardware concurrency (at least 1). */
inline size_t
parallel_threads()
{
    static const size_t n =
        std::max(1u, std::thread::hardware_concurrency());
    return n;
}

/** Worker count after applying the calling thread's budget override.
 * worker_budget() (ff/thread_pool.hpp) is the thread-local override a
 * WorkerBudgetScope sets; 0 defers to the default. */
inline size_t
effective_parallelism()
{
    size_t budget = worker_budget();
    return budget != 0 ? budget : parallel_threads();
}

/**
 * Modmuls' worth of work one chunk must carry before a region splits.
 * Measured on a 4-core 2 GHz host: a 4-chunk parallel_for of empty
 * chunks, issued after enough serial work that the pool workers are
 * asleep (as between prover steps), takes 14-18 us from dispatch to
 * join, about 250 Fr muls at ~60 ns each. 1024 keeps that round trip
 * under a quarter of each chunk's work.
 */
inline constexpr size_t kGrainModmuls = 1024;

/**
 * Run fn(begin, end) over a partition of [0, n), where one item costs
 * about `item_modmuls` modular multiplications (or the equivalent
 * time). The region splits into at most the calling thread's budget of
 * chunks, each carrying at least kGrainModmuls of work; with less than
 * two grains of work, or a budget of 1, fn runs inline as fn(0, n).
 */
inline void
parallel_for(size_t n, size_t item_modmuls,
             const std::function<void(size_t, size_t)> &fn)
{
    const size_t chunks = std::min(
        {effective_parallelism(), n, n * item_modmuls / kGrainModmuls});
    if (chunks <= 1) {
        fn(0, n);
        return;
    }
    WorkerPool::instance().run(n, fn, chunks);
}

/**
 * RAII override of the *calling thread's* worker budget, the one way
 * to set it. It touches no shared state, so concurrent proofs on
 * different threads can carve up the machine without racing: a pool
 * of W runtime workers on C cores gives each worker a budget of about
 * C / W and the per-proof kernels stay within it. Budgets bound the
 * number of chunks a call enqueues on the shared WorkerPool, so a
 * budgeted proof still uses at most its share of threads at a time.
 */
class WorkerBudgetScope
{
  public:
    explicit WorkerBudgetScope(size_t n) : saved_(worker_budget())
    {
        worker_budget() = n;
    }
    ~WorkerBudgetScope() { worker_budget() = saved_; }

    WorkerBudgetScope(const WorkerBudgetScope &) = delete;
    WorkerBudgetScope &operator=(const WorkerBudgetScope &) = delete;

  private:
    size_t saved_;
};

}  // namespace zkspeed::ff
