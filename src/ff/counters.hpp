/**
 * @file
 * Global instrumentation counters for modular multiplications.
 *
 * Table 1 of the zkSpeed paper characterises HyperPlonk kernels by modmul
 * count and arithmetic intensity (modmuls per byte). Every Montgomery
 * multiplication performed by the library increments one of these counters,
 * letting the Table-1 benchmark measure the real kernel costs of our own
 * prover. The single-add overhead is negligible next to a 4x4 or 6x6 limb
 * multiply.
 *
 * A second tally, `parallel`, counts the subset of those multiplications
 * that ran inside a multi-chunk ff::parallel_for region (the caller's own
 * chunks plus the deltas migrated from pool workers). total - parallel is
 * the exact serial share of a kernel under a worker budget, which is what
 * the thread-budget gate in tests/test_parallel.cpp asserts on.
 *
 * A third tally, `inversions`, counts field inversions per field. An
 * inversion's own muls (about 610 Fq or 419 Fr for Fermat) still land in
 * `counts`; the tally says how many of them there were, so a kernel's
 * inversion share is visible without a profiler.
 */
#pragma once

#include <cstdint>

namespace zkspeed::ff {

/** Counter indices per base field. */
enum class CounterTag : int {
    fr = 0,   ///< 255-bit scalar-field multiplications
    fq = 1,   ///< 381-bit base-field multiplications
};

struct ModmulCounters {
    uint64_t counts[2] = {0, 0};
    uint64_t parallel[2] = {0, 0};  ///< subset run in multi-chunk regions
    uint64_t inversions[2] = {0, 0};  ///< field inversions, per field

    uint64_t fr() const { return counts[0]; }
    uint64_t fq() const { return counts[1]; }
    uint64_t inv_fr() const { return inversions[0]; }
    uint64_t inv_fq() const { return inversions[1]; }
    uint64_t total() const { return counts[0] + counts[1]; }
    void reset() { *this = ModmulCounters{}; }
};

/** Thread-local counter instance used by all field multiplications. */
inline ModmulCounters &
modmul_counters()
{
    thread_local ModmulCounters c;
    return c;
}

/**
 * RAII scope that snapshots the counters on entry and exposes the delta.
 * Used by the kernel-profiling benches.
 */
class ModmulScope
{
  public:
    ModmulScope() : start_(modmul_counters()) {}

    uint64_t
    fr_delta() const
    {
        return modmul_counters().fr() - start_.fr();
    }

    uint64_t
    fq_delta() const
    {
        return modmul_counters().fq() - start_.fq();
    }

    uint64_t total_delta() const { return fr_delta() + fq_delta(); }

    /** Fr inversions since entry. */
    uint64_t
    inv_fr_delta() const
    {
        return modmul_counters().inv_fr() - start_.inv_fr();
    }

    /** Fq inversions since entry. */
    uint64_t
    inv_fq_delta() const
    {
        return modmul_counters().inv_fq() - start_.inv_fq();
    }

    /** Of fr_delta(), the muls that ran inside multi-chunk regions. */
    uint64_t
    parallel_fr_delta() const
    {
        return modmul_counters().parallel[0] - start_.parallel[0];
    }

    /** Of fq_delta(), the muls that ran inside multi-chunk regions. */
    uint64_t
    parallel_fq_delta() const
    {
        return modmul_counters().parallel[1] - start_.parallel[1];
    }

  private:
    ModmulCounters start_;
};

}  // namespace zkspeed::ff
