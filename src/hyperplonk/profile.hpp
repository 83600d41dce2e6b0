/**
 * @file
 * Per-kernel profiling of the prover (modmuls, bytes moved, wall time).
 *
 * The Table-1 benchmark reproduces the paper's kernel characterisation
 * (modmuls, input/output MB, arithmetic intensity) by wrapping each
 * prover step in a ProfileRegion. Counting is pull-based: regions read
 * the global modmul counters on entry/exit; byte counts are declared by
 * the instrumented code since they describe logical data movement
 * (table reads/writes), not allocator traffic.
 *
 * A region's only record is its trace span (category "prover"), nested
 * under the service's prove span in the Perfetto export. obs/attrib,
 * perfbench and bench_table1_intensity all read kernels from these
 * spans.
 */
#pragma once

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "ff/counters.hpp"
#include "obs/trace.hpp"

namespace zkspeed::hyperplonk {

/**
 * RAII region: captures modmul deltas and wall time; the instrumented
 * code declares logical bytes moved via add_bytes_*() and may attach
 * further numeric args. Records one span (category "prover") on exit.
 */
class ProfileRegion
{
  public:
    explicit ProfileRegion(std::string name)
        : name_(std::move(name)),
          start_(std::chrono::steady_clock::now())
    {}

    void add_bytes_in(uint64_t b) { bytes_in_ += b; }
    void add_bytes_out(uint64_t b) { bytes_out_ += b; }

    /** Extra span arg, recorded after the five standard ones. */
    void
    arg(std::string key, double value)
    {
        extra_args_.emplace_back(std::move(key), value);
    }

    ~ProfileRegion()
    {
        auto end = std::chrono::steady_clock::now();
        // Per-span counter deltas ride as numeric span attributes:
        // rendered into Chrome-trace `args` for Perfetto, and joined
        // per kernel per job by obs/attrib. inv_fq says how many of the
        // Fq muls went to field inversions (about 610 each).
        std::vector<std::pair<std::string, double>> args = {
            {"modmul_fr", double(scope_.fr_delta())},
            {"modmul_fq", double(scope_.fq_delta())},
            {"inv_fq", double(scope_.inv_fq_delta())},
            {"bytes_in", double(bytes_in_)},
            {"bytes_out", double(bytes_out_)}};
        for (auto &a : extra_args_) args.push_back(std::move(a));
        obs::Span::record_complete(std::move(name_), "prover", start_, end,
                                   0, 0, std::move(args));
    }

    ProfileRegion(const ProfileRegion &) = delete;
    ProfileRegion &operator=(const ProfileRegion &) = delete;

  private:
    std::string name_;
    ff::ModmulScope scope_;
    uint64_t bytes_in_ = 0;
    uint64_t bytes_out_ = 0;
    std::chrono::steady_clock::time_point start_;
    std::vector<std::pair<std::string, double>> extra_args_;
};

/** Canonical byte size of one Fr table entry (the paper counts 32 B). */
constexpr uint64_t kFrBytes = 32;
/** Byte size of an affine G1 point fetched as (X, Y) (paper Sec. 4.2.1). */
constexpr uint64_t kG1Bytes = 96;

}  // namespace zkspeed::hyperplonk
