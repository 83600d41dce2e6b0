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
 * Kernel profiles fold into the process-wide obs::MetricsRegistry as
 *   zkspeed_prover_kernel_modmuls_total{kernel=...}   (counter)
 *   zkspeed_prover_kernel_bytes_total{direction,kernel} (counter)
 *   zkspeed_prover_kernel_seconds{kernel=...}         (histogram,
 *       count = calls, sum = total seconds)
 * so they ride the same per-thread shards as the service metrics:
 * record_kernel() resolves its handles through a thread-local cache and
 * never takes a global lock in steady state, so concurrent provers do
 * not serialise on prover-step exits. The registry is the only store of
 * these totals; kernel_profiles() reads the Table-1 rows back out of a
 * snapshot. Regions also emit trace spans, nesting under the service's
 * prove span in the Perfetto export.
 */
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <unordered_map>

#include "ff/counters.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace zkspeed::hyperplonk {

/** One Table-1 row: accumulated statistics for one named kernel. */
struct KernelProfile {
    uint64_t modmuls = 0;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    uint64_t calls = 0;
    double seconds = 0.0;

    double
    arithmetic_intensity() const
    {
        uint64_t bytes = bytes_in + bytes_out;
        return bytes == 0 ? 0.0 : double(modmuls) / double(bytes);
    }
};

/**
 * Fold one kernel invocation into the global registry (the Table-1
 * series above). Handles resolve through a thread-local name cache; a
 * miss registers the series once, the only lock this path ever takes
 * (once per kernel per thread).
 */
inline void
record_kernel(const std::string &name, uint64_t modmuls, uint64_t bytes_in,
              uint64_t bytes_out, double seconds)
{
    if (!obs::enabled()) return;
    struct Handles {
        obs::MetricId modmuls, bytes_in, bytes_out, seconds;
    };
    thread_local std::unordered_map<std::string, Handles> cache;
    auto &reg = obs::MetricsRegistry::global();
    auto it = cache.find(name);
    if (it == cache.end()) {
        Handles h;
        h.modmuls = reg.counter(
            "zkspeed_prover_kernel_modmuls_total", {{"kernel", name}},
            "Modular multiplications per prover kernel (Table 1)");
        h.bytes_in = reg.counter(
            "zkspeed_prover_kernel_bytes_total",
            {{"kernel", name}, {"direction", "in"}},
            "Logical bytes moved per prover kernel (Table 1)");
        h.bytes_out = reg.counter(
            "zkspeed_prover_kernel_bytes_total",
            {{"kernel", name}, {"direction", "out"}},
            "Logical bytes moved per prover kernel (Table 1)");
        h.seconds = reg.histogram(
            "zkspeed_prover_kernel_seconds", {{"kernel", name}},
            "Wall seconds per prover-kernel invocation");
        it = cache.emplace(name, h).first;
    }
    const Handles &h = it->second;
    reg.add(h.modmuls, modmuls);
    reg.add(h.bytes_in, bytes_in);
    reg.add(h.bytes_out, bytes_out);
    reg.observe(h.seconds, seconds);
}

/**
 * The Table-1 view of a registry snapshot: per-kernel totals of the
 * series record_kernel() feeds. Kernels with no recorded call (e.g.
 * after MetricsRegistry::reset()) are left out.
 */
inline std::map<std::string, KernelProfile>
kernel_profiles(const obs::Snapshot &snap)
{
    auto label = [](const obs::MetricSnapshot &m,
                    const char *key) -> const std::string * {
        for (const auto &[k, v] : m.labels) {
            if (k == key) return &v;
        }
        return nullptr;
    };
    std::map<std::string, KernelProfile> out;
    for (const auto &m : snap.metrics) {
        const std::string *kernel = label(m, "kernel");
        if (kernel == nullptr) continue;
        if (m.name == "zkspeed_prover_kernel_modmuls_total") {
            out[*kernel].modmuls = m.counter;
        } else if (m.name == "zkspeed_prover_kernel_bytes_total") {
            const std::string *dir = label(m, "direction");
            if (dir == nullptr) continue;
            if (*dir == "in") out[*kernel].bytes_in = m.counter;
            else out[*kernel].bytes_out = m.counter;
        } else if (m.name == "zkspeed_prover_kernel_seconds") {
            out[*kernel].calls = m.hist.count;
            out[*kernel].seconds = m.hist.sum;
        }
    }
    std::erase_if(out, [](const auto &kv) { return kv.second.calls == 0; });
    return out;
}

/**
 * RAII region: captures modmul deltas and wall time; the instrumented
 * code declares logical bytes moved via add_bytes_*(). Each region is
 * also a trace span (category "prover").
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

    ~ProfileRegion()
    {
        auto end = std::chrono::steady_clock::now();
        double secs =
            std::chrono::duration<double>(end - start_).count();
        uint64_t fr = scope_.fr_delta();
        uint64_t fq = scope_.fq_delta();
        record_kernel(name_, fr + fq, bytes_in_, bytes_out_, secs);
        // Per-span counter deltas ride as numeric span attributes:
        // rendered into Chrome-trace `args` for Perfetto, and joined
        // per kernel per job by obs/attrib. inv_fq says how many of the
        // Fq muls went to field inversions (about 610 each).
        obs::Span::record_complete(
            std::move(name_), "prover", start_, end, 0, 0,
            {{"modmul_fr", double(fr)},
             {"modmul_fq", double(fq)},
             {"inv_fq", double(scope_.inv_fq_delta())},
             {"bytes_in", double(bytes_in_)},
             {"bytes_out", double(bytes_out_)}});
    }

    ProfileRegion(const ProfileRegion &) = delete;
    ProfileRegion &operator=(const ProfileRegion &) = delete;

  private:
    std::string name_;
    ff::ModmulScope scope_;
    uint64_t bytes_in_ = 0;
    uint64_t bytes_out_ = 0;
    std::chrono::steady_clock::time_point start_;
};

/** Canonical byte size of one Fr table entry (the paper counts 32 B). */
constexpr uint64_t kFrBytes = 32;
/** Byte size of an affine G1 point fetched as (X, Y) (paper Sec. 4.2.1). */
constexpr uint64_t kG1Bytes = 96;

}  // namespace zkspeed::hyperplonk
