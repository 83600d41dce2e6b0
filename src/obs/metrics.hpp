/**
 * @file
 * Process-wide metrics registry: named counters, gauges and
 * log-bucketed histograms, accumulated in per-thread shards so the
 * prover hot path records without ever taking a global lock.
 *
 * Design (DESIGN.md §10):
 *   - Registration (cold) takes the registry mutex once per series and
 *     returns a stable MetricId; record paths (hot) resolve their
 *     thread's shard through a thread-local cache and update relaxed
 *     atomics in cells only that thread writes. Snapshots lock each
 *     shard briefly and merge — recording threads never wait on a
 *     snapshot or on each other.
 *   - Shards outlive their threads: a worker that exits leaves its
 *     cumulative cells in the registry, so totals survive pool
 *     shutdown (a snapshot after ProofService::shutdown() still sees
 *     every job).
 *   - Gauges are registry-level single atomics (set semantics do not
 *     shard); counters and histograms shard and merge by summation.
 *   - `obs::set_enabled(false)` turns every record path into an early
 *     return — the instrumentation-overhead gate in
 *     bench_runtime_throughput measures against exactly this switch.
 *
 * Series identity is (name, sorted label set). Exposition (Prometheus
 * text / JSON) lives in obs/export.hpp.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace zkspeed::obs {

/** Process-wide instrumentation kill switch (metrics AND tracing). */
inline std::atomic<bool> g_obs_enabled{true};

inline bool
enabled()
{
    return g_obs_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on);

enum class MetricKind : uint8_t { counter = 0, gauge = 1, histogram = 2 };

const char *to_string(MetricKind k);

/** Stable handle returned by registration; indexes the snapshot. */
struct MetricId {
    uint32_t index = UINT32_MAX;
    bool valid() const { return index != UINT32_MAX; }
};

/** Sorted-by-key label pairs; part of the series identity. */
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/** One merged series in a Snapshot. */
struct MetricSnapshot {
    std::string name;
    LabelSet labels;
    std::string help;
    MetricKind kind = MetricKind::counter;
    uint64_t counter = 0;      ///< kind == counter
    double gauge = 0;          ///< kind == gauge
    HistogramSnapshot hist;    ///< kind == histogram

    /** Canonical `name{k="v",...}` (bare name when unlabelled). */
    std::string full_name() const;
};

/** A merged, point-in-time view of one registry. */
struct Snapshot {
    /** Indexed by MetricId::index (registration order). */
    std::vector<MetricSnapshot> metrics;

    const MetricSnapshot *find(const std::string &name,
                               const LabelSet &labels = {}) const;
    const MetricSnapshot *operator[](MetricId id) const;
};

class MetricsRegistry
{
  public:
    MetricsRegistry();
    ~MetricsRegistry();
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** The process-wide registry every subsystem folds into. */
    static MetricsRegistry &global();

    /**
     * Get-or-register a series (idempotent; the kind must match on
     * re-registration or the existing id is returned unchanged with the
     * original kind — series identity is name + labels).
     */
    MetricId counter(const std::string &name, const LabelSet &labels = {},
                     const std::string &help = "");
    MetricId gauge(const std::string &name, const LabelSet &labels = {},
                   const std::string &help = "");
    MetricId histogram(const std::string &name, const LabelSet &labels = {},
                       const std::string &help = "");

    /** Counter increment (hot path, shard-local, lock-free). */
    void add(MetricId id, uint64_t v = 1);
    /** Gauge set / delta (registry-level atomic). */
    void set(MetricId id, double v);
    void gauge_add(MetricId id, double delta);
    /** Histogram observation (hot path, shard-local, lock-free). */
    void observe(MetricId id, double v);

    /** Merge every shard into a point-in-time view. */
    Snapshot snapshot() const;

    /** Zero every cell and gauge (registrations survive). Benches and
     * tests only — this wipes every series in the registry. */
    void reset();

    size_t num_series() const;

  private:
    struct Shard;
    struct MetricDef {
        std::string name;
        LabelSet labels;
        std::string help;
        MetricKind kind = MetricKind::counter;
        uint32_t gauge_slot = UINT32_MAX;
    };

    MetricId get_or_register(MetricKind kind, const std::string &name,
                             const LabelSet &labels,
                             const std::string &help);
    Shard &local_shard();

    /** Unique per registry instance; keys the thread-local shard cache
     * (pointer identity alone could alias across create/destroy). */
    const uint64_t uid_;

    mutable std::mutex mu_;  ///< registration, shard list, defs
    std::vector<MetricDef> defs_;
    std::vector<std::shared_ptr<Shard>> shards_;

    /** Gauges: preallocated lock-free slots (set is not shardable). */
    static constexpr size_t kMaxGauges = 1024;
    std::unique_ptr<std::atomic<double>[]> gauge_slots_;
    uint32_t num_gauges_ = 0;
};

/** Canonical `name{k="v",...}` used by exposition and Snapshot::find. */
std::string format_series(const std::string &name, const LabelSet &labels);

/**
 * Register the static `zkspeed_build_info` info-style gauge on `reg`
 * and set it to 1. The label set carries the identity payload: wire
 * format version, enabled feature list and the soak/trace knobs read
 * from the environment at first use. MetricsRegistry::global() calls
 * this once on construction, so the series is present in every
 * exposition; like every gauge it is zeroed (not dropped) by reset().
 */
void register_build_info(MetricsRegistry &reg);

}  // namespace zkspeed::obs
