#include "obs/metrics.hpp"

#include "obs/build_info.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <unordered_map>

namespace zkspeed::obs {

namespace {

/** CAS add for atomic<double> (relaxed; merged under the shard lock). */
void
atomic_add(std::atomic<double> &a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (!a.compare_exchange_weak(cur, cur + v,
                                    std::memory_order_relaxed)) {
    }
}

void
atomic_min(std::atomic<double> &a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (v < cur && !a.compare_exchange_weak(cur, v,
                                               std::memory_order_relaxed)) {
    }
}

void
atomic_max(std::atomic<double> &a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (v > cur && !a.compare_exchange_weak(cur, v,
                                               std::memory_order_relaxed)) {
    }
}

std::atomic<uint64_t> g_next_registry_uid{1};

LabelSet
sorted(LabelSet labels)
{
    std::sort(labels.begin(), labels.end());
    return labels;
}

}  // namespace

RecordCounts
RecordCounts::operator-(const RecordCounts &base) const
{
    return {spans - base.spans, counter_adds - base.counter_adds,
            observations - base.observations,
            gauge_writes - base.gauge_writes, log_events - base.log_events};
}

RecordCounts
record_counts()
{
    // The rings first: the first use of one writes its capacity gauge,
    // which must not land between two reads of a caller's delta.
    const uint64_t spans = TraceRecorder::global().recorded();
    const uint64_t log_events = LogRecorder::global().recorded();
    RecordCounts c = MetricsRegistry::global().record_counts();
    c.spans = spans;
    c.log_events = log_events;
    return c;
}

const char *
to_string(MetricKind k)
{
    switch (k) {
        case MetricKind::counter: return "counter";
        case MetricKind::gauge: return "gauge";
        case MetricKind::histogram: return "histogram";
    }
    return "?";
}

std::string
format_series(const std::string &name, const LabelSet &labels)
{
    if (labels.empty()) return name;
    std::string out = name + "{";
    bool first = true;
    for (const auto &[k, v] : labels) {
        if (!first) out += ",";
        first = false;
        out += k;
        out += "=\"";
        out += v;
        out += "\"";
    }
    out += "}";
    return out;
}

std::string
MetricSnapshot::full_name() const
{
    return format_series(name, labels);
}

const MetricSnapshot *
Snapshot::find(const std::string &name, const LabelSet &labels) const
{
    LabelSet want = sorted(labels);
    for (const auto &m : metrics) {
        if (m.name == name && m.labels == want) return &m;
    }
    return nullptr;
}

const MetricSnapshot *
Snapshot::operator[](MetricId id) const
{
    if (!id.valid() || id.index >= metrics.size()) return nullptr;
    return &metrics[id.index];
}

// ---------------------------------------------------------------------------
// Shards: one per (registry, thread). Only the owning thread writes a
// cell; snapshots read under the shard lock. Cells are relaxed atomics
// so a concurrent snapshot never tears a read. The growth path (first
// touch of a metric by a thread) takes the shard lock; steady-state
// record paths touch `cells_[id]` directly — the owner is the only
// mutator of the vector, and `ready_` publishes grown slots.
// ---------------------------------------------------------------------------

struct MetricsRegistry::Shard {
    struct Cell {
        explicit Cell(MetricKind k)
            : kind(k),
              min(std::numeric_limits<double>::infinity()),
              max(-std::numeric_limits<double>::infinity())
        {
            if (kind == MetricKind::histogram) {
                buckets = std::make_unique<std::atomic<uint64_t>[]>(
                    HistogramBuckets::kNumBuckets);
                for (size_t i = 0; i < HistogramBuckets::kNumBuckets; ++i) {
                    buckets[i].store(0, std::memory_order_relaxed);
                }
            }
        }
        MetricKind kind;
        std::atomic<uint64_t> count{0};  ///< counter value / hist count
        std::atomic<double> sum{0.0};
        std::atomic<double> min;
        std::atomic<double> max;
        std::unique_ptr<std::atomic<uint64_t>[]> buckets;

        void
        zero()
        {
            count.store(0, std::memory_order_relaxed);
            sum.store(0.0, std::memory_order_relaxed);
            min.store(std::numeric_limits<double>::infinity(),
                      std::memory_order_relaxed);
            max.store(-std::numeric_limits<double>::infinity(),
                      std::memory_order_relaxed);
            if (buckets) {
                for (size_t i = 0; i < HistogramBuckets::kNumBuckets; ++i) {
                    buckets[i].store(0, std::memory_order_relaxed);
                }
            }
        }
    };

    /** Owner-thread access; creates the cell on first touch. */
    Cell &
    cell(uint32_t idx, MetricKind kind)
    {
        if (idx < ready_.load(std::memory_order_acquire) &&
            cells_[idx] != nullptr) {
            return *cells_[idx];
        }
        std::lock_guard<std::mutex> lock(mu_);
        if (idx >= cells_.size()) cells_.resize(idx + 1);
        if (cells_[idx] == nullptr) {
            cells_[idx] = std::make_unique<Cell>(kind);
        }
        size_t r = ready_.load(std::memory_order_relaxed);
        if (idx + 1 > r) {
            ready_.store(idx + 1, std::memory_order_release);
        }
        return *cells_[idx];
    }

    /** Owner-thread access: count one record call of `kind`. Only the
     * owner writes, so a load and a store make an exact lock-free
     * increment. */
    void
    tally(Tally kind)
    {
        auto &n = tally_[kind];
        n.store(n.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    }

    std::mutex mu_;  ///< growth vs. snapshot/reset
    std::vector<std::unique_ptr<Cell>> cells_;
    std::atomic<size_t> ready_{0};
    /** Record calls by Tally kind; reset() keeps them. On its own
     * cache line: snapshots lock `mu_`, the owner bumps these. */
    alignas(64) std::atomic<uint64_t> tally_[3] = {};
};

MetricsRegistry::MetricsRegistry()
    : uid_(g_next_registry_uid.fetch_add(1)),
      gauge_slots_(std::make_unique<std::atomic<double>[]>(kMaxGauges))
{
    for (size_t i = 0; i < kMaxGauges; ++i) {
        gauge_slots_[i].store(0.0, std::memory_order_relaxed);
    }
}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry reg;
    static const bool info_init = [] {
        register_build_info(reg);
        return true;
    }();
    (void)info_init;
    return reg;
}

void
register_build_info(MetricsRegistry &reg)
{
    auto env_or = [](const char *name, const char *fallback) {
        const char *v = std::getenv(name);
        return std::string(v != nullptr && *v != '\0' ? v : fallback);
    };
    // Info-style gauge: the value is always 1; the payload is the label
    // set. `format` tracks the wire/serialization format version
    // (proof/vk/key-cache magics); the soak knobs make exported
    // artifacts self-describing about the run that produced them;
    // git/compiler/flags come from obs/build_info.hpp — the same
    // payload every artifact JSON embeds under "build".
    const BuildInfo &build = build_info();
    MetricId id = reg.gauge(
        "zkspeed_build_info",
        {{"compiler", build.compiler},
         {"features", build.features},
         {"flags", build.flags},
         {"format", build.format},
         {"git", build.git},
         {"keccak_rounds", env_or("ZKSPEED_KECCAK_ROUNDS", "1")},
         {"soak_mu_bump", env_or("ZKSPEED_SOAK_MU_BUMP", "0")},
         {"soak_seeds", env_or("ZKSPEED_SOAK_SEEDS", "2")}},
        "Static build/runtime identity (info-style gauge; value is "
        "always 1)");
    reg.set(id, 1.0);
}

MetricId
MetricsRegistry::get_or_register(MetricKind kind, const std::string &name,
                                 const LabelSet &labels,
                                 const std::string &help)
{
    LabelSet canon = sorted(labels);
    std::lock_guard<std::mutex> lock(mu_);
    for (uint32_t i = 0; i < defs_.size(); ++i) {
        if (defs_[i].name == name && defs_[i].labels == canon) {
            return MetricId{i, defs_[i].gauge_slot};
        }
    }
    MetricDef def;
    def.name = name;
    def.labels = std::move(canon);
    def.help = help;
    def.kind = kind;
    if (kind == MetricKind::gauge && num_gauges_ < kMaxGauges) {
        def.gauge_slot = num_gauges_++;
    }
    defs_.push_back(std::move(def));
    return MetricId{uint32_t(defs_.size() - 1), defs_.back().gauge_slot};
}

MetricId
MetricsRegistry::counter(const std::string &name, const LabelSet &labels,
                         const std::string &help)
{
    return get_or_register(MetricKind::counter, name, labels, help);
}

MetricId
MetricsRegistry::gauge(const std::string &name, const LabelSet &labels,
                       const std::string &help)
{
    return get_or_register(MetricKind::gauge, name, labels, help);
}

MetricId
MetricsRegistry::histogram(const std::string &name, const LabelSet &labels,
                           const std::string &help)
{
    return get_or_register(MetricKind::histogram, name, labels, help);
}

MetricsRegistry::Shard &
MetricsRegistry::local_shard()
{
    // Keyed by registry uid, not pointer, so a recreated registry at a
    // reused address never inherits a stale shard. Entries for dead
    // registries linger until thread exit (they pin only the shard).
    thread_local std::unordered_map<uint64_t, std::shared_ptr<Shard>> tls;
    auto it = tls.find(uid_);
    if (it != tls.end()) return *it->second;
    auto shard = std::make_shared<Shard>();
    {
        std::lock_guard<std::mutex> lock(mu_);
        shards_.push_back(shard);
    }
    tls.emplace(uid_, shard);
    return *shard;
}

void
MetricsRegistry::add(MetricId id, uint64_t v)
{
    if (!id.valid()) return;
    Shard &shard = local_shard();
    shard.tally(kCounterAdds);
    auto &cell = shard.cell(id.index, MetricKind::counter);
    cell.count.fetch_add(v, std::memory_order_relaxed);
}

void
MetricsRegistry::set(MetricId id, double v)
{
    if (id.gauge_slot >= kMaxGauges) return;
    local_shard().tally(kGaugeWrites);
    gauge_slots_[id.gauge_slot].store(v, std::memory_order_release);
}

void
MetricsRegistry::gauge_add(MetricId id, double delta)
{
    if (id.gauge_slot >= kMaxGauges) return;
    local_shard().tally(kGaugeWrites);
    atomic_add(gauge_slots_[id.gauge_slot], delta);
}

void
MetricsRegistry::observe(MetricId id, double v)
{
    if (!id.valid()) return;
    Shard &shard = local_shard();
    shard.tally(kObservations);
    auto &cell = shard.cell(id.index, MetricKind::histogram);
    cell.buckets[HistogramBuckets::index_for(v)].fetch_add(
        1, std::memory_order_relaxed);
    cell.count.fetch_add(1, std::memory_order_relaxed);
    atomic_add(cell.sum, v);
    atomic_min(cell.min, v);
    atomic_max(cell.max, v);
}

Snapshot
MetricsRegistry::snapshot() const
{
    std::vector<MetricDef> defs;
    std::vector<std::shared_ptr<Shard>> shards;
    {
        std::lock_guard<std::mutex> lock(mu_);
        defs = defs_;
        shards = shards_;
    }

    Snapshot snap;
    snap.metrics.resize(defs.size());
    std::vector<std::vector<uint64_t>> bucket_acc(defs.size());
    for (size_t i = 0; i < defs.size(); ++i) {
        auto &m = snap.metrics[i];
        m.name = defs[i].name;
        m.labels = defs[i].labels;
        m.help = defs[i].help;
        m.kind = defs[i].kind;
        if (m.kind == MetricKind::gauge &&
            defs[i].gauge_slot < kMaxGauges) {
            m.gauge = gauge_slots_[defs[i].gauge_slot].load(
                std::memory_order_acquire);
        }
        if (m.kind == MetricKind::histogram) {
            m.hist.min = std::numeric_limits<double>::infinity();
            m.hist.max = -std::numeric_limits<double>::infinity();
        }
    }

    // Merge shards in registration order of the shard list — counter
    // adds commute and per-shard sums are accumulated in a fixed order,
    // so identical recordings produce identical snapshots regardless of
    // thread interleaving (shard-merge determinism).
    for (const auto &shard : shards) {
        std::lock_guard<std::mutex> lock(shard->mu_);
        size_t n = std::min(shard->cells_.size(), defs.size());
        for (size_t i = 0; i < n; ++i) {
            const auto *cell = shard->cells_[i].get();
            if (cell == nullptr || cell->kind != defs[i].kind) continue;
            auto &m = snap.metrics[i];
            if (m.kind == MetricKind::counter) {
                m.counter +=
                    cell->count.load(std::memory_order_relaxed);
            } else if (m.kind == MetricKind::histogram) {
                uint64_t c = cell->count.load(std::memory_order_relaxed);
                if (c == 0) continue;
                m.hist.count += c;
                m.hist.sum += cell->sum.load(std::memory_order_relaxed);
                m.hist.min = std::min(
                    m.hist.min,
                    cell->min.load(std::memory_order_relaxed));
                m.hist.max = std::max(
                    m.hist.max,
                    cell->max.load(std::memory_order_relaxed));
                auto &acc = bucket_acc[i];
                if (acc.empty()) {
                    acc.assign(HistogramBuckets::kNumBuckets, 0);
                }
                for (size_t b = 0; b < HistogramBuckets::kNumBuckets;
                     ++b) {
                    acc[b] += cell->buckets[b].load(
                        std::memory_order_relaxed);
                }
            }
        }
    }

    for (size_t i = 0; i < defs.size(); ++i) {
        auto &m = snap.metrics[i];
        if (m.kind != MetricKind::histogram) continue;
        if (m.hist.count == 0) {
            m.hist.min = m.hist.max = 0.0;
            continue;
        }
        const auto &acc = bucket_acc[i];
        for (size_t b = 0; b < acc.size(); ++b) {
            if (acc[b] == 0) continue;
            m.hist.buckets.push_back(
                {b, HistogramBuckets::upper_bound(b), acc[b]});
        }
    }
    return snap;
}

void
MetricsRegistry::reset()
{
    std::vector<std::shared_ptr<Shard>> shards;
    {
        std::lock_guard<std::mutex> lock(mu_);
        shards = shards_;
        for (uint32_t i = 0; i < num_gauges_; ++i) {
            gauge_slots_[i].store(0.0, std::memory_order_relaxed);
        }
    }
    for (const auto &shard : shards) {
        std::lock_guard<std::mutex> lock(shard->mu_);
        for (auto &cell : shard->cells_) {
            if (cell) cell->zero();
        }
    }
}

RecordCounts
MetricsRegistry::record_counts() const
{
    std::vector<std::shared_ptr<Shard>> shards;
    {
        std::lock_guard<std::mutex> lock(mu_);
        shards = shards_;
    }
    RecordCounts c;
    for (const auto &shard : shards) {
        auto get = [&](Tally k) {
            return shard->tally_[k].load(std::memory_order_relaxed);
        };
        c.counter_adds += get(kCounterAdds);
        c.observations += get(kObservations);
        c.gauge_writes += get(kGaugeWrites);
    }
    return c;
}

}  // namespace zkspeed::obs
