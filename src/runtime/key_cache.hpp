/**
 * @file
 * Proving-key / SRS cache for the batch proving service.
 *
 * keygen commits to every selector and sigma table (nine MSMs), which
 * dwarfs proving time for small circuits, so a service proving the same
 * circuit shape repeatedly must pay it once. A lookup finds its entry by
 * exact equality with the resident circuit (header fields first, then
 * the tables), so a key is handed only to a byte-identical circuit. A
 * resident entry keeps no copy of its circuit: it compares against the
 * `index` its ProvingKey already holds.
 *
 * SRS handling: the service simulates the universal setup locally, one
 * SRS per variable count, derived from a configured seed so proofs are
 * reproducible across service instances (and across cache hit / miss
 * paths). Each size is generated once, behind its own once-flag, and a
 * size's SRS is dropped when its last resident key is evicted.
 * Eviction is LRU over fully-built entries; in-flight keygens are never
 * evicted and concurrent misses on the same circuit build the key once
 * while other workers wait on that entry alone. The cache-wide lock is
 * never held across a keygen or an SRS ceremony.
 */
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>

#include "hyperplonk/prover.hpp"

namespace zkspeed::runtime {

struct KeyCacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;

    double
    hit_rate() const
    {
        uint64_t n = hits + misses;
        return n == 0 ? 0.0 : double(hits) / double(n);
    }
};

class KeyCache
{
  public:
    struct Keys {
        std::shared_ptr<const hyperplonk::ProvingKey> pk;
        std::shared_ptr<const hyperplonk::VerifyingKey> vk;
    };

    /**
     * @param capacity max resident key pairs (>= 1).
     * @param srs_seed seed for the per-size simulated SRS ceremonies.
     */
    explicit KeyCache(size_t capacity, uint64_t srs_seed = 0x7a6b5eedULL);

    /**
     * Look up the keys for `circuit`, running keygen on a miss. The
     * bool is true on a cache hit. Thread-safe; concurrent misses on
     * the same circuit run keygen exactly once.
     */
    std::pair<Keys, bool> get_or_create(
        const hyperplonk::CircuitIndex &circuit);

    /** The (lazily generated) SRS for a given variable count. */
    std::shared_ptr<const pcs::Srs> srs_for(size_t num_vars);

    KeyCacheStats stats() const;
    size_t size() const;

  private:
    struct Entry {
        std::mutex build_mu;  ///< serialises keygen for this circuit
        /** The circuit this entry answers for: the building request's
         * until the keys are published, then `&keys.pk->index`. This
         * and the fields below are guarded by the cache-wide mu_. */
        const hyperplonk::CircuitIndex *circuit = nullptr;
        Keys keys;  ///< empty until built
        bool built = false;
    };
    struct SrsSlot {
        std::once_flag once;
        std::shared_ptr<const pcs::Srs> srs;
    };

    void evict_locked();

    const size_t capacity_;
    const uint64_t srs_seed_;

    mutable std::mutex mu_;
    /** Every entry, most recently used at the front. */
    std::list<std::shared_ptr<Entry>> lru_;
    std::map<size_t, std::shared_ptr<SrsSlot>> srs_by_vars_;
    KeyCacheStats stats_;
};

}  // namespace zkspeed::runtime
