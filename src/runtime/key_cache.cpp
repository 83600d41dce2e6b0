#include "runtime/key_cache.hpp"

#include <algorithm>
#include <random>

namespace zkspeed::runtime {

using hyperplonk::CircuitIndex;

KeyCache::KeyCache(size_t capacity, uint64_t srs_seed)
    : capacity_(std::max<size_t>(1, capacity)), srs_seed_(srs_seed)
{}

std::shared_ptr<const pcs::Srs>
KeyCache::srs_for(size_t num_vars)
{
    std::shared_ptr<SrsSlot> slot;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto &s = srs_by_vars_[num_vars];
        if (!s) s = std::make_shared<SrsSlot>();
        slot = s;
    }
    // Deterministic per-size ceremony: same seed -> same SRS -> the
    // same circuit proves to identical bytes on every instance. Only
    // callers asking for this size wait on it.
    std::call_once(slot->once, [&] {
        std::mt19937_64 rng(srs_seed_ ^ (0x9e3779b97f4a7c15ULL * num_vars));
        slot->srs =
            std::make_shared<pcs::Srs>(pcs::Srs::generate(num_vars, rng));
    });
    return slot->srs;
}

std::pair<KeyCache::Keys, bool>
KeyCache::get_or_create(const CircuitIndex &circuit)
{
    std::shared_ptr<Entry> entry;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = std::find_if(lru_.begin(), lru_.end(), [&](const auto &e) {
            const CircuitIndex &r = *e->circuit;
            // Header fields first: they settle most misses without
            // reading a table.
            return r.num_vars == circuit.num_vars &&
                   r.num_public == circuit.num_public &&
                   r.custom_gates == circuit.custom_gates &&
                   r.has_lookup == circuit.has_lookup &&
                   r.table_row_counts == circuit.table_row_counts &&
                   r == circuit;
        });
        if (it == lru_.end()) {
            entry = std::make_shared<Entry>();
            entry->circuit = &circuit;
            lru_.push_front(entry);
        } else {
            entry = *it;
            lru_.splice(lru_.begin(), lru_, it);
            if (entry->built) {
                ++stats_.hits;
                return {entry->keys, true};
            }
        }
        // An in-flight build still counts a miss.
        ++stats_.misses;
    }

    // Per-entry lock: other circuits keygen in parallel, concurrent
    // misses on this circuit serialise here and build exactly once.
    std::lock_guard<std::mutex> build(entry->build_mu);
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (entry->built) return {entry->keys, false};
    }
    Keys keys;
    try {
        auto [pk, vk] =
            hyperplonk::keygen(circuit, srs_for(circuit.num_vars));
        keys.pk =
            std::make_shared<const hyperplonk::ProvingKey>(std::move(pk));
        keys.vk =
            std::make_shared<const hyperplonk::VerifyingKey>(std::move(vk));
    } catch (...) {
        // The entry may point at the circuit of the request that
        // inserted it, which can return now: unlist it. A waiter that
        // already holds it builds for itself.
        std::lock_guard<std::mutex> lock(mu_);
        lru_.remove(entry);
        throw;
    }
    std::lock_guard<std::mutex> lock(mu_);
    entry->keys = keys;
    entry->circuit = &keys.pk->index;
    entry->built = true;
    evict_locked();
    return {keys, false};
}

void
KeyCache::evict_locked()
{
    while (lru_.size() > capacity_) {
        // Evict the least-recently-used *built* entry; skip in-flight
        // builds (their workers hold the Entry alive regardless, but
        // dropping them would forget the dedup point).
        auto victim = std::find_if(lru_.rbegin(), lru_.rend(),
                                   [](const auto &e) { return e->built; });
        if (victim == lru_.rend()) break;
        size_t num_vars = (*victim)->circuit->num_vars;
        lru_.erase(std::next(victim).base());
        ++stats_.evictions;
        // The SRS of a size no entry uses any more goes too; srs_for
        // regenerates the same one on demand.
        if (std::none_of(lru_.begin(), lru_.end(), [&](const auto &e) {
                return e->circuit->num_vars == num_vars;
            })) {
            srs_by_vars_.erase(num_vars);
        }
    }
}

KeyCacheStats
KeyCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

size_t
KeyCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
}

}  // namespace zkspeed::runtime
