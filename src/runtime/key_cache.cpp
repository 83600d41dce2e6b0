#include "runtime/key_cache.hpp"

#include <algorithm>
#include <random>

namespace zkspeed::runtime {

using hyperplonk::CircuitIndex;

hash::Digest
circuit_fingerprint(const CircuitIndex &circuit)
{
    hash::Sponge256 sponge;
    auto absorb_u64 = [&](uint64_t v) {
        uint8_t b[8];
        for (int i = 0; i < 8; ++i) b[i] = uint8_t(v >> (8 * i));
        sponge.absorb(std::span<const uint8_t>(b, 8));
    };
    auto absorb_table = [&](const mle::Mle &t) {
        std::vector<uint8_t> buf(t.size() * ff::Fr::kByteSize);
        for (size_t i = 0; i < t.size(); ++i) {
            t[i].to_bytes(buf.data() + i * ff::Fr::kByteSize);
        }
        sponge.absorb(buf);
    };
    sponge.absorb("zkspeed.circuit.v3");
    absorb_u64(circuit.num_vars);
    absorb_u64(circuit.num_public);
    absorb_u64(circuit.custom_gates ? 1 : 0);
    absorb_u64(circuit.has_lookup ? 1 : 0);
    for (const mle::Mle *t : {&circuit.q_l, &circuit.q_r, &circuit.q_m,
                              &circuit.q_o, &circuit.q_c, &circuit.q_h}) {
        absorb_table(*t);
    }
    for (const auto &s : circuit.sigma) absorb_table(s);
    if (circuit.has_lookup) {
        absorb_u64(circuit.table_row_counts.size());
        for (uint64_t rows : circuit.table_row_counts) absorb_u64(rows);
        // The bank tag column is bit-for-bit determined by the counts
        // (lookup::build_tag_column), so absorbing it would add 2^mu
        // elements of derivable data with no distinguishing power.
        absorb_table(circuit.q_lookup);
        for (const auto &t : circuit.table) absorb_table(t);
    }
    return sponge.finalize();
}

KeyCache::KeyCache(size_t capacity, uint64_t srs_seed)
    : capacity_(std::max<size_t>(1, capacity)), srs_seed_(srs_seed)
{}

std::shared_ptr<const pcs::Srs>
KeyCache::srs_for(size_t num_vars)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = srs_by_vars_.find(num_vars);
    if (it != srs_by_vars_.end()) return it->second;
    // Deterministic per-size ceremony: same seed -> same SRS -> the
    // same circuit proves to identical bytes on every instance.
    std::mt19937_64 rng(srs_seed_ ^ (0x9e3779b97f4a7c15ULL * num_vars));
    auto srs =
        std::make_shared<pcs::Srs>(pcs::Srs::generate(num_vars, rng));
    srs_by_vars_.emplace(num_vars, srs);
    return srs;
}

std::pair<KeyCache::Keys, bool>
KeyCache::get_or_create(const CircuitIndex &circuit)
{
    hash::Digest key = circuit_fingerprint(circuit);
    std::shared_ptr<Entry> entry;
    bool hit = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            entry = it->second;
            // An in-flight build still counts a miss.
            hit = entry->built.load(std::memory_order_acquire);
            touch_locked(key);
        } else {
            entry = std::make_shared<Entry>();
            entries_.emplace(key, entry);
            lru_.push_front(key);
        }
        if (hit) ++stats_.hits;
        else ++stats_.misses;
    }

    {
        // Per-entry lock: other circuits keygen in parallel, concurrent
        // misses on this circuit serialise here and build exactly once.
        std::lock_guard<std::mutex> build(entry->build_mu);
        if (!entry->built.load(std::memory_order_acquire)) {
            auto srs = srs_for(circuit.num_vars);
            auto [pk, vk] = hyperplonk::keygen(circuit, std::move(srs));
            entry->keys.pk = std::make_shared<const hyperplonk::ProvingKey>(
                std::move(pk));
            entry->keys.vk =
                std::make_shared<const hyperplonk::VerifyingKey>(
                    std::move(vk));
            entry->built.store(true, std::memory_order_release);
        }
    }

    std::lock_guard<std::mutex> lock(mu_);
    evict_locked();
    return {entry->keys, hit};
}

void
KeyCache::touch_locked(const hash::Digest &key)
{
    auto it = std::find(lru_.begin(), lru_.end(), key);
    if (it != lru_.end()) lru_.erase(it);
    lru_.push_front(key);
}

void
KeyCache::evict_locked()
{
    while (entries_.size() > capacity_ && !lru_.empty()) {
        // Evict the least-recently-used *built* entry; skip in-flight
        // builds (their workers hold the Entry alive regardless, but
        // dropping them would forget the dedup point).
        auto victim = lru_.end();
        for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
            auto found = entries_.find(*it);
            if (found != entries_.end() &&
                found->second->built.load(std::memory_order_acquire)) {
                victim = std::next(it).base();
                break;
            }
        }
        if (victim == lru_.end()) break;
        entries_.erase(*victim);
        lru_.erase(victim);
        ++stats_.evictions;
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
    return entries_.size();
}

}  // namespace zkspeed::runtime
