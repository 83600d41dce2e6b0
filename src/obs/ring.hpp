/**
 * @file
 * The one bounded buffer of the telemetry plane (span ring, log ring,
 * the service's replay trace): keeps the newest `capacity` entries,
 * overwrites the oldest first and counts what it evicted. No lock of
 * its own; each owner guards it with the mutex of its other state.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

namespace zkspeed::obs {

template <typename T>
class Ring
{
  public:
    /** Capacity 0 is treated as 1. */
    explicit Ring(size_t capacity) : capacity_(std::max<size_t>(1, capacity))
    {
    }

    /** Append `item`; once full it overwrites the oldest entry.
     * @return true when an entry was evicted to make room. */
    bool
    push(T item)
    {
        if (items_.size() < capacity_) {
            items_.push_back(std::move(item));
            return false;
        }
        items_[oldest_] = std::move(item);
        oldest_ = (oldest_ + 1) % capacity_;
        ++evicted_;
        return true;
    }

    /** Retained entries, oldest first. */
    std::vector<T>
    items() const
    {
        auto split = items_.begin() + std::ptrdiff_t(oldest_);
        std::vector<T> out(split, items_.end());
        out.insert(out.end(), items_.begin(), split);
        return out;
    }

    size_t size() const { return items_.size(); }
    size_t capacity() const { return capacity_; }
    /** Entries evicted since construction or the last clear(). */
    uint64_t evicted() const { return evicted_; }

    void
    clear()
    {
        items_.clear();
        oldest_ = 0;
        evicted_ = 0;
    }

  private:
    size_t capacity_;
    /** A deque, not a vector: storage grows with use in small blocks,
     * so neither an idle large ring nor a growing one allocates (and
     * later frees) one big buffer. Freeing a large buffer raises
     * glibc's dynamic mmap threshold, after which other large
     * allocations land on the heap and raise peak RSS. */
    std::deque<T> items_;
    size_t oldest_ = 0;  ///< next slot to overwrite once full
    uint64_t evicted_ = 0;
};

}  // namespace zkspeed::obs
