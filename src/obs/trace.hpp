/**
 * @file
 * Span-based tracing: a process-wide TraceRecorder with a bounded ring
 * buffer of completed spans, exportable as Chrome trace-event JSON
 * (loadable in Perfetto / chrome://tracing).
 *
 * Spans form per-job trees: the RAII `Span` keeps a thread-local stack
 * so same-thread nesting yields parent/child links automatically, and
 * `Span::record_complete` records retroactive windows (queue wait,
 * batch-window residency) that were measured on another thread —
 * those carry the job's correlation id so Perfetto can line them up
 * with the worker-side spans. Span taxonomy: DESIGN.md §10.
 *
 * Recording cost: an RAII `Span` takes the process-wide open-span
 * table's mutex on open and again on close, then the ring's mutex for
 * the push; `record_complete` takes only the ring's mutex (spans are
 * orders of magnitude rarer than metric observations; the ring holds
 * the most recent `capacity` spans, packed, and counts what it
 * dropped). Each span counts once in `recorded()`, the span term of
 * obs::record_counts(). `ZKSPEED_TRACE_OUT=<path>` dumps the ring as
 * Chrome JSON on service shutdown (`obs::dump_artifacts_to_env` is the
 * shared hook).
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace zkspeed::obs {

/** One completed span, timestamped in µs since the recorder epoch. */
struct SpanEvent {
    uint64_t span_id = 0;
    uint64_t parent_id = 0;       ///< 0 = root
    uint64_t correlation_id = 0;  ///< job/request id; 0 = none
    uint32_t tid = 0;             ///< compact per-thread index
    double ts_us = 0;
    double dur_us = 0;
    std::string name;
    std::string category;
    /** Numeric span attributes (per-span modmul deltas, byte counts).
     * Rendered into the Chrome-trace `args` object so Perfetto shows
     * them on span click; obs/attrib joins them to the chip model. */
    std::vector<std::pair<std::string, double>> args;
};

/**
 * The span ring's storage. Each retained span is one variable-length
 * record in a FIFO of 64-bit words: a 7-word header (the three ids,
 * both timestamps as raw double bits, the tid with the interned name
 * id, the interned category id with the arg count), then the args
 * inline, interned key ids two to a word, then the values. Strings
 * are stored once, in an intern table that grows only with distinct
 * strings (a few dozen for the span taxonomy, DESIGN.md §10).
 *
 * Like obs::Ring it keeps the newest `capacity` spans, evicts the
 * oldest first and counts evictions; events() rebuilds the exact
 * SpanEvents that were pushed.
 */
class PackedSpanRing
{
  public:
    static constexpr size_t kHeaderWords = 7;

    /** Bytes one retained span with `num_args` args occupies. */
    static constexpr size_t
    record_bytes(size_t num_args)
    {
        return 8 * (kHeaderWords + (num_args + 1) / 2 + num_args);
    }

    /** Capacity 0 is treated as 1. */
    explicit PackedSpanRing(size_t capacity);
    // Movable only: the intern table's keys view its own strings.
    PackedSpanRing(PackedSpanRing &&) = default;
    PackedSpanRing &operator=(PackedSpanRing &&) = default;

    /** Append `ev`, evicting the oldest span once full.
     * @return true when a span was evicted to make room. */
    bool push(const SpanEvent &ev);
    /** Retained spans, oldest first. */
    std::vector<SpanEvent> events() const;

    size_t size() const { return size_; }
    size_t capacity() const { return capacity_; }
    /** Spans evicted since construction. */
    uint64_t evicted() const { return evicted_; }

  private:
    /** Words per storage block (4 KiB). */
    static constexpr size_t kBlockWords = 512;

    uint32_t intern(const std::string &s);
    uint64_t word(size_t i) const;
    void push_word(uint64_t w);
    void pop_words(size_t n);

    size_t capacity_;
    size_t size_ = 0;
    uint64_t evicted_ = 0;
    /** The word FIFO, in 4 KiB blocks: storage grows in small steps
     * and is never one big buffer (see obs::Ring). A block that
     * eviction empties is kept as the spare for the next one needed,
     * so a full ring recycles its blocks instead of allocating. */
    std::deque<std::unique_ptr<uint64_t[]>> blocks_;
    std::unique_ptr<uint64_t[]> spare_;
    size_t head_ = 0;   ///< first live word, within blocks_.front()
    size_t words_ = 0;  ///< live words
    /** Deque: stable string addresses for the view keys. */
    std::deque<std::string> strings_;
    std::unordered_map<std::string_view, uint32_t> string_ids_;
};
/** Every span this code base records has at most nine args (a
 * sumcheck's prover span), so none takes more than 168 B of ring, and
 * the ring's memory is bounded by its capacity. */
static_assert(PackedSpanRing::record_bytes(9) <= 168,
              "a retained span must fit 168 B");

/** A span currently open somewhere in the process. The flight
 * recorder snapshots this table ("what was in flight when we died");
 * RAII `Span`s register on open and unregister on close. */
struct OpenSpan {
    uint64_t span_id = 0;
    uint64_t parent_id = 0;
    uint64_t correlation_id = 0;
    uint32_t tid = 0;
    double start_us = 0;
    std::string name;
    std::string category;
};

/** Every currently-open RAII span, in open order. */
std::vector<OpenSpan> open_spans();

class TraceRecorder
{
  public:
    /** Spans the process-wide ring keeps, exported as
     * `zkspeed_trace_ring_spans{kind="capacity"}`. */
    static constexpr size_t kCapacity = 16384;

    explicit TraceRecorder(size_t capacity = kCapacity);

    /** The process-wide recorder every span lands in. */
    static TraceRecorder &global();

    /** Steady-clock zero point shared by every span in the process. */
    static std::chrono::steady_clock::time_point epoch();
    static double to_us(std::chrono::steady_clock::time_point tp);

    /** Compact id of the calling thread (stable for its lifetime). */
    static uint32_t current_tid();

    void set_capacity(size_t capacity);
    static uint64_t next_span_id();
    void record(SpanEvent ev);

    /** Retained spans in start-timestamp order. */
    std::vector<SpanEvent> events() const;
    size_t size() const;
    /** Spans evicted by the ring since the last clear(). The global
     * recorder also exports span loss as registry series
     * (`zkspeed_trace_spans_dropped_total`,
     * `zkspeed_trace_ring_spans{kind=live|capacity}`) so it shows up
     * in metrics.prom, not only through this API. */
    uint64_t dropped() const;
    /** Spans recorded since construction (clear() keeps the count). */
    uint64_t recorded() const;
    void clear();

    /** Chrome trace-event JSON ({"traceEvents":[...]}; ph:"X"). */
    std::string render_chrome_json() const;

  private:
    mutable std::mutex mu_;
    PackedSpanRing ring_;
    uint64_t recorded_ = 0;
};

/**
 * RAII span: opens on construction, records on destruction. Maintains
 * the thread-local parent stack, so spans nested on one thread link up.
 */
class Span
{
  public:
    explicit Span(std::string name, std::string category = "runtime",
                  uint64_t correlation_id = 0);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    uint64_t id() const { return id_; }

    /** Attach a numeric attribute to this span (flushed with the event
     * at destruction). */
    void
    arg(std::string key, double value)
    {
        args_.emplace_back(std::move(key), value);
    }

    /**
     * Record a retroactively-measured window. `parent_id` 0 means
     * "current top of this thread's span stack" (0 if none). `args`
     * are numeric span attributes (SpanEvent::args).
     */
    static void record_complete(
        std::string name, std::string category,
        std::chrono::steady_clock::time_point start,
        std::chrono::steady_clock::time_point end,
        uint64_t correlation_id = 0, uint64_t parent_id = 0,
        std::vector<std::pair<std::string, double>> args = {});

  private:
    std::string name_;
    std::string category_;
    uint64_t correlation_id_ = 0;
    uint64_t id_ = 0;
    uint64_t parent_id_ = 0;
    std::chrono::steady_clock::time_point start_;
    std::vector<std::pair<std::string, double>> args_;
};

}  // namespace zkspeed::obs
