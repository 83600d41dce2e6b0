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
 * Recording cost is one short mutex push per span *end* (spans are
 * orders of magnitude rarer than metric observations; the ring holds
 * the most recent `capacity` spans and counts what it dropped). The
 * process-wide `obs::set_enabled(false)` switch makes every span
 * inert. `ZKSPEED_TRACE_OUT=<path>` dumps the ring as Chrome JSON on
 * service shutdown (`obs::dump_artifacts_to_env` is the shared hook).
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/ring.hpp"

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
    explicit TraceRecorder(size_t capacity = 16384);

    /** The process-wide recorder every span lands in. Its capacity is
     * `env_capacity()` — override with ZKSPEED_TRACE_RING. */
    static TraceRecorder &global();

    /** Ring capacity requested by the environment: ZKSPEED_TRACE_RING
     * parsed as a positive span count, or the 16384 default when the
     * variable is unset or unparsable. The effective value is exported
     * as `zkspeed_trace_ring_spans{kind="capacity"}`. */
    static size_t env_capacity();

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
    void clear();

    /** Chrome trace-event JSON ({"traceEvents":[...]}; ph:"X"). */
    std::string render_chrome_json() const;

  private:
    mutable std::mutex mu_;
    Ring<SpanEvent> ring_;
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

    /** 0 when tracing is disabled. */
    uint64_t id() const { return id_; }

    /** Attach a numeric attribute to this span (flushed with the event
     * at destruction; no-op while tracing is disabled). */
    void
    arg(std::string key, double value)
    {
        if (active_) args_.emplace_back(std::move(key), value);
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
    bool active_ = false;
    std::vector<std::pair<std::string, double>> args_;
};

}  // namespace zkspeed::obs
