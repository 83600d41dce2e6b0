/**
 * @file
 * Structured logging: leveled, rate-limited JSON-lines events sharing
 * the trace subsystem's clock, thread ids and correlation ids, so a log
 * line and the spans of the job it talks about line up in Perfetto and
 * in the flight recorder (DESIGN.md §14).
 *
 * Discipline mirrors TraceRecorder: per-thread format shards (each
 * thread formats into its own reusable buffer, so the hot path never
 * allocates for the common short message), one short mutex push per
 * event into a bounded ring that counts what it dropped, and ring
 * health exported as registry series (`zkspeed_log_events_total{level}`,
 * `zkspeed_log_events_dropped_total{reason=ring|rate}`).
 *
 * Sinks: events at or above the stderr threshold (default `warn`) echo
 * as one human-readable line; `ZKSPEED_LOG_OUT=<path>` dumps the whole
 * ring as JSON lines on `flush_all()` / service shutdown. A token
 * bucket per level bounds sustained volume (`ZKSPEED_LOG_RATE` events
 * per second per level, default 200, 0 = unlimited) so a log-spamming
 * bug cannot starve the ring of the events around a crash.
 *
 * `obs::set_enabled(false)` makes the ring and every counter a no-op;
 * only warn/error events still echo to stderr (operators keep their
 * error lines when telemetry is off).
 */
#pragma once

#include <cstdarg>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/jsonv.hpp"
#include "obs/ring.hpp"

namespace zkspeed::obs {

enum class LogLevel : uint8_t { debug = 0, info = 1, warn = 2, error = 3 };

const char *to_string(LogLevel level);

/** One recorded event, timestamped like SpanEvent (µs since the trace
 * recorder epoch). */
struct LogEvent {
    double ts_us = 0;
    LogLevel level = LogLevel::info;
    uint32_t tid = 0;             ///< TraceRecorder::current_tid()
    uint64_t correlation_id = 0;  ///< job/request id; 0 = none
    std::string component;        ///< subsystem tag ("runtime", "loadgen")
    std::string message;
};

/** One event as a JSON object, the record of the JSON-lines log and of
 * FLIGHT_report.json: {"ts_us":..,"level":"..","tid":..,
 * "correlation_id":..,"component":"..","message":".."}. */
jsonv::Value to_json(const LogEvent &ev);

class LogRecorder
{
  public:
    explicit LogRecorder(size_t capacity = 4096);

    /** The process-wide recorder `logf` / `log_event` append to. Its
     * capacity is `env_capacity()` (ZKSPEED_LOG_RING). */
    static LogRecorder &global();

    /** ZKSPEED_LOG_RING parsed as a positive event count, or the 4096
     * default when unset or unparsable. */
    static size_t env_capacity();

    /** Append one event (no-op while obs is disabled; may drop under
     * the per-level rate limit or ring bound, counted either way). */
    void record(LogLevel level, std::string component,
                std::string message, uint64_t correlation_id = 0);

    /** Retained events in arrival order. */
    std::vector<LogEvent> events() const;
    size_t size() const;
    /** Events evicted by the ring bound since the last clear(). */
    uint64_t dropped() const;
    /** Events refused by the per-level token bucket. */
    uint64_t rate_limited() const;
    void clear();

    /** Token bucket per level: sustained events/s and burst size.
     * `per_second` 0 disables rate limiting. */
    void set_rate_limit(double per_second, double burst);

    /** Minimum level echoed to stderr (default warn). */
    void set_stderr_level(LogLevel level);
    LogLevel stderr_level() const;

    /** The ring as JSON lines (one `to_json` document per line). */
    std::string render_jsonl() const;

  private:
    bool admit(LogLevel level);  ///< token bucket; callers hold mu_

    mutable std::mutex mu_;
    Ring<LogEvent> ring_;
    uint64_t rate_limited_ = 0;
    double rate_per_s_;
    double burst_;
    double tokens_[4];
    double last_refill_us_[4] = {0, 0, 0, 0};
    LogLevel stderr_level_ = LogLevel::warn;
};

/**
 * Format + record an event on the global recorder, echoing one
 * `[level component] message` line to stderr when `level` clears the
 * recorder's stderr threshold. With obs disabled the echo (warn and
 * above) still happens but nothing is recorded or counted.
 */
void logf(LogLevel level, const char *component, uint64_t correlation_id,
          const char *fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 4, 5)))
#endif
    ;

/** Record a pre-formatted message on the global recorder (ring only,
 * never echoes — for call sites that manage their own console line). */
void log_event(LogLevel level, const char *component, std::string message,
               uint64_t correlation_id = 0);

}  // namespace zkspeed::obs
