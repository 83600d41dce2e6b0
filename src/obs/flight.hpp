/**
 * @file
 * Flight recorder: a pre-serialized crash snapshot that survives fatal
 * signals (DESIGN.md §14).
 *
 * A process that dies mid-proof must leave a forensic record, but a
 * SIGSEGV handler may only call async-signal-safe functions — no
 * allocation, no locks, no snprintf. The resolution is to do all of
 * the expensive work *before* the crash: `refresh()` (called from
 * normal context — install(), the log-record flow via
 * `maybe_refresh()`, and `flush_all()`) serializes a complete
 * FLIGHT_report.json document — build identity, metrics summary, the
 * tail of the log ring, every open span — into one of two static
 * buffers and publishes (buffer index, length, signal-field offset) as
 * a single atomic word. The signal handler then only: loads that word,
 * patches the fixed-width `"signal"` digits in place, `write()`s the
 * buffer to a file descriptor opened at install time, `ftruncate()`s,
 * and re-raises with the default disposition. Every one of those is on
 * the async-signal-safe list.
 *
 * Worker-thread exceptions are not signals: `note_worker_exception()`
 * runs in normal context, so it serializes a fresh snapshot with
 * `reason = "worker_exception"` and the exception text, and writes it
 * immediately (runtime/service.cpp calls it from its catch-all sites).
 *
 * Document schema ("zkspeed-flight-v1"):
 *   {schema, signal, reason, detail, captured_ts_us, build{...},
 *    metrics{series,jobs_ok,jobs_rejected,jobs_failed},
 *    log{recorded,dropped,rate_limited,events:[...]},
 *    trace{live_spans,dropped,open:[...]}}
 * `signal` is -1 unless a handler patched the delivered signal number.
 */
#pragma once

#include <cstdint>
#include <string>

namespace zkspeed::obs::flight {

struct Options {
    /** Report path; empty = $ZKSPEED_FLIGHT_OUT or FLIGHT_report.json. */
    std::string path;
    /** Install SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL handlers (off for
     * tests that only exercise the worker-exception path). */
    bool install_signal_handlers = true;
};

/**
 * Open the report fd, seed the first snapshot and (by default) install
 * the fatal-signal handlers. Idempotent: a second call re-points the
 * recorder at the new path. @return false if the path cannot be opened.
 */
bool install(const Options &opts = {});

bool installed();

/** Re-serialize and publish the snapshot now (normal context only). */
void refresh();

/** Debounced refresh(): no-op unless installed and the last snapshot
 * is older than 250 ms. Hooked into the log record flow so the
 * snapshot tracks a live process. */
void maybe_refresh();

/**
 * A worker thread caught a would-have-been-fatal exception: write a
 * full snapshot (reason "worker_exception", `detail` = where + what)
 * to the report file immediately. @return false when not installed or
 * the write failed.
 */
bool note_worker_exception(const char *where, const char *what);

/** Build one snapshot document (exposed so tests can pin the schema
 * without crashing): the newest 64 log events and the first 32 open
 * spans, halved until it fits the snapshot buffer. `signal` < 0
 * renders as -1. */
std::string snapshot_json(const char *reason, const char *detail,
                          int signal);

}  // namespace zkspeed::obs::flight
