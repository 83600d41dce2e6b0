#include "obs/flight.hpp"

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include <fcntl.h>
#include <unistd.h>

#include "obs/build_info.hpp"
#include "obs/jsonv.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace zkspeed::obs::flight {

namespace {

/** Two static snapshot buffers; refresh() fills the inactive one and
 * publishes. 256 KiB comfortably holds 64 log events + 32 spans +
 * the summary; snapshot_json() halves its inputs until it fits. */
constexpr size_t kBufCap = 256 * 1024;
char g_bufs[2][kBufCap];

/** Published snapshot: [63] buffer index, [62:32] offset of the
 * 4-digit signal patch region, [31:0] length. 0 = nothing published.
 * One atomic word so the handler sees a consistent triple. */
std::atomic<uint64_t> g_published{0};

std::atomic<int> g_report_fd{-1};
std::atomic<bool> g_installed{false};
std::atomic<double> g_last_refresh_us{0};

/** Serializes refresh()/install()/note_worker_exception(); the signal
 * handler never touches it. */
std::mutex g_refresh_mu;
Options g_opts;

/** refresh() renders the signal field with this 4-digit placeholder
 * value; the handler patches the digits in place (right-aligned, space
 * padded — still a valid JSON number token). No real signal is 9999,
 * and the quoted-key pattern cannot occur inside any other value. */
constexpr const char *kSignalPattern = "\"signal\": 9999";
constexpr size_t kSignalPrefix = 10;  // strlen("\"signal\": ")

uint64_t
pack(uint64_t index, uint64_t patch_offset, uint64_t len)
{
    return (index << 63) | (patch_offset << 32) | len;
}

/** write() the published buffer to the report fd, patching the signal
 * digits first. Async-signal-safe: no locks, no allocation. */
void
dump_published(int sig)
{
    uint64_t word = g_published.load(std::memory_order_acquire);
    int fd = g_report_fd.load(std::memory_order_acquire);
    if (word == 0 || fd < 0) return;
    char *buf = g_bufs[word >> 63];
    size_t patch = (word >> 32) & 0x7fffffff;
    size_t len = word & 0xffffffff;
    // Right-align the signal number (or -1) into the 4-char region.
    char digits[4] = {' ', ' ', ' ', ' '};
    int v = sig;
    if (v < 0) {
        digits[2] = '-';
        digits[3] = '1';
    } else {
        int pos = 3;
        if (v == 0) digits[pos--] = '0';
        while (v > 0 && pos >= 0) {
            digits[pos--] = char('0' + v % 10);
            v /= 10;
        }
    }
    std::memcpy(buf + patch, digits, 4);
    (void)lseek(fd, 0, SEEK_SET);
    size_t off = 0;
    while (off < len) {
        ssize_t n = write(fd, buf + off, len - off);
        if (n <= 0) break;
        off += size_t(n);
    }
    (void)ftruncate(fd, off_t(off));
}

void
fatal_handler(int sig)
{
    dump_published(sig);
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

double
now_us()
{
    return TraceRecorder::to_us(std::chrono::steady_clock::now());
}

/** Render one snapshot into the inactive buffer and publish it.
 * Callers hold g_refresh_mu. */
void
publish(const std::string &doc)
{
    if (doc.size() >= kBufCap) return;  // keep the previous snapshot
    size_t key = doc.find(kSignalPattern);
    if (key == std::string::npos) return;
    size_t patch = key + kSignalPrefix;
    uint64_t prev = g_published.load(std::memory_order_relaxed);
    uint64_t index = prev == 0 ? 0 : ((prev >> 63) ^ 1);
    std::memcpy(g_bufs[index], doc.data(), doc.size());
    // Normalize the raw buffer's placeholder to "  -1" so the buffer
    // is valid even before any handler patch.
    std::memcpy(g_bufs[index] + patch, "  -1", 4);
    g_published.store(pack(index, patch, doc.size()),
                      std::memory_order_release);
    g_last_refresh_us.store(now_us(), std::memory_order_relaxed);
    // Persist immediately (normal context — write() is cheap and the
    // file then always holds a valid snapshot, not just after a crash;
    // the fatal handler re-dumps with the real signal number patched).
    dump_published(-1);
}

}  // namespace

std::string
snapshot_json(const char *reason, const char *detail, int signal,
              size_t max_log_events, size_t max_open_spans)
{
    using jsonv::Value;
    for (;;) {
        Value doc = Value::object();
        doc.set("schema", Value::of("zkspeed-flight-v1"));
        doc.set("signal", Value::of(signal < 0 ? -1 : signal));
        doc.set("reason", Value::of(reason));
        doc.set("detail", Value::of(detail));
        doc.set("captured_ts_us", Value::of(now_us()));
        doc.set("build", build_info_json());

        // Metrics summary: series count + terminal-job totals summed
        // across every service instance (the full exposition is the
        // HTTP plane's job; the crash record only needs the headline).
        auto snap = MetricsRegistry::global().snapshot();
        uint64_t ok = 0, rejected = 0, failed = 0;
        for (const auto &m : snap.metrics) {
            if (m.name != "zkspeed_job_latency_ms") continue;
            for (const auto &[k, v] : m.labels) {
                if (k != "status") continue;
                if (v == "ok") ok += m.hist.count;
                else if (v == "rejected") rejected += m.hist.count;
                else if (v == "failed") failed += m.hist.count;
            }
        }
        Value metrics = Value::object();
        metrics.set("series", Value::of(uint64_t(snap.metrics.size())));
        metrics.set("jobs_ok", Value::of(ok));
        metrics.set("jobs_rejected", Value::of(rejected));
        metrics.set("jobs_failed", Value::of(failed));
        doc.set("metrics", std::move(metrics));

        auto &rec = LogRecorder::global();
        auto log_events = rec.events();
        size_t log_start = log_events.size() > max_log_events
                               ? log_events.size() - max_log_events
                               : 0;
        Value log = Value::object();
        log.set("recorded", Value::of(uint64_t(rec.size())));
        log.set("dropped", Value::of(rec.dropped()));
        log.set("rate_limited", Value::of(rec.rate_limited()));
        Value levs = Value::array();
        for (size_t i = log_start; i < log_events.size(); ++i) {
            levs.push(to_json(log_events[i]));
        }
        log.set("events", std::move(levs));
        doc.set("log", std::move(log));

        auto open = open_spans();
        Value trace = Value::object();
        trace.set("live_spans",
                  Value::of(uint64_t(TraceRecorder::global().size())));
        trace.set("dropped", Value::of(TraceRecorder::global().dropped()));
        Value ospans = Value::array();
        size_t span_count = std::min(open.size(), max_open_spans);
        for (size_t i = 0; i < span_count; ++i) {
            const OpenSpan &s = open[i];
            Value o = Value::object();
            o.set("span", Value::of(s.span_id));
            o.set("parent", Value::of(s.parent_id));
            o.set("correlation_id", Value::of(s.correlation_id));
            o.set("tid", Value::of(uint64_t(s.tid)));
            o.set("start_us", Value::of(s.start_us));
            o.set("name", Value::of(s.name));
            o.set("category", Value::of(s.category));
            ospans.push(std::move(o));
        }
        trace.set("open", std::move(ospans));
        doc.set("trace", std::move(trace));

        std::string text = doc.render();
        if (text.size() < kBufCap ||
            (max_log_events == 0 && max_open_spans == 0)) {
            return text;
        }
        max_log_events /= 2;
        max_open_spans /= 2;
    }
}

bool
install(const Options &opts)
{
    std::lock_guard<std::mutex> lock(g_refresh_mu);
    g_opts = opts;
    if (g_opts.path.empty()) {
        const char *env = std::getenv("ZKSPEED_FLIGHT_OUT");
        g_opts.path = env != nullptr && *env != '\0'
                          ? env
                          : "FLIGHT_report.json";
    }
    int fd = open(g_opts.path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                  0644);
    if (fd < 0) return false;
    int prev = g_report_fd.exchange(fd, std::memory_order_release);
    if (prev >= 0) close(prev);
    if (g_opts.install_signal_handlers) {
        for (int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
            std::signal(sig, fatal_handler);
        }
    }
    g_installed.store(true, std::memory_order_release);
    publish(snapshot_json("snapshot", "", 9999, g_opts.max_log_events,
                          g_opts.max_open_spans));
    return true;
}

bool
installed()
{
    return g_installed.load(std::memory_order_acquire);
}

void
refresh()
{
    if (!installed()) return;
    std::lock_guard<std::mutex> lock(g_refresh_mu);
    publish(snapshot_json("snapshot", "", 9999, g_opts.max_log_events,
                          g_opts.max_open_spans));
}

void
maybe_refresh()
{
    if (!installed()) return;
    double last = g_last_refresh_us.load(std::memory_order_relaxed);
    if (now_us() - last < g_opts.refresh_interval_ms * 1000.0) return;
    refresh();
}

bool
note_worker_exception(const char *where, const char *what)
{
    if (!installed()) return false;
    std::lock_guard<std::mutex> lock(g_refresh_mu);
    std::string detail = std::string(where) + ": " +
                         (what != nullptr ? what : "unknown");
    std::string doc = snapshot_json("worker_exception", detail.c_str(),
                                    -1, g_opts.max_log_events,
                                    g_opts.max_open_spans);
    int fd = g_report_fd.load(std::memory_order_acquire);
    if (fd < 0) return false;
    if (lseek(fd, 0, SEEK_SET) != 0) return false;
    size_t off = 0;
    while (off < doc.size()) {
        ssize_t n = write(fd, doc.data() + off, doc.size() - off);
        if (n <= 0) return false;
        off += size_t(n);
    }
    if (ftruncate(fd, off_t(off)) != 0) return false;
    return true;
}

}  // namespace zkspeed::obs::flight
