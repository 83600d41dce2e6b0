#include "obs/log.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace zkspeed::obs {

namespace {

/** Registry ids for ring health (registered once with the recorder). */
struct LogTelemetry {
    MetricId events[4];
    MetricId dropped_ring;
    MetricId dropped_rate;
    MetricId live;
    MetricId capacity;
};

LogTelemetry *g_log_tele = nullptr;

void
register_log_telemetry(size_t capacity)
{
    static LogTelemetry tele = [capacity] {
        LogTelemetry t;
        auto &reg = MetricsRegistry::global();
        for (int l = 0; l < 4; ++l) {
            t.events[l] = reg.counter(
                "zkspeed_log_events_total",
                {{"level", to_string(LogLevel(l))}},
                "Structured log events recorded, by level");
        }
        t.dropped_ring = reg.counter(
            "zkspeed_log_events_dropped_total", {{"reason", "ring"}},
            "Log events lost to the bounded ring or the per-level "
            "rate limit");
        t.dropped_rate = reg.counter(
            "zkspeed_log_events_dropped_total", {{"reason", "rate"}},
            "Log events lost to the bounded ring or the per-level "
            "rate limit");
        t.live = reg.gauge("zkspeed_log_ring_events", {{"kind", "live"}},
                           "Log ring occupancy and configured bound");
        t.capacity = reg.gauge(
            "zkspeed_log_ring_events", {{"kind", "capacity"}},
            "Log ring occupancy and configured bound");
        reg.set(t.capacity, double(capacity));
        return t;
    }();
    g_log_tele = &tele;
}

}  // namespace

const char *
to_string(LogLevel level)
{
    switch (level) {
        case LogLevel::debug: return "debug";
        case LogLevel::info: return "info";
        case LogLevel::warn: return "warn";
        case LogLevel::error: return "error";
    }
    return "?";
}

LogRecorder::LogRecorder(size_t capacity)
    : ring_(capacity), rate_per_s_(kRatePerSecond), burst_(64.0)
{
    for (double &t : tokens_) t = burst_;
}

LogRecorder &
LogRecorder::global()
{
    static LogRecorder *rec = [] {
        auto *r = new LogRecorder();
        register_log_telemetry(r->ring_.capacity());
        return r;
    }();
    return *rec;
}

bool
LogRecorder::admit(LogLevel level)
{
    if (rate_per_s_ <= 0) return true;
    int l = int(level);
    double now_us = TraceRecorder::to_us(
        std::chrono::steady_clock::now());
    double elapsed_s = (now_us - last_refill_us_[l]) / 1e6;
    last_refill_us_[l] = now_us;
    tokens_[l] = std::min(burst_, tokens_[l] + elapsed_s * rate_per_s_);
    if (tokens_[l] < 1.0) return false;
    tokens_[l] -= 1.0;
    return true;
}

void
LogRecorder::record(LogLevel level, std::string component,
                    std::string message, uint64_t correlation_id)
{
    bool is_global = this == &LogRecorder::global();
    LogEvent ev;
    ev.ts_us = TraceRecorder::to_us(std::chrono::steady_clock::now());
    ev.level = level;
    ev.tid = TraceRecorder::current_tid();
    ev.correlation_id = correlation_id;
    ev.component = std::move(component);
    ev.message = std::move(message);
    size_t live = 0;
    bool admitted;
    bool evicted = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++recorded_;
        admitted = admit(level);
        if (admitted) {
            evicted = ring_.push(std::move(ev));
        } else {
            ++rate_limited_;
        }
        live = ring_.size();
    }
    if (is_global && g_log_tele != nullptr) {
        // The same records whatever the outcome, so an event's cost
        // does not depend on the ring or the rate limiter.
        auto &reg = MetricsRegistry::global();
        reg.add(g_log_tele->events[int(level)], admitted ? 1 : 0);
        reg.add(g_log_tele->dropped_ring, evicted ? 1 : 0);
        reg.add(g_log_tele->dropped_rate, admitted ? 0 : 1);
        reg.set(g_log_tele->live, double(live));
    }
    // The flight recorder's pre-serialized snapshot rides the log flow:
    // each recorded event is a chance to refresh it (internally
    // debounced, and a no-op until install()).
    if (is_global) flight::maybe_refresh();
}

std::vector<LogEvent>
LogRecorder::events() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.items();
}

size_t
LogRecorder::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.size();
}

uint64_t
LogRecorder::dropped() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.evicted();
}

uint64_t
LogRecorder::rate_limited() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return rate_limited_;
}

uint64_t
LogRecorder::recorded() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return recorded_;
}

void
LogRecorder::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    ring_.clear();
    rate_limited_ = 0;
    for (double &t : tokens_) t = burst_;
}

void
LogRecorder::set_rate_limit(double per_second, double burst)
{
    std::lock_guard<std::mutex> lock(mu_);
    rate_per_s_ = per_second;
    burst_ = burst < 1.0 ? 1.0 : burst;
    for (double &t : tokens_) t = burst_;
}

jsonv::Value
to_json(const LogEvent &ev)
{
    using jsonv::Value;
    Value o = Value::object();
    o.set("ts_us", Value::of(ev.ts_us));
    o.set("level", Value::of(to_string(ev.level)));
    o.set("tid", Value::of(uint64_t(ev.tid)));
    o.set("correlation_id", Value::of(ev.correlation_id));
    o.set("component", Value::of(ev.component));
    o.set("message", Value::of(ev.message));
    return o;
}

std::string
LogRecorder::render_jsonl() const
{
    std::string out;
    for (const LogEvent &ev : events()) {
        out += to_json(ev).render(-1);
        out += '\n';
    }
    return out;
}

void
logf(LogLevel level, const char *component, uint64_t correlation_id,
     const char *fmt, ...)
{
    // Per-thread format shard: reused across calls so the common short
    // message never allocates on the way in.
    thread_local std::vector<char> shard(512);
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    int n = std::vsnprintf(shard.data(), shard.size(), fmt, args);
    va_end(args);
    if (n < 0) {
        va_end(copy);
        return;
    }
    if (size_t(n) >= shard.size()) {
        shard.resize(size_t(n) + 1);
        std::vsnprintf(shard.data(), shard.size(), fmt, copy);
    }
    va_end(copy);
    if (level >= LogLevel::warn) {
        std::fprintf(stderr, "[%s %s] %s\n", to_string(level), component,
                     shard.data());
    }
    LogRecorder::global().record(level, component,
                                 std::string(shard.data(), size_t(n)),
                                 correlation_id);
}

void
log_event(LogLevel level, const char *component, std::string message,
          uint64_t correlation_id)
{
    LogRecorder::global().record(level, component, std::move(message),
                                 correlation_id);
}

}  // namespace zkspeed::obs
