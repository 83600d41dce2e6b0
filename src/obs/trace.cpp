#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "obs/jsonv.hpp"
#include "obs/metrics.hpp"  // obs::enabled()

namespace zkspeed::obs {

namespace {

std::atomic<uint64_t> g_next_span_id{1};
std::atomic<uint32_t> g_next_tid{1};

/** Per-thread stack of open span ids (same-thread nesting links). */
std::vector<uint64_t> &
span_stack()
{
    thread_local std::vector<uint64_t> stack;
    return stack;
}

/** Process-wide open-span table (flight recorder input). Spans are
 * orders of magnitude rarer than metric observations, so one short
 * mutex-protected vector op per open/close is in budget; closes are
 * LIFO per thread, so the erase usually hits the tail. */
std::mutex g_open_mu;
std::vector<OpenSpan> g_open_spans;

void
open_span_register(OpenSpan span)
{
    std::lock_guard<std::mutex> lock(g_open_mu);
    g_open_spans.push_back(std::move(span));
}

void
open_span_unregister(uint64_t span_id)
{
    std::lock_guard<std::mutex> lock(g_open_mu);
    for (size_t i = g_open_spans.size(); i-- > 0;) {
        if (g_open_spans[i].span_id == span_id) {
            g_open_spans.erase(g_open_spans.begin() + long(i));
            return;
        }
    }
}

/**
 * Registry series mirroring the global recorder's ring health, so span
 * loss is visible in metrics.prom rather than only via the C++ API:
 *   zkspeed_trace_spans_dropped_total  counter, evictions ever
 *   zkspeed_trace_ring_spans{kind=live|capacity}  gauges
 * Only the process-wide recorder exports (local recorders in tests
 * would fight over the shared series).
 */
struct RingTelemetry {
    MetricId dropped, live, capacity;
};

RingTelemetry &
ring_telemetry()
{
    static RingTelemetry t = [] {
        auto &reg = MetricsRegistry::global();
        RingTelemetry r;
        r.dropped = reg.counter(
            "zkspeed_trace_spans_dropped_total", {},
            "Spans evicted from the trace ring since process start");
        r.live =
            reg.gauge("zkspeed_trace_ring_spans", {{"kind", "live"}},
                      "Spans currently retained in the trace ring");
        r.capacity =
            reg.gauge("zkspeed_trace_ring_spans", {{"kind", "capacity"}},
                      "Trace ring capacity in spans");
        return r;
    }();
    return t;
}

/** One span as a Chrome trace-event ("ph":"X" complete event). */
jsonv::Value
to_json(const SpanEvent &ev)
{
    using jsonv::Value;
    Value args = Value::object();
    args.set("span", Value::of(ev.span_id));
    args.set("parent", Value::of(ev.parent_id));
    args.set("job", Value::of(ev.correlation_id));
    for (const auto &[key, value] : ev.args) args.set(key, Value::of(value));
    Value o = Value::object();
    o.set("name", Value::of(ev.name));
    o.set("cat", Value::of(ev.category));
    o.set("ph", Value::of("X"));
    o.set("pid", Value::of(1));
    o.set("tid", Value::of(uint64_t(ev.tid)));
    o.set("ts", Value::of(ev.ts_us));
    o.set("dur", Value::of(ev.dur_us));
    o.set("args", std::move(args));
    return o;
}

}  // namespace

TraceRecorder::TraceRecorder(size_t capacity) : ring_(capacity) {}

size_t
TraceRecorder::env_capacity()
{
    const char *e = std::getenv("ZKSPEED_TRACE_RING");
    if (e == nullptr || *e == '\0') return 16384;
    char *end = nullptr;
    unsigned long long v = std::strtoull(e, &end, 10);
    if (end == e || *end != '\0' || v == 0) return 16384;
    return size_t(v);
}

TraceRecorder &
TraceRecorder::global()
{
    static TraceRecorder rec(env_capacity());
    static const bool telemetry_init = [] {
        MetricsRegistry::global().set(ring_telemetry().capacity,
                                      double(rec.ring_.capacity()));
        return true;
    }();
    (void)telemetry_init;
    return rec;
}

std::chrono::steady_clock::time_point
TraceRecorder::epoch()
{
    static const auto t0 = std::chrono::steady_clock::now();
    return t0;
}

double
TraceRecorder::to_us(std::chrono::steady_clock::time_point tp)
{
    return std::chrono::duration<double, std::micro>(tp - epoch()).count();
}

uint32_t
TraceRecorder::current_tid()
{
    thread_local uint32_t tid = g_next_tid.fetch_add(1);
    return tid;
}

void
TraceRecorder::set_capacity(size_t capacity)
{
    size_t effective;
    {
        std::lock_guard<std::mutex> lock(mu_);
        ring_ = Ring<SpanEvent>(capacity);
        effective = ring_.capacity();
    }
    if (this == &global()) {
        auto &reg = MetricsRegistry::global();
        reg.set(ring_telemetry().capacity, double(effective));
        reg.set(ring_telemetry().live, 0.0);
    }
}

uint64_t
TraceRecorder::next_span_id()
{
    return g_next_span_id.fetch_add(1);
}

void
TraceRecorder::record(SpanEvent ev)
{
    bool evicted;
    size_t live;
    {
        std::lock_guard<std::mutex> lock(mu_);
        evicted = ring_.push(std::move(ev));
        live = ring_.size();
    }
    if (this == &global()) {
        auto &reg = MetricsRegistry::global();
        if (evicted) reg.add(ring_telemetry().dropped);
        reg.set(ring_telemetry().live, double(live));
    }
}

std::vector<SpanEvent>
TraceRecorder::events() const
{
    std::vector<SpanEvent> out;
    {
        std::lock_guard<std::mutex> lock(mu_);
        out = ring_.items();
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const SpanEvent &a, const SpanEvent &b) {
                         return a.ts_us < b.ts_us;
                     });
    return out;
}

size_t
TraceRecorder::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.size();
}

uint64_t
TraceRecorder::dropped() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.evicted();
}

void
TraceRecorder::clear()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        ring_.clear();
    }
    if (this == &global()) {
        MetricsRegistry::global().set(ring_telemetry().live, 0.0);
    }
}

std::string
TraceRecorder::render_chrome_json() const
{
    jsonv::Value trace_events = jsonv::Value::array();
    for (const SpanEvent &ev : events()) trace_events.push(to_json(ev));
    jsonv::Value doc = jsonv::Value::object();
    doc.set("displayTimeUnit", jsonv::Value::of("ms"));
    doc.set("traceEvents", std::move(trace_events));
    return doc.render(-1);
}

std::vector<OpenSpan>
open_spans()
{
    std::lock_guard<std::mutex> lock(g_open_mu);
    return g_open_spans;
}

Span::Span(std::string name, std::string category, uint64_t correlation_id)
    : name_(std::move(name)),
      category_(std::move(category)),
      correlation_id_(correlation_id)
{
    if (!enabled()) return;
    auto &stack = span_stack();
    parent_id_ = stack.empty() ? 0 : stack.back();
    id_ = TraceRecorder::next_span_id();
    stack.push_back(id_);
    start_ = std::chrono::steady_clock::now();
    active_ = true;
    OpenSpan open;
    open.span_id = id_;
    open.parent_id = parent_id_;
    open.correlation_id = correlation_id_;
    open.tid = TraceRecorder::current_tid();
    open.start_us = TraceRecorder::to_us(start_);
    open.name = name_;
    open.category = category_;
    open_span_register(std::move(open));
}

Span::~Span()
{
    if (!active_) return;
    open_span_unregister(id_);
    auto end = std::chrono::steady_clock::now();
    auto &stack = span_stack();
    // Pop our own id; tolerate a disable() between open and close.
    if (!stack.empty() && stack.back() == id_) stack.pop_back();
    SpanEvent ev;
    ev.span_id = id_;
    ev.parent_id = parent_id_;
    ev.correlation_id = correlation_id_;
    ev.tid = TraceRecorder::current_tid();
    ev.ts_us = TraceRecorder::to_us(start_);
    ev.dur_us = TraceRecorder::to_us(end) - ev.ts_us;
    ev.name = std::move(name_);
    ev.category = std::move(category_);
    ev.args = std::move(args_);
    TraceRecorder::global().record(std::move(ev));
}

void
Span::record_complete(std::string name, std::string category,
                      std::chrono::steady_clock::time_point start,
                      std::chrono::steady_clock::time_point end,
                      uint64_t correlation_id, uint64_t parent_id,
                      std::vector<std::pair<std::string, double>> args)
{
    if (!enabled()) return;
    if (parent_id == 0) {
        auto &stack = span_stack();
        parent_id = stack.empty() ? 0 : stack.back();
    }
    SpanEvent ev;
    ev.span_id = TraceRecorder::next_span_id();
    ev.parent_id = parent_id;
    ev.correlation_id = correlation_id;
    ev.tid = TraceRecorder::current_tid();
    ev.ts_us = TraceRecorder::to_us(start);
    ev.dur_us = TraceRecorder::to_us(end) - ev.ts_us;
    ev.name = std::move(name);
    ev.category = std::move(category);
    ev.args = std::move(args);
    TraceRecorder::global().record(std::move(ev));
}

}  // namespace zkspeed::obs
