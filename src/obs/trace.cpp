#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <bit>

#include "obs/jsonv.hpp"
#include "obs/metrics.hpp"

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

PackedSpanRing::PackedSpanRing(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity))
{
}

uint32_t
PackedSpanRing::intern(const std::string &s)
{
    auto it = string_ids_.find(s);
    if (it != string_ids_.end()) return it->second;
    auto id = uint32_t(strings_.size());
    strings_.push_back(s);
    string_ids_.emplace(strings_.back(), id);
    return id;
}

uint64_t
PackedSpanRing::word(size_t i) const
{
    size_t at = head_ + i;
    return blocks_[at / kBlockWords][at % kBlockWords];
}

void
PackedSpanRing::push_word(uint64_t w)
{
    size_t at = head_ + words_;
    if (at / kBlockWords == blocks_.size()) {
        blocks_.push_back(spare_ ? std::move(spare_)
                                 : std::make_unique<uint64_t[]>(kBlockWords));
    }
    blocks_[at / kBlockWords][at % kBlockWords] = w;
    ++words_;
}

void
PackedSpanRing::pop_words(size_t n)
{
    head_ += n;
    words_ -= n;
    while (head_ >= kBlockWords) {
        if (!spare_) spare_ = std::move(blocks_.front());
        blocks_.pop_front();
        head_ -= kBlockWords;
    }
}

bool
PackedSpanRing::push(const SpanEvent &ev)
{
    bool evict = size_ == capacity_;
    if (evict) {
        // Header word 6 carries the oldest record's arg count.
        pop_words(record_bytes(size_t(word(6) >> 32)) / 8);
        --size_;
        ++evicted_;
    }
    const size_t n = ev.args.size();
    push_word(ev.span_id);
    push_word(ev.parent_id);
    push_word(ev.correlation_id);
    push_word(std::bit_cast<uint64_t>(ev.ts_us));
    push_word(std::bit_cast<uint64_t>(ev.dur_us));
    push_word(ev.tid | uint64_t(intern(ev.name)) << 32);
    push_word(intern(ev.category) | uint64_t(n) << 32);
    for (size_t i = 0; i < n; i += 2) {
        uint64_t keys = intern(ev.args[i].first);
        if (i + 1 < n) keys |= uint64_t(intern(ev.args[i + 1].first)) << 32;
        push_word(keys);
    }
    for (const auto &arg : ev.args) {
        push_word(std::bit_cast<uint64_t>(arg.second));
    }
    ++size_;
    return evict;
}

std::vector<SpanEvent>
PackedSpanRing::events() const
{
    std::vector<SpanEvent> out;
    out.reserve(size_);
    for (size_t at = 0; at < words_;) {
        auto w = [&](size_t i) { return word(at + i); };
        SpanEvent ev;
        ev.span_id = w(0);
        ev.parent_id = w(1);
        ev.correlation_id = w(2);
        ev.ts_us = std::bit_cast<double>(w(3));
        ev.dur_us = std::bit_cast<double>(w(4));
        ev.tid = uint32_t(w(5));
        ev.name = strings_[w(5) >> 32];
        ev.category = strings_[uint32_t(w(6))];
        const size_t n = size_t(w(6) >> 32);
        const size_t values = kHeaderWords + (n + 1) / 2;
        ev.args.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            uint64_t keys = w(kHeaderWords + i / 2);
            uint32_t key = uint32_t(i % 2 == 0 ? keys : keys >> 32);
            ev.args.emplace_back(strings_[key],
                                 std::bit_cast<double>(w(values + i)));
        }
        out.push_back(std::move(ev));
        at += record_bytes(n) / 8;
    }
    return out;
}

TraceRecorder::TraceRecorder(size_t capacity) : ring_(capacity) {}

TraceRecorder &
TraceRecorder::global()
{
    static TraceRecorder rec;
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
        ring_ = PackedSpanRing(capacity);
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
        evicted = ring_.push(ev);
        live = ring_.size();
        ++recorded_;
    }
    if (this == &global()) {
        // Unconditional add: a span costs the same records whether or
        // not the ring is full, so per-job counts do not depend on it.
        auto &reg = MetricsRegistry::global();
        reg.add(ring_telemetry().dropped, evicted ? 1 : 0);
        reg.set(ring_telemetry().live, double(live));
    }
}

std::vector<SpanEvent>
TraceRecorder::events() const
{
    std::vector<SpanEvent> out;
    {
        std::lock_guard<std::mutex> lock(mu_);
        out = ring_.events();
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

uint64_t
TraceRecorder::recorded() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return recorded_;
}

void
TraceRecorder::clear()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        ring_ = PackedSpanRing(ring_.capacity());
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
    auto &stack = span_stack();
    parent_id_ = stack.empty() ? 0 : stack.back();
    id_ = TraceRecorder::next_span_id();
    stack.push_back(id_);
    start_ = std::chrono::steady_clock::now();
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
    open_span_unregister(id_);
    auto end = std::chrono::steady_clock::now();
    auto &stack = span_stack();
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
