#include "obs/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string_view>

#include "obs/flight.hpp"
#include "obs/http.hpp"
#include "obs/jsonv.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace zkspeed::obs {

namespace {

std::string
fmt_double(double v)
{
    char buf[64];
    // %.17g round-trips doubles; trim the common integral case.
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
prom_escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '\\' || c == '"') out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

std::string
prom_labels(const LabelSet &labels, const std::string &extra_key = "",
            const std::string &extra_val = "")
{
    if (labels.empty() && extra_key.empty()) return "";
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : labels) {
        if (!first) out += ",";
        first = false;
        out += k + "=\"" + prom_escape(v) + "\"";
    }
    if (!extra_key.empty()) {
        if (!first) out += ",";
        out += extra_key + "=\"" + prom_escape(extra_val) + "\"";
    }
    out += "}";
    return out;
}

const char *
prom_type(MetricKind k)
{
    switch (k) {
        case MetricKind::counter: return "counter";
        case MetricKind::gauge: return "gauge";
        case MetricKind::histogram: return "histogram";
    }
    return "untyped";
}

/** The artifact path environment variable `var` names; nullptr when
 * unset or empty. */
const char *
env_path(const char *var)
{
    const char *path = std::getenv(var);
    return path != nullptr && *path != '\0' ? path : nullptr;
}

/** One series: name, labels and kind, then the counter or gauge value,
 * or a histogram's exact count/sum/min/max, its derived mean and
 * quantiles and its sparse [upper, count] buckets. */
jsonv::Value
to_json(const MetricSnapshot &m)
{
    using jsonv::Value;
    Value labels = Value::object();
    for (const auto &[k, v] : m.labels) labels.set(k, Value::of(v));
    Value o = Value::object();
    o.set("name", Value::of(m.name));
    o.set("labels", std::move(labels));
    o.set("kind", Value::of(to_string(m.kind)));
    switch (m.kind) {
        case MetricKind::counter: o.set("value", Value::of(m.counter)); break;
        case MetricKind::gauge: o.set("value", Value::of(m.gauge)); break;
        case MetricKind::histogram: {
            const auto &h = m.hist;
            o.set("count", Value::of(h.count));
            o.set("sum", Value::of(h.sum));
            o.set("min", Value::of(h.min));
            o.set("max", Value::of(h.max));
            o.set("mean", Value::of(h.mean()));
            o.set("p50", Value::of(h.quantile(0.50)));
            o.set("p90", Value::of(h.quantile(0.90)));
            o.set("p99", Value::of(h.quantile(0.99)));
            o.set("p999", Value::of(h.quantile(0.999)));
            Value buckets = Value::array();
            for (const auto &b : h.buckets) {
                Value pair = Value::array();
                pair.push(Value::of(b.upper));
                pair.push(Value::of(b.count));
                buckets.push(std::move(pair));
            }
            o.set("buckets", std::move(buckets));
            break;
        }
    }
    return o;
}

}  // namespace

std::string
render_prometheus_text(const Snapshot &snap)
{
    // Group series of the same family (name) so HELP/TYPE render once,
    // in first-seen registration order.
    std::vector<size_t> order(snap.metrics.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return snap.metrics[a].name < snap.metrics[b].name;
    });

    std::string out;
    const std::string *prev_family = nullptr;
    for (size_t idx : order) {
        const MetricSnapshot &m = snap.metrics[idx];
        if (prev_family == nullptr || *prev_family != m.name) {
            if (!m.help.empty()) {
                out += "# HELP " + m.name + " " + prom_escape(m.help) +
                       "\n";
            }
            out += "# TYPE " + m.name + " " + prom_type(m.kind) + "\n";
            prev_family = &m.name;
        }
        switch (m.kind) {
            case MetricKind::counter:
                out += m.name + prom_labels(m.labels) + " " +
                       std::to_string(m.counter) + "\n";
                break;
            case MetricKind::gauge:
                out += m.name + prom_labels(m.labels) + " " +
                       fmt_double(m.gauge) + "\n";
                break;
            case MetricKind::histogram: {
                uint64_t cum = 0;
                for (const auto &b : m.hist.buckets) {
                    cum += b.count;
                    out += m.name + "_bucket" +
                           prom_labels(m.labels, "le",
                                       fmt_double(b.upper)) +
                           " " + std::to_string(cum) + "\n";
                }
                out += m.name + "_bucket" +
                       prom_labels(m.labels, "le", "+Inf") + " " +
                       std::to_string(m.hist.count) + "\n";
                out += m.name + "_sum" + prom_labels(m.labels) + " " +
                       fmt_double(m.hist.sum) + "\n";
                out += m.name + "_count" + prom_labels(m.labels) + " " +
                       std::to_string(m.hist.count) + "\n";
                break;
            }
        }
    }
    return out;
}

std::string
render_json(const Snapshot &snap)
{
    jsonv::Value metrics = jsonv::Value::array();
    for (const MetricSnapshot &m : snap.metrics) metrics.push(to_json(m));
    jsonv::Value doc = jsonv::Value::object();
    doc.set("metrics", std::move(metrics));
    return doc.render(-1);
}

bool
write_file(const std::string &path, const std::string &content)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "obs: cannot write %s\n", path.c_str());
        return false;
    }
    bool ok =
        std::fwrite(content.data(), 1, content.size(), f) == content.size();
    std::fclose(f);
    if (!ok) std::fprintf(stderr, "obs: short write to %s\n", path.c_str());
    return ok;
}

void
dump_artifacts_to_env()
{
    if (const char *path = env_path("ZKSPEED_TRACE_OUT")) {
        write_file(path, TraceRecorder::global().render_chrome_json());
    }
    if (const char *path = env_path("ZKSPEED_METRICS_OUT")) {
        auto snap = MetricsRegistry::global().snapshot();
        write_file(path, std::string_view(path).ends_with(".json")
                             ? render_json(snap)
                             : render_prometheus_text(snap));
    }
}

void
flush_all()
{
    dump_artifacts_to_env();
    if (const char *path = env_path("ZKSPEED_LOG_OUT")) {
        write_file(path, LogRecorder::global().render_jsonl());
    }
    if (const char *path = env_path("ZKSPEED_ATTRIB_OUT")) {
        std::string attrib = latest_attrib_json();
        if (!attrib.empty()) write_file(path, attrib);
    }
    if (flight::installed()) flight::refresh();
}

}  // namespace zkspeed::obs
