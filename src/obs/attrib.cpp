#include "obs/attrib.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "obs/build_info.hpp"
#include "obs/jsonv.hpp"

namespace zkspeed::obs::attrib {

namespace {

/**
 * The attribution group table: the fixed many-to-many mapping between
 * the measured ProfileRegion vocabulary (paper Table-1 rows) and the
 * chip model's kernel_cycles vocabulary (Fig-10 units).
 *
 * Grouping notes:
 *  - "Commit Front" fuses the wiring and lookup commitment pipelines:
 *    on the measured side the lookup front reuses the "Fraction MLE" /
 *    "Wire Identity MSMs" region names, so the two modeled fronts
 *    ("Wiring MSMs" + "Lookup Front") must be joined as one group for
 *    the correspondence to stay exact.
 *  - Sumcheck groups join whole: both the measured "<X> Rounds" span
 *    and the modeled sumcheck kernel include the MLE-update work
 *    overlapped with the rounds.
 *  - "Linear Combine" joins the model's "Other" bucket (the y-MLE and
 *    g' combine passes); the model's Build-MLE cycles are broken out
 *    as their own kernel so the measured "Build MLE" regions have a
 *    modeled twin.
 */
struct GroupDef {
    const char *name;
    std::vector<const char *> measured;
    std::vector<const char *> modeled;
};

const std::vector<GroupDef> &
groups()
{
    static const std::vector<GroupDef> defs = {
        {"Witness MSMs", {"Witness MSMs"}, {"Witness MSMs"}},
        {"Build MLE", {"Build MLE"}, {"Build MLE"}},
        {"ZeroCheck", {"ZeroCheck Rounds"}, {"ZeroCheck"}},
        {"Commit Front",
         {"Construct N & D", "Fraction MLE", "Product MLE",
          "Wire Identity MSMs"},
         {"Wiring MSMs", "Lookup Front"}},
        {"PermCheck", {"PermCheck Rounds"}, {"PermCheck"}},
        {"LookupCheck", {"LookupCheck Rounds"}, {"LookupCheck"}},
        {"Batch Evaluations", {"Batch Evaluations"}, {"FinalEval"}},
        {"OpenCheck", {"OpenCheck Rounds"}, {"OpenCheck"}},
        {"Linear Combine", {"Linear Combine"}, {"Other"}},
        {"Poly Open MSMs", {"Poly Open MSMs"}, {"PolyOpen MSMs"}},
    };
    return defs;
}

const std::unordered_map<std::string, size_t> &
measured_index()
{
    static const std::unordered_map<std::string, size_t> idx = [] {
        std::unordered_map<std::string, size_t> m;
        for (size_t g = 0; g < groups().size(); ++g) {
            for (const char *name : groups()[g].measured) m[name] = g;
        }
        return m;
    }();
    return idx;
}

const std::unordered_map<std::string, size_t> &
modeled_index()
{
    static const std::unordered_map<std::string, size_t> idx = [] {
        std::unordered_map<std::string, size_t> m;
        for (size_t g = 0; g < groups().size(); ++g) {
            for (const char *name : groups()[g].modeled) m[name] = g;
        }
        return m;
    }();
    return idx;
}

struct MeasuredAgg {
    double seconds = 0;
    uint64_t modmuls = 0;
    uint64_t bytes = 0;
    uint64_t calls = 0;
};

struct ModeledAgg {
    uint32_t mu = 0;
    double sw_ms = 0;
    double chip_ms = 0;
    /** group index -> cycles; SIZE_MAX keys unmapped modeled names. */
    std::map<std::string, uint64_t> cycles;
};

double
span_arg(const SpanEvent &ev, const char *key)
{
    for (const auto &[k, v] : ev.args) {
        if (k == key) return v;
    }
    return 0;
}

void
finalize_rows(std::vector<KernelRow> &rows, double clock_ghz)
{
    double total_seconds = 0;
    uint64_t total_cycles = 0;
    for (const KernelRow &r : rows) {
        total_seconds += r.measured_seconds;
        total_cycles += r.modeled_cycles;
    }
    for (KernelRow &r : rows) {
        r.measured_share =
            total_seconds > 0 ? r.measured_seconds / total_seconds : 0;
        r.modeled_share =
            total_cycles > 0
                ? double(r.modeled_cycles) / double(total_cycles)
                : 0;
        r.drift_ratio = r.modeled_share > 0
                            ? r.measured_share / r.modeled_share
                            : 0;
        r.modmuls_per_byte =
            r.measured_bytes > 0
                ? double(r.measured_modmuls) / double(r.measured_bytes)
                : 0;
        double modeled_seconds =
            double(r.modeled_cycles) / (clock_ghz * 1e9);
        r.implied_speedup = modeled_seconds > 0
                                ? r.measured_seconds / modeled_seconds
                                : 0;
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const KernelRow &a, const KernelRow &b) {
                         return a.modeled_cycles > b.modeled_cycles;
                     });
}

std::vector<KernelRow>
make_rows(const std::map<std::string, MeasuredAgg> &measured,
          const std::map<std::string, uint64_t> &modeled,
          double clock_ghz)
{
    std::map<std::string, KernelRow> by_name;
    for (const auto &[name, agg] : measured) {
        KernelRow &r = by_name[name];
        r.kernel = name;
        r.measured_seconds = agg.seconds;
        r.measured_modmuls = agg.modmuls;
        r.measured_bytes = agg.bytes;
        r.calls = agg.calls;
    }
    for (const auto &[name, cycles] : modeled) {
        KernelRow &r = by_name[name];
        r.kernel = name;
        r.modeled_cycles += cycles;
    }
    std::vector<KernelRow> rows;
    rows.reserve(by_name.size());
    for (auto &[name, row] : by_name) rows.push_back(std::move(row));
    finalize_rows(rows, clock_ghz);
    return rows;
}

}  // namespace

std::vector<std::string>
known_measured_kernels()
{
    std::vector<std::string> out;
    for (const auto &g : groups()) {
        for (const char *name : g.measured) out.push_back(name);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

Report
build(const std::vector<SpanEvent> &events,
      const std::vector<ModeledJob> &jobs, const Options &opts)
{
    Report report;
    report.clock_ghz = opts.clock_ghz;

    // Parent links resolve over the whole dump: a prover span inside
    // the window may hang off a service span that started before it.
    std::unordered_map<uint64_t, const SpanEvent *> by_id;
    by_id.reserve(events.size());
    for (const SpanEvent &ev : events) by_id[ev.span_id] = &ev;

    auto resolve_job = [&](const SpanEvent &ev) -> uint64_t {
        const SpanEvent *cur = &ev;
        for (int hop = 0; hop < 64; ++hop) {
            if (cur->correlation_id != 0) return cur->correlation_id;
            if (cur->parent_id == 0) return 0;
            auto it = by_id.find(cur->parent_id);
            if (it == by_id.end()) return 0;
            cur = it->second;
        }
        return 0;
    };

    // Measured side: per job, per group.
    std::map<uint64_t, std::map<std::string, MeasuredAgg>> measured;
    std::set<std::string> unmapped;
    for (const SpanEvent &ev : events) {
        if (ev.category != "prover" || ev.ts_us < opts.min_ts_us) {
            continue;
        }
        ++report.spans_seen;
        auto git = measured_index().find(ev.name);
        if (git == measured_index().end()) {
            unmapped.insert(ev.name);
            continue;
        }
        uint64_t job_id = resolve_job(ev);
        if (job_id == 0) continue;
        MeasuredAgg &agg =
            measured[job_id][groups()[git->second].name];
        agg.seconds += ev.dur_us / 1e6;
        agg.modmuls += uint64_t(span_arg(ev, "modmul_fr") +
                                span_arg(ev, "modmul_fq"));
        agg.bytes += uint64_t(span_arg(ev, "bytes_in") +
                              span_arg(ev, "bytes_out"));
        ++agg.calls;
    }
    report.unmapped_kernels.assign(unmapped.begin(), unmapped.end());

    // Modeled side: per job id (repeat submissions of one id fold).
    std::map<uint64_t, ModeledAgg> modeled;
    for (const ModeledJob &job : jobs) {
        if (job.job_id == 0) continue;
        ModeledAgg &agg = modeled[job.job_id];
        agg.mu = job.mu;
        agg.sw_ms += job.sw_ms;
        agg.chip_ms += job.chip_ms;
        for (const auto &[name, cycles] : job.kernel_cycles) {
            auto git = modeled_index().find(name);
            // Unmapped modeled kernels keep their own name so their
            // cycles surface (as a row with no measured twin) instead
            // of silently vanishing from the shares.
            const std::string group =
                git != modeled_index().end()
                    ? std::string(groups()[git->second].name)
                    : "model:" + name;
            agg.cycles[group] += cycles;
        }
    }

    // Join per job id; aggregate over joined jobs only so both sides
    // of every share describe the same work.
    std::map<std::string, MeasuredAgg> measured_total;
    std::map<std::string, uint64_t> modeled_total;
    for (const auto &[job_id, mod] : modeled) {
        auto mit = measured.find(job_id);
        if (mit == measured.end()) {
            ++report.jobs_modeled_only;
            continue;
        }
        ++report.jobs_joined;
        JobRow row;
        row.job_id = job_id;
        row.mu = mod.mu;
        row.sw_ms = mod.sw_ms;
        row.chip_ms = mod.chip_ms;
        row.kernels =
            make_rows(mit->second, mod.cycles, opts.clock_ghz);
        for (const auto &[group, agg] : mit->second) {
            MeasuredAgg &total = measured_total[group];
            total.seconds += agg.seconds;
            total.modmuls += agg.modmuls;
            total.bytes += agg.bytes;
            total.calls += agg.calls;
            report.spans_joined += agg.calls;
        }
        for (const auto &[group, cycles] : mod.cycles) {
            modeled_total[group] += cycles;
        }
        report.jobs.push_back(std::move(row));
    }
    for (const auto &[job_id, agg] : measured) {
        if (modeled.find(job_id) == modeled.end()) {
            ++report.jobs_measured_only;
        }
    }

    report.kernels =
        make_rows(measured_total, modeled_total, opts.clock_ghz);
    for (const KernelRow &r : report.kernels) {
        report.measured_total_seconds += r.measured_seconds;
        report.modeled_total_cycles += r.modeled_cycles;
    }
    return report;
}

void
export_to_registry(const Report &report, MetricsRegistry &reg)
{
    for (const KernelRow &r : report.kernels) {
        MetricId drift = reg.gauge(
            "zkspeed_model_drift_ratio", {{"kernel", r.kernel}},
            "Measured share of prover runtime over the chip model's "
            "share for this kernel (1.0 = software and model agree)");
        reg.set(drift, r.drift_ratio);
        MetricId intensity = reg.gauge(
            "zkspeed_kernel_modmuls_per_byte", {{"kernel", r.kernel}},
            "Live Table-1 arithmetic intensity: measured modmuls per "
            "declared logical byte moved");
        reg.set(intensity, r.modmuls_per_byte);
    }
}

namespace {

jsonv::Value
kernel_row_json(const KernelRow &r)
{
    jsonv::Value o = jsonv::Value::object();
    o.set("kernel", jsonv::Value::of(r.kernel));
    o.set("measured_seconds", jsonv::Value::of(r.measured_seconds));
    o.set("measured_modmuls", jsonv::Value::of(r.measured_modmuls));
    o.set("measured_bytes", jsonv::Value::of(r.measured_bytes));
    o.set("calls", jsonv::Value::of(r.calls));
    o.set("modeled_cycles", jsonv::Value::of(r.modeled_cycles));
    o.set("measured_share", jsonv::Value::of(r.measured_share));
    o.set("modeled_share", jsonv::Value::of(r.modeled_share));
    o.set("drift_ratio", jsonv::Value::of(r.drift_ratio));
    o.set("modmuls_per_byte", jsonv::Value::of(r.modmuls_per_byte));
    o.set("implied_speedup", jsonv::Value::of(r.implied_speedup));
    return o;
}

const char *const kKernelRowKeys[] = {
    "kernel",          "measured_seconds", "measured_modmuls",
    "measured_bytes",  "calls",            "modeled_cycles",
    "measured_share",  "modeled_share",    "drift_ratio",
    "modmuls_per_byte", "implied_speedup",
};

const char *const kJobRowKeys[] = {"job", "mu", "sw_ms", "chip_ms",
                                   "kernels"};

const char *const kSerialShareKeys[] = {"circuit",     "budget",
                                        "fr_muls",     "fr_parallel",
                                        "fq_muls",     "fq_parallel"};

/** Required report keys; "serial_share" may appear on top of them. */
const char *const kReportKeys[] = {
    "schema",           "build",
    "clock_ghz",
    "measured_total_seconds", "modeled_total_cycles",
    "jobs_joined",      "jobs_modeled_only",
    "jobs_measured_only", "spans_seen",
    "spans_joined",     "unmapped_kernels",
    "kernels",          "jobs",
};

/** Strict object shape check: every listed key present, and no others
 * beyond `optional_present` known optional ones. */
template <size_t N>
bool
exact_keys(const jsonv::Value &obj, const char *const (&keys)[N],
           size_t optional_present = 0)
{
    if (!obj.is_object() || obj.fields.size() != N + optional_present) {
        return false;
    }
    for (const char *key : keys) {
        if (obj.find(key) == nullptr) return false;
    }
    return true;
}

std::optional<KernelRow>
parse_kernel_row(const jsonv::Value &o)
{
    if (!exact_keys(o, kKernelRowKeys)) return std::nullopt;
    for (const auto &[key, v] : o.fields) {
        bool want_string = std::string_view(key) == "kernel";
        if (want_string != v.is_string()) return std::nullopt;
        if (!want_string && !v.is_number()) return std::nullopt;
    }
    KernelRow r;
    r.kernel = o.find("kernel")->str;
    r.measured_seconds = o.find("measured_seconds")->as_double();
    r.measured_modmuls = o.find("measured_modmuls")->as_u64();
    r.measured_bytes = o.find("measured_bytes")->as_u64();
    r.calls = o.find("calls")->as_u64();
    r.modeled_cycles = o.find("modeled_cycles")->as_u64();
    r.measured_share = o.find("measured_share")->as_double();
    r.modeled_share = o.find("modeled_share")->as_double();
    r.drift_ratio = o.find("drift_ratio")->as_double();
    r.modmuls_per_byte = o.find("modmuls_per_byte")->as_double();
    r.implied_speedup = o.find("implied_speedup")->as_double();
    return r;
}

}  // namespace

std::string
render_json(const Report &report)
{
    jsonv::Value doc = jsonv::Value::object();
    doc.set("schema", jsonv::Value::of("zkspeed-attrib-v1"));
    doc.set("build", build_info_json());
    doc.set("clock_ghz", jsonv::Value::of(report.clock_ghz));
    doc.set("measured_total_seconds",
            jsonv::Value::of(report.measured_total_seconds));
    doc.set("modeled_total_cycles",
            jsonv::Value::of(report.modeled_total_cycles));
    doc.set("jobs_joined", jsonv::Value::of(report.jobs_joined));
    doc.set("jobs_modeled_only",
            jsonv::Value::of(report.jobs_modeled_only));
    doc.set("jobs_measured_only",
            jsonv::Value::of(report.jobs_measured_only));
    doc.set("spans_seen", jsonv::Value::of(report.spans_seen));
    doc.set("spans_joined", jsonv::Value::of(report.spans_joined));
    jsonv::Value unmapped = jsonv::Value::array();
    for (const std::string &k : report.unmapped_kernels) {
        unmapped.push(jsonv::Value::of(k));
    }
    doc.set("unmapped_kernels", std::move(unmapped));
    jsonv::Value kernels = jsonv::Value::array();
    for (const KernelRow &r : report.kernels) {
        kernels.push(kernel_row_json(r));
    }
    doc.set("kernels", std::move(kernels));
    jsonv::Value jobs = jsonv::Value::array();
    for (const JobRow &j : report.jobs) {
        jsonv::Value o = jsonv::Value::object();
        o.set("job", jsonv::Value::of(j.job_id));
        o.set("mu", jsonv::Value::of(uint64_t(j.mu)));
        o.set("sw_ms", jsonv::Value::of(j.sw_ms));
        o.set("chip_ms", jsonv::Value::of(j.chip_ms));
        jsonv::Value rows = jsonv::Value::array();
        for (const KernelRow &r : j.kernels) {
            rows.push(kernel_row_json(r));
        }
        o.set("kernels", std::move(rows));
        jobs.push(std::move(o));
    }
    doc.set("jobs", std::move(jobs));
    if (report.serial_share.has_value()) {
        const SerialShare &s = *report.serial_share;
        jsonv::Value o = jsonv::Value::object();
        o.set("circuit", jsonv::Value::of(s.circuit));
        o.set("budget", jsonv::Value::of(s.budget));
        o.set("fr_muls", jsonv::Value::of(s.fr_muls));
        o.set("fr_parallel", jsonv::Value::of(s.fr_parallel));
        o.set("fq_muls", jsonv::Value::of(s.fq_muls));
        o.set("fq_parallel", jsonv::Value::of(s.fq_parallel));
        doc.set("serial_share", std::move(o));
    }
    return doc.render();
}

std::optional<Report>
parse_json(const std::string &text)
{
    auto parsed = jsonv::parse(text);
    if (!parsed.has_value()) return std::nullopt;
    const jsonv::Value &doc = *parsed;
    const jsonv::Value *share = doc.find("serial_share");
    if (!exact_keys(doc, kReportKeys, share != nullptr ? 1 : 0)) {
        return std::nullopt;
    }
    const jsonv::Value *schema = doc.find("schema");
    if (!schema->is_string() || schema->str != "zkspeed-attrib-v1") {
        return std::nullopt;
    }
    if (!doc.find("build")->is_object()) return std::nullopt;
    Report report;
    auto number = [&](const char *key, double &out) {
        const jsonv::Value *v = doc.find(key);
        if (!v->is_number()) return false;
        out = v->as_double();
        return true;
    };
    auto count = [&](const char *key, size_t &out) {
        const jsonv::Value *v = doc.find(key);
        if (!v->is_integer()) return false;
        out = size_t(v->as_u64());
        return true;
    };
    uint64_t total_cycles = 0;
    const jsonv::Value *cycles = doc.find("modeled_total_cycles");
    if (!cycles->is_integer()) return std::nullopt;
    total_cycles = cycles->as_u64();
    if (!number("clock_ghz", report.clock_ghz) ||
        !number("measured_total_seconds",
                report.measured_total_seconds) ||
        !count("jobs_joined", report.jobs_joined) ||
        !count("jobs_modeled_only", report.jobs_modeled_only) ||
        !count("jobs_measured_only", report.jobs_measured_only) ||
        !count("spans_seen", report.spans_seen) ||
        !count("spans_joined", report.spans_joined)) {
        return std::nullopt;
    }
    report.modeled_total_cycles = total_cycles;
    const jsonv::Value *unmapped = doc.find("unmapped_kernels");
    if (!unmapped->is_array()) return std::nullopt;
    for (const jsonv::Value &v : unmapped->items) {
        if (!v.is_string()) return std::nullopt;
        report.unmapped_kernels.push_back(v.str);
    }
    const jsonv::Value *kernels = doc.find("kernels");
    if (!kernels->is_array()) return std::nullopt;
    for (const jsonv::Value &v : kernels->items) {
        auto row = parse_kernel_row(v);
        if (!row.has_value()) return std::nullopt;
        report.kernels.push_back(std::move(*row));
    }
    const jsonv::Value *jobs = doc.find("jobs");
    if (!jobs->is_array()) return std::nullopt;
    for (const jsonv::Value &v : jobs->items) {
        if (!exact_keys(v, kJobRowKeys)) return std::nullopt;
        JobRow job;
        const jsonv::Value *id = v.find("job");
        const jsonv::Value *mu = v.find("mu");
        const jsonv::Value *sw = v.find("sw_ms");
        const jsonv::Value *chip = v.find("chip_ms");
        const jsonv::Value *rows = v.find("kernels");
        if (!id->is_integer() || !mu->is_integer() ||
            !sw->is_number() || !chip->is_number() ||
            !rows->is_array()) {
            return std::nullopt;
        }
        job.job_id = id->as_u64();
        job.mu = uint32_t(mu->as_u64());
        job.sw_ms = sw->as_double();
        job.chip_ms = chip->as_double();
        for (const jsonv::Value &rv : rows->items) {
            auto row = parse_kernel_row(rv);
            if (!row.has_value()) return std::nullopt;
            job.kernels.push_back(std::move(*row));
        }
        report.jobs.push_back(std::move(job));
    }
    if (share != nullptr) {
        if (!exact_keys(*share, kSerialShareKeys) ||
            !share->find("circuit")->is_string()) {
            return std::nullopt;
        }
        SerialShare s;
        s.circuit = share->find("circuit")->str;
        uint64_t *fields[] = {&s.budget,  &s.fr_muls, &s.fr_parallel,
                              &s.fq_muls, &s.fq_parallel};
        for (size_t k = 0; k < 5; ++k) {
            const jsonv::Value *v = share->find(kSerialShareKeys[k + 1]);
            if (!v->is_integer()) return std::nullopt;
            *fields[k] = v->as_u64();
        }
        report.serial_share = std::move(s);
    }
    return report;
}

}  // namespace zkspeed::obs::attrib
