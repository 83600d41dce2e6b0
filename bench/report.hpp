/**
 * @file
 * Shared console-report helpers for the reproduction benches: fixed
 * width tables, geometric means and paper-vs-measured annotations —
 * plus the unified machine-readable envelope every bench's --json
 * output goes through ("zkspeed-bench-v1"), so bench_attrib can merge
 * the per-bench artifacts into one BENCH_summary.json and CI can gate
 * on their `gates` uniformly.
 */
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "hyperplonk/circuit.hpp"
#include "obs/build_info.hpp"
#include "obs/export.hpp"  // write_file
#include "obs/jsonv.hpp"

namespace zkspeed::bench {

/** Count circuit rows with any active selector (tag-valued q_lookup
 * included) — the "active gates" column of bench_lookup and the
 * bench_attrib ledger. */
inline size_t
active_gates(const hyperplonk::CircuitIndex &index)
{
    size_t n = 0;
    for (size_t i = 0; i < index.num_gates(); ++i) {
        bool active = !index.q_l[i].is_zero() ||
                      !index.q_r[i].is_zero() ||
                      !index.q_m[i].is_zero() ||
                      !index.q_o[i].is_zero() ||
                      !index.q_c[i].is_zero() || !index.q_h[i].is_zero();
        if (index.has_lookup && !index.q_lookup[i].is_zero()) {
            active = true;
        }
        if (active) ++n;
    }
    return n;
}

/** Print a rule + centered title. */
inline void
title(const std::string &t)
{
    std::printf("\n=== %s ===\n", t.c_str());
}

/** Simple fixed-width row printer. */
class Table
{
  public:
    explicit Table(std::vector<std::pair<std::string, int>> columns)
        : cols_(std::move(columns))
    {
        for (const auto &[name, w] : cols_) {
            std::printf("%-*s", w, name.c_str());
        }
        std::printf("\n");
        int total = 0;
        for (const auto &[name, w] : cols_) total += w;
        std::printf("%s\n", std::string(total, '-').c_str());
    }

    void
    row(const std::vector<std::string> &cells)
    {
        for (size_t i = 0; i < cells.size() && i < cols_.size(); ++i) {
            std::printf("%-*s", cols_[i].second, cells[i].c_str());
        }
        std::printf("\n");
    }

  private:
    std::vector<std::pair<std::string, int>> cols_;
};

inline std::string
fmt(double v, int prec = 2)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

inline std::string
fmt_int(uint64_t v)
{
    return std::to_string(v);
}

/** Geometric mean of a list of ratios. */
inline double
geomean(const std::vector<double> &xs)
{
    if (xs.empty()) return 0;
    double acc = 0;
    for (double x : xs) acc += std::log(x);
    return std::exp(acc / double(xs.size()));
}

/** One pass/fail criterion a bench enforced (exit status mirrors the
 * conjunction of its gates; CI reads them out of the envelope). */
struct Gate {
    std::string name;
    bool passed = false;
    std::string detail;
};

/**
 * Wrap a bench's metrics in the unified envelope:
 *   {"schema":"zkspeed-bench-v1","bench":...,"metrics":{...},
 *    "gates":[{"name","passed","detail"},...]}
 * `metrics` must be an object; its keys are bench-specific.
 */
inline obs::jsonv::Value
unified_report(const std::string &bench_name, obs::jsonv::Value metrics,
               const std::vector<Gate> &gates)
{
    using obs::jsonv::Value;
    Value doc = Value::object();
    doc.set("schema", Value::of("zkspeed-bench-v1"));
    doc.set("build", obs::build_info_json());
    doc.set("bench", Value::of(bench_name));
    doc.set("metrics", std::move(metrics));
    Value gs = Value::array();
    for (const Gate &g : gates) {
        Value o = Value::object();
        o.set("name", Value::of(g.name));
        o.set("passed", Value::of(g.passed));
        o.set("detail", Value::of(g.detail));
        gs.push(std::move(o));
    }
    doc.set("gates", std::move(gs));
    return doc;
}

/** Render + write a unified envelope; returns write success. */
inline bool
write_unified_report(const std::string &path,
                     const std::string &bench_name,
                     obs::jsonv::Value metrics,
                     const std::vector<Gate> &gates)
{
    return obs::write_file(
        path,
        unified_report(bench_name, std::move(metrics), gates).render());
}

/** Every gate in an envelope holds (vacuously true when none). */
inline bool
gates_passed(const obs::jsonv::Value &envelope)
{
    const obs::jsonv::Value *gs = envelope.find("gates");
    if (gs == nullptr || !gs->is_array()) return false;
    for (const auto &g : gs->items) {
        const obs::jsonv::Value *p = g.find("passed");
        if (p == nullptr || !p->is_bool() || !p->boolean) return false;
    }
    return true;
}

}  // namespace zkspeed::bench
