/**
 * @file
 * Exposition for metrics snapshots: Prometheus text format (v0.0.4)
 * and a self-describing JSON document carrying the derived percentiles
 * (p50/p90/p99/p99.9) next to the exact count/sum/min/max.
 *
 * Histograms render with cumulative `le` buckets (non-empty buckets
 * plus `+Inf`), `_sum` and `_count`, so standard Prometheus quantile
 * tooling works on the scrape; the JSON form is the artifact format
 * written by benches and CI (BENCH_runtime.json embeds one).
 */
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace zkspeed::obs {

/** Prometheus text exposition of a merged snapshot. */
std::string render_prometheus_text(const Snapshot &snap);

/** JSON exposition: {"metrics":[{name, labels, kind, ...}, ...]}. */
std::string render_json(const Snapshot &snap);

/** Write a string to a file; @return false (with stderr note) on error. */
bool write_file(const std::string &path, const std::string &content);

/**
 * Flush both telemetry artifacts to the paths named by the environment:
 * `ZKSPEED_TRACE_OUT` gets the span ring as Chrome trace JSON and
 * `ZKSPEED_METRICS_OUT` a registry snapshot (JSON when the path ends in
 * `.json`, Prometheus text otherwise). Unset variables are skipped.
 * Shared by service shutdown and the examples' interrupt handlers so an
 * aborted run keeps its artifacts.
 */
void dump_artifacts_to_env();

/**
 * One shutdown hook for every telemetry artifact, so the set can never
 * silently diverge between exit paths again: metrics + trace
 * (`dump_artifacts_to_env`), the structured log ring
 * (`ZKSPEED_LOG_OUT` as JSON lines), the latest attribution report
 * (`ZKSPEED_ATTRIB_OUT`, when one was built this run), and a final
 * flight-recorder snapshot. Service shutdown and `proof_server`'s
 * SIGINT/SIGTERM handler both route through here.
 */
void flush_all();

}  // namespace zkspeed::obs
