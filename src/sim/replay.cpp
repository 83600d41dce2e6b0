#include "sim/replay.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "sim/chip.hpp"
#include "sim/msm_unit.hpp"
#include "sim/tech.hpp"

namespace zkspeed::sim {

namespace {

/**
 * Chip-side latency of one verify flush: the folded RLC MSM runs on the
 * MSM unit (compute overlapped with streaming the points from HBM, as
 * in the chip model), the multi-pairing keeps its measured CPU time.
 */
double
verify_flush_chip_ms(const runtime::TraceEntry &entry, const MsmUnit &msm,
                     double bandwidth_gbps)
{
    uint64_t n = std::max<uint64_t>(1, entry.msm_points);
    double compute_ms =
        double(msm.dense_cycles(n, msm.total_pes())) / (kClockGhz * 1e6);
    double transfer_ms =
        msm.dense_bytes(n) / (bandwidth_gbps * 1e9) * 1e3;
    return std::max(compute_ms, transfer_ms) + entry.pairing_ms;
}

}  // namespace

ReplayReport
replay_trace(const std::vector<runtime::TraceEntry> &trace,
             const DesignConfig &design)
{
    ReplayReport report;
    Chip chip(design);
    MsmUnit msm(design);
    // Prove jobs with identical size, scalar statistics and lookup
    // shape (per-table bank heights included) have identical simulated
    // latency; memoise so a cache-friendly job stream (many repeats of
    // few circuits) replays in O(distinct jobs). The memo keeps the
    // whole cycle breakdown: obs/attrib needs per-kernel cycles per
    // job, not just the scalar latency.
    struct Modeled {
        double runtime_ms = 0;
        uint64_t total_cycles = 0;
        std::vector<std::pair<std::string, uint64_t>> kernel_cycles;
        std::vector<std::pair<std::string, uint64_t>> step_cycles;
    };
    std::map<std::tuple<uint32_t, uint64_t, uint64_t, uint64_t, uint64_t,
                        std::vector<uint64_t>>,
             Modeled>
        memo;
    for (const auto &entry : trace) {
        ReplayedJob job;
        job.kind = entry.kind;
        job.mu = entry.num_vars;
        if (entry.kind == runtime::JobKind::verify) {
            job.sw_ms = entry.verify_ms;
            job.chip_ms =
                verify_flush_chip_ms(entry, msm, design.bandwidth_gbps);
            job.batch_size = entry.batch_size;
            ++report.verify_flushes;
            report.proofs_verified += entry.batch_size;
            report.sw_verify_ms += job.sw_ms;
            report.chip_verify_ms += job.chip_ms;
        } else {
            auto key = std::make_tuple(entry.num_vars, entry.zero_scalars,
                                       entry.one_scalars,
                                       entry.total_scalars,
                                       entry.lookup_gates,
                                       entry.per_table_rows);
            auto it = memo.find(key);
            if (it == memo.end()) {
                Workload wl = Workload::from_stats(
                    "replay", entry.num_vars, entry.zero_scalars,
                    entry.one_scalars,
                    std::max<uint64_t>(1, entry.total_scalars));
                wl.lookup_gates = entry.lookup_gates;
                wl.table_row_counts = entry.per_table_rows;
                ChipReport rep = chip.run(wl);
                Modeled m;
                m.runtime_ms = rep.runtime_ms;
                m.total_cycles = rep.total_cycles;
                m.kernel_cycles.assign(rep.kernel_cycles.begin(),
                                       rep.kernel_cycles.end());
                m.step_cycles.assign(rep.step_cycles.begin(),
                                     rep.step_cycles.end());
                it = memo.emplace(key, std::move(m)).first;
            }
            job.sw_ms = entry.prove_ms;
            job.chip_ms = it->second.runtime_ms;
            job.request_id = entry.request_id;
            job.total_cycles = it->second.total_cycles;
            job.kernel_cycles = it->second.kernel_cycles;
            job.step_cycles = it->second.step_cycles;
            ++report.prove_jobs;
            report.sw_prove_ms += job.sw_ms;
            report.chip_prove_ms += job.chip_ms;
        }
        report.sw_total_ms += job.sw_ms;
        report.chip_total_ms += job.chip_ms;
        report.jobs.push_back(job);
    }
    if (report.sw_total_ms > 0) {
        report.sw_jobs_per_s =
            1000.0 * double(report.jobs.size()) / report.sw_total_ms;
    }
    if (report.chip_total_ms > 0) {
        report.chip_jobs_per_s =
            1000.0 * double(report.jobs.size()) / report.chip_total_ms;
        report.speedup = report.sw_total_ms / report.chip_total_ms;
    }
    return report;
}

std::vector<obs::attrib::ModeledJob>
attrib_jobs(const ReplayReport &report)
{
    std::vector<obs::attrib::ModeledJob> jobs;
    for (const ReplayedJob &job : report.jobs) {
        if (job.kind != runtime::JobKind::prove || job.request_id == 0) {
            continue;
        }
        obs::attrib::ModeledJob m;
        m.job_id = job.request_id;
        m.mu = uint32_t(job.mu);
        m.sw_ms = job.sw_ms;
        m.chip_ms = job.chip_ms;
        m.total_cycles = job.total_cycles;
        m.kernel_cycles = job.kernel_cycles;
        m.step_cycles = job.step_cycles;
        jobs.push_back(std::move(m));
    }
    return jobs;
}

}  // namespace zkspeed::sim
