#include "sim/config.hpp"

#include <sstream>

#include "hyperplonk/circuit.hpp"

namespace zkspeed::sim {

std::string
DesignConfig::describe() const
{
    std::ostringstream os;
    os << msm_cores << "x" << msm_pes_per_core << " MSM PEs (W="
       << msm_window << ", " << msm_points_per_pe << " pts/PE), "
       << sumcheck_pes << " SumCheck PEs, " << mle_update_pes << "x"
       << mle_update_modmuls << " MLE-Update, " << frac_pes
       << " FracMLE, " << bandwidth_gbps << " GB/s";
    return os.str();
}

DesignConfig
DesignConfig::paper_default()
{
    // Section 7.4: one MSM unit with 9-bit windows, 16 PEs, 2048
    // points/PE, 1 FracMLE PE, 2 SumCheck PEs, 11 MLE Update PEs with 4
    // modmuls each, 2 TB/s HBM3.
    DesignConfig c;
    c.msm_cores = 1;
    c.msm_pes_per_core = 16;
    c.msm_window = 9;
    c.msm_points_per_pe = 2048;
    c.frac_pes = 1;
    c.sumcheck_pes = 2;
    c.mle_update_pes = 11;
    c.mle_update_modmuls = 4;
    c.bandwidth_gbps = 2048.0;
    c.sram_target_mu = 23;
    return c;
}

std::vector<Workload>
Workload::paper_workloads()
{
    // Table 3, at the default (pessimistic) witness statistics.
    return {
        {.name = "Zcash", .mu = 17},
        {.name = "Auction", .mu = 20},
        {.name = "2^12 Rescue-Hash Invocations", .mu = 21},
        {.name = "Zexe's Recursive Circuit", .mu = 22},
        {.name = "Rollup of 10 Pvt Tx", .mu = 23},
    };
}

Workload
Workload::mock(size_t mu)
{
    Workload w;
    w.name = "mock-2^" + std::to_string(mu);
    w.mu = mu;
    return w;
}

Workload
Workload::from_stats(std::string name, size_t mu, size_t zeros,
                     size_t ones, size_t total)
{
    Workload w;
    w.name = std::move(name);
    w.mu = mu;
    if (total > 0) {
        w.zeros_fraction = double(zeros) / double(total);
        w.ones_fraction = double(ones) / double(total);
        w.dense_fraction = 1.0 - w.zeros_fraction - w.ones_fraction;
    }
    return w;
}

Workload
Workload::of(std::string name, const hyperplonk::CircuitIndex &index,
             const hyperplonk::Witness &witness)
{
    size_t zeros = 0, ones = 0, total = 0;
    for (const auto &w : witness.w) {
        for (size_t i = 0; i < w.size(); ++i) {
            if (w[i].is_zero()) ++zeros;
            else if (w[i].is_one()) ++ones;
            ++total;
        }
    }
    Workload wl =
        from_stats(std::move(name), index.num_vars, zeros, ones, total);
    wl.lookup_gates = index.num_lookup_gates();
    wl.table_row_counts = index.table_row_counts;
    return wl;
}

}  // namespace zkspeed::sim
