/**
 * @file
 * zkSpeed design configuration (the Table-2 design space) and workload
 * descriptors.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace zkspeed::hyperplonk {
struct CircuitIndex;
struct Witness;
}  // namespace zkspeed::hyperplonk

namespace zkspeed::sim {

/** One zkSpeed design point: the knobs of Table 2. */
struct DesignConfig {
    // MSM unit.
    int msm_cores = 1;          ///< {1, 2}
    int msm_pes_per_core = 16;  ///< {1, 2, 4, 8, 16}
    int msm_window = 9;         ///< {7, 8, 9, 10}
    int msm_points_per_pe = 2048;  ///< {1K, 2K, 4K, 8K, 16K}

    // FracMLE unit.
    int frac_pes = 1;  ///< {1, 2, 4}
    int inversion_batch = 64;

    // SumCheck + MLE Update units.
    int sumcheck_pes = 2;        ///< {1, 2, 4, 8, 16}
    int mle_update_pes = 11;     ///< {1, .., 11}
    int mle_update_modmuls = 4;  ///< {1, 2, 4, 8, 16}

    // Memory system.
    double bandwidth_gbps = 2048.0;  ///< {64 .. 4096}
    /** Problem size (log2 gates) the global MLE SRAM is provisioned for. */
    size_t sram_target_mu = 23;

    /** Human-readable one-liner for reports. */
    std::string describe() const;

    /** The highlighted configuration of Table 5 / Section 7.4. */
    static DesignConfig paper_default();
};

/** A HyperPlonk proving workload. */
struct Workload {
    std::string name;
    size_t mu = 20;  ///< log2 of the gate count

    // Witness scalar statistics for the Sparse MSMs (Section 6.2;
    // pessimistic default: 10% dense, 45% ones, 45% zeros).
    double dense_fraction = 0.10;
    double ones_fraction = 0.45;
    double zeros_fraction = 0.45;

    /** Lookup-argument shape (sim/lookup_unit.hpp prices the helper
     * construction, extra commits and the LookupCheck):
     * `table_row_counts` holds each fused table's height in tag order
     * (the LookupUnit prices one CAM bank fill per table); empty means
     * the circuit carries no lookup argument. */
    uint64_t lookup_gates = 0;
    std::vector<uint64_t> table_row_counts;
    bool has_lookup() const { return !table_row_counts.empty(); }

    size_t num_gates() const { return size_t(1) << mu; }

    /** The five real-world workloads of Table 3. */
    static std::vector<Workload> paper_workloads();
    static Workload mock(size_t mu);

    /**
     * Build a workload from measured witness statistics (fractions of
     * zero / one / dense scalars across the three wire MLEs), so a
     * circuit proved by the software library can be fed to the chip
     * model with its real Sparse-MSM profile.
     */
    static Workload from_stats(std::string name, size_t mu, size_t zeros,
                               size_t ones, size_t total);

    /**
     * The workload of one proved circuit: its size, the zero / one
     * population of the three wire MLEs (from_stats) and its lookup
     * shape (lookup gate count and per-table heights).
     */
    static Workload of(std::string name,
                       const hyperplonk::CircuitIndex &index,
                       const hyperplonk::Witness &witness);
};

}  // namespace zkspeed::sim
