#include "sim/chip.hpp"

#include <algorithm>

namespace zkspeed::sim {

Chip::Chip(const DesignConfig &cfg)
    : cfg_(cfg), msm_(cfg), sumcheck_(cfg), mtu_(cfg), frac_(cfg),
      lookup_(cfg), mem_(cfg)
{
}

AreaBreakdown
Chip::area() const
{
    AreaBreakdown a;
    a.msm = msm_.compute_area();
    a.sumcheck = sumcheck_.sumcheck_area();
    a.mle_update = sumcheck_.mle_update_area();
    a.construct_nd = ConstructNdUnit::area();
    a.fracmle = frac_.area();
    a.mle_combine = MleCombineUnit::area();
    a.mtu = mtu_.area();
    a.other = Sha3Unit::area() + kInterconnectArea;
    double sram_mb = mem_.global_sram_mb() + msm_.local_sram_mb() +
                     frac_.local_sram_mb();
    a.sram = MemorySystem::sram_area(sram_mb);
    a.hbm_phy = mem_.phy_area();
    return a;
}

ChipReport
Chip::run(const Workload &wl) const
{
    ChipReport rep;
    const size_t mu = wl.mu;
    const uint64_t n = uint64_t(1) << mu;
    const int total_pes = msm_.total_pes();
    const int pes_per_core = cfg_.msm_pes_per_core;
    const double bpc = mem_.bytes_per_cycle();

    uint64_t msm_busy = 0, sc_busy = 0, upd_busy = 0, mtu_busy = 0;
    uint64_t nd_busy = 0, frac_busy = 0, comb_busy = 0, sha_busy = 0;

    // ------------------------------------------------------------------
    // Step 1: Witness Commits — three Sparse MSMs, serial on the
    // critical path (Section 4.2), each using every PE.
    // ------------------------------------------------------------------
    uint64_t witness_cycles = 0;
    {
        uint64_t compute = msm_.sparse_cycles(n, wl.ones_fraction,
                                              wl.dense_fraction, total_pes);
        double bytes = msm_.sparse_bytes(n, wl.ones_fraction,
                                         wl.dense_fraction);
        uint64_t one = std::max(compute, mem_.transfer_cycles(bytes));
        witness_cycles = 3 * one + Sha3Unit::cycles(4);
        msm_busy += 3 * compute;
        sha_busy += Sha3Unit::cycles(4);
        rep.hbm_bytes += 3 * bytes;
    }
    rep.step_cycles["Witness MSMs"] = witness_cycles;
    rep.kernel_cycles["Witness MSMs"] = witness_cycles;

    // ------------------------------------------------------------------
    // Step 2: Gate Identity — Build MLE (f_z1) then the ZeroCheck.
    // ------------------------------------------------------------------
    uint64_t gate_cycles = 0;
    {
        uint64_t build = mtu_.build_mle_cycles(mu);
        mtu_busy += build;
        auto zc = sumcheck_.run(SumcheckShape::zerocheck(mu), bpc);
        sc_busy += zc.sc_busy_cycles;
        upd_busy += zc.upd_busy_cycles;
        rep.hbm_bytes += zc.hbm_bytes;
        gate_cycles = build + zc.cycles;
        // Build-MLE work gets its own kernel bucket (one entry summed
        // across steps 2/3/3.5/5) so kernel_cycles tiles total_cycles
        // and obs/attrib can join it against the measured "Build MLE"
        // ProfileRegions.
        rep.kernel_cycles["Build MLE"] += build;
        rep.kernel_cycles["ZeroCheck"] = zc.cycles;
    }
    rep.step_cycles["Gate Identity"] = gate_cycles;

    // ------------------------------------------------------------------
    // Step 3: Wiring Identity — the pipelined front (Construct N&D ->
    // FracMLE -> ProdMLE -> two dense MSMs; Section 5's four-channel
    // case) followed by the PermCheck ZeroCheck.
    // ------------------------------------------------------------------
    uint64_t wire_cycles = 0;
    {
        uint64_t nd = ConstructNdUnit::cycles(mu);
        uint64_t fr = frac_.cycles(mu);
        uint64_t prod = mtu_.product_mle_cycles(mu);
        // phi/pi commitments: with two cores the MSMs run concurrently,
        // otherwise back to back on the single core's PEs.
        uint64_t one_msm = msm_.dense_cycles(n, pes_per_core);
        uint64_t msms = (cfg_.msm_cores >= 2) ? one_msm : 2 * one_msm;
        // Front stages stream into each other (MSM consumes FracMLE and
        // ProdMLE output as it is produced): latency is the slowest
        // stage plus pipeline fill.
        uint64_t fill = uint64_t(kPaddLatency) + 2 * kModmulLatency +
                        FracMleUnit::inversion_path_latency(
                            cfg_.inversion_batch);
        double front_bytes =
            6.0 * n * kFrBytes          // N1..3, D1..3 to HBM
            + 2.0 * n * kFrBytes        // phi, pi to HBM
            + 2.0 * n * kG1PointBytes;  // MSM base points in
        uint64_t front = std::max({nd, fr, prod, msms,
                                   mem_.transfer_cycles(front_bytes)}) +
                         fill;
        nd_busy += nd;
        frac_busy += fr;
        mtu_busy += prod;
        msm_busy += msms;  // wall time the MSM unit is occupied
        rep.hbm_bytes += front_bytes;

        uint64_t build = mtu_.build_mle_cycles(mu);
        mtu_busy += build;
        auto pc = sumcheck_.run(SumcheckShape::permcheck(mu), bpc);
        sc_busy += pc.sc_busy_cycles;
        upd_busy += pc.upd_busy_cycles;
        rep.hbm_bytes += pc.hbm_bytes;
        wire_cycles = front + build + pc.cycles;
        rep.kernel_cycles["Build MLE"] += build;
        rep.kernel_cycles["Wiring MSMs"] = front;
        rep.kernel_cycles["PermCheck"] = pc.cycles;
    }
    rep.step_cycles["Wire Identity"] = wire_cycles;

    // ------------------------------------------------------------------
    // Step 3.5: Lookup Argument (lookup workloads only) — multiplicity
    // probes, denominator fold, two FracMLE helper passes, three MSM
    // commits and the degree-3 LookupCheck (sim/lookup_unit.hpp).
    // ------------------------------------------------------------------
    uint64_t lookup_cycles = 0;
    if (wl.has_lookup()) {
        uint64_t mult =
            LookupUnit::multiplicity_cycles(mu, wl.table_row_counts);
        uint64_t fold = LookupUnit::fold_cycles(mu);
        uint64_t helpers = lookup_.helper_cycles(mu);
        // m is multiplicity-sparse (at most one non-zero per bank
        // row); the helpers are dense 255-bit tables. Three commits on
        // the MSM unit, concurrent across cores like the phi/pi pair.
        uint64_t one_msm = msm_.dense_cycles(n, pes_per_core);
        uint64_t msms =
            (cfg_.msm_cores >= 2) ? 2 * one_msm : 3 * one_msm;
        double front_bytes = LookupUnit::helper_bytes(mu) +
                             3.0 * n * kG1PointBytes;  // commit points
        uint64_t front =
            std::max({mult + fold + helpers, msms,
                      mem_.transfer_cycles(front_bytes)}) +
            FracMleUnit::inversion_path_latency(cfg_.inversion_batch);
        nd_busy += fold;
        frac_busy += helpers;
        msm_busy += msms;
        rep.hbm_bytes += front_bytes;

        uint64_t build = mtu_.build_mle_cycles(mu);
        mtu_busy += build;
        auto lc = sumcheck_.run(SumcheckShape::lookupcheck(mu), bpc);
        sc_busy += lc.sc_busy_cycles;
        upd_busy += lc.upd_busy_cycles;
        rep.hbm_bytes += lc.hbm_bytes;
        lookup_cycles = front + build + lc.cycles;
        rep.kernel_cycles["Build MLE"] += build;
        // `front` is the whole pipelined front end (probes + fold +
        // FracMLE passes + commits), not just the MSM share.
        rep.kernel_cycles["Lookup Front"] = front;
        rep.kernel_cycles["LookupCheck"] = lc.cycles;
        rep.step_cycles["Lookup Argument"] = lookup_cycles;
    }

    // ------------------------------------------------------------------
    // Step 4: Batch Evaluations — 22 MLE Evaluates on the MTU (+11 at
    // the LookupCheck point; Section 3.3.4). phi and pi stream from
    // HBM; the rest are resident (Section 4.6 cuts this step's
    // bandwidth by 84%).
    // ------------------------------------------------------------------
    const uint64_t num_evals = wl.has_lookup() ? 33 : 22;
    uint64_t batch_cycles = 0;
    {
        uint64_t compute = num_evals * mtu_.evaluate_cycles(mu);
        double bytes = 7.0 * n * kFrBytes;  // phi x3 + pi x4 reads
        if (wl.has_lookup()) {
            bytes += 2.0 * n * kFrBytes;  // h_f, h_t stream back in
        }
        batch_cycles =
            std::max(compute, mem_.transfer_cycles(bytes)) +
            Sha3Unit::cycles(8);
        mtu_busy += compute;
        sha_busy += Sha3Unit::cycles(8);
        rep.hbm_bytes += bytes;
        rep.kernel_cycles["FinalEval"] = batch_cycles;
    }

    // ------------------------------------------------------------------
    // Step 5: Polynomial Opening — MLE Combine (6 y MLEs), Build MLE
    // (6 k MLEs), OpenCheck, g' combine, and the halving MSMs.
    // ------------------------------------------------------------------
    uint64_t open_cycles = 0;
    {
        const uint64_t num_points = wl.has_lookup() ? 7 : 6;
        // Linear Combine: one multiply-accumulate per claim per gate
        // into the per-point y MLEs.
        uint64_t comb1 = MleCombineUnit::cycles(num_evals * n);
        double comb1_bytes =
            2.0 * n * kFrBytes                     // phi, pi in
            + double(num_points) * n * kFrBytes;   // y_j out
        uint64_t lin = std::max(comb1, mem_.transfer_cycles(comb1_bytes));
        comb_busy += comb1;
        rep.hbm_bytes += comb1_bytes;

        uint64_t builds = num_points * mtu_.build_mle_cycles(mu);
        double build_bytes = double(num_points) * n * kFrBytes;  // k_j
        uint64_t build =
            std::max(builds, mem_.transfer_cycles(build_bytes));
        mtu_busy += builds;
        rep.hbm_bytes += build_bytes;

        auto oc = sumcheck_.run(
            SumcheckShape::opencheck(mu, wl.has_lookup()), bpc);
        sc_busy += oc.sc_busy_cycles;
        upd_busy += oc.upd_busy_cycles;
        rep.hbm_bytes += oc.hbm_bytes;

        // g' = sum_j k_j(r) y_j plus the ReduceMLE halving pass.
        uint64_t comb2 = MleCombineUnit::cycles(num_points * n + n / 2);
        double comb2_bytes =
            double(num_points) * n * kFrBytes + n * kFrBytes;
        uint64_t gp = std::max(comb2, mem_.transfer_cycles(comb2_bytes));
        comb_busy += comb2;
        rep.hbm_bytes += comb2_bytes;

        // Halving MSM sequence: 2^{mu-1} + ... + 1 points.
        uint64_t msms = msm_.halving_sequence_cycles(mu, total_pes);
        double msm_bytes = double(n) * (kG1PointBytes + kFrBytes);
        uint64_t msm_lat =
            std::max(msms, mem_.transfer_cycles(msm_bytes));
        msm_busy += msms;
        rep.hbm_bytes += msm_bytes;

        open_cycles = lin + build + oc.cycles + gp + msm_lat;
        rep.kernel_cycles["Build MLE"] += build;
        rep.kernel_cycles["OpenCheck"] = oc.cycles;
        rep.kernel_cycles["PolyOpen MSMs"] = msm_lat;
        rep.kernel_cycles["Other"] = lin + gp;
    }
    rep.step_cycles["Batch Evals & Poly Open"] = batch_cycles + open_cycles;

    rep.total_cycles =
        witness_cycles + gate_cycles + wire_cycles + lookup_cycles +
        batch_cycles + open_cycles;
    rep.runtime_ms = double(rep.total_cycles) / (kClockGhz * 1e6);

    // ------------------------------------------------------------------
    // Utilisation and power.
    // ------------------------------------------------------------------
    double t = double(rep.total_cycles);
    auto util = [&](uint64_t busy) {
        return std::min(1.0, double(busy) / t);
    };
    rep.utilization["MSM"] = util(msm_busy);
    rep.utilization["Sumcheck"] = util(sc_busy);
    rep.utilization["MLE Update"] = util(upd_busy);
    rep.utilization["Multifunction"] = util(mtu_busy);
    rep.utilization["Construct N&D"] = util(nd_busy);
    rep.utilization["FracMLE"] = util(frac_busy);
    rep.utilization["MLE Combine"] = util(comb_busy);
    rep.utilization["SHA3"] = util(sha_busy);

    AreaBreakdown a = area();
    auto pw = [&](double ar, double density, double u) {
        return ar * density * u;
    };
    rep.power["MSM"] = pw(a.msm, kPowerDensityMsm, rep.utilization["MSM"]);
    rep.power["SumCheck"] =
        pw(a.sumcheck, kPowerDensitySumcheck, rep.utilization["Sumcheck"]);
    rep.power["MLE Update"] = pw(a.mle_update, kPowerDensityMleUpdate,
                                 rep.utilization["MLE Update"]);
    rep.power["Multifunction Tree"] =
        pw(a.mtu, kPowerDensityMtu, rep.utilization["Multifunction"]);
    rep.power["Construct N&D"] =
        pw(a.construct_nd, kPowerDensityNd, rep.utilization["Construct N&D"]);
    rep.power["FracMLE"] =
        pw(a.fracmle, kPowerDensityFrac, rep.utilization["FracMLE"]);
    rep.power["MLE Combine"] = pw(a.mle_combine, kPowerDensityCombine,
                                  rep.utilization["MLE Combine"]);
    rep.power["Other"] = pw(a.other, kPowerDensityOther, 1.0);
    rep.power["SRAM"] = pw(a.sram, kPowerDensitySram, 1.0);
    // PHY power scales with achieved bandwidth utilisation.
    double bw_util =
        std::min(1.0, rep.hbm_bytes / (double(rep.total_cycles) *
                                       mem_.bytes_per_cycle()));
    rep.power["HBM PHY"] = pw(a.hbm_phy, kPowerDensityPhy,
                              std::max(0.5, bw_util));
    for (const auto &[k, v] : rep.power) rep.total_power += v;
    return rep;
}

}  // namespace zkspeed::sim
