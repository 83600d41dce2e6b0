/**
 * @file
 * Simulator model tests: unit invariants, calibration against published
 * numbers, Pareto properties and cycle-sim/analytic agreement.
 */
#include <gtest/gtest.h>

#include "runtime/service.hpp"
#include "scenarios/registry.hpp"
#include "sim/chip.hpp"
#include "sim/cpu_model.hpp"
#include "sim/dse.hpp"
#include "sim/replay.hpp"

namespace {

using namespace zkspeed::sim;

TEST(MsmModel, GroupedAggregationBeatsSzkp)
{
    // Figure 5: grouped aggregation cuts latency by ~92% on average.
    double total_reduction = 0;
    for (int w : {7, 8, 9, 10}) {
        uint64_t naive =
            bucket_aggregation_cycles(w, Aggregation::szkp_serial);
        uint64_t ours =
            bucket_aggregation_cycles(w, Aggregation::zkspeed_grouped);
        EXPECT_LT(ours, naive) << "window " << w;
        total_reduction += 1.0 - double(ours) / double(naive);
    }
    double avg = total_reduction / 4.0;
    EXPECT_GT(avg, 0.80) << "average reduction should be ~92%";
    // SZKP latency grows steeply with W (serial in bucket count).
    EXPECT_GT(bucket_aggregation_cycles(10, Aggregation::szkp_serial),
              4 * bucket_aggregation_cycles(7, Aggregation::szkp_serial));
}

TEST(MsmModel, DenseCyclesScaleWithPointsAndPes)
{
    DesignConfig cfg = DesignConfig::paper_default();
    MsmUnit msm(cfg);
    uint64_t t1 = msm.dense_cycles(1 << 20, 1);
    uint64_t t16 = msm.dense_cycles(1 << 20, 16);
    EXPECT_GT(t1, t16);
    EXPECT_GT(double(t1) / double(t16), 8.0) << "near-linear PE scaling";
    EXPECT_GT(msm.dense_cycles(1 << 21, 16), msm.dense_cycles(1 << 20, 16));
    // Small MSMs are dominated by aggregation + combine fixed costs, the
    // motivation for Section 4.2.2.
    uint64_t small = msm.dense_cycles(32, 16);
    EXPECT_GT(small, msm.dense_cycles(1, 16) / 2);
}

TEST(MsmModel, SparseCheaperThanDense)
{
    DesignConfig cfg = DesignConfig::paper_default();
    MsmUnit msm(cfg);
    uint64_t sparse = msm.sparse_cycles(1 << 20, 0.45, 0.10, 16);
    uint64_t dense = msm.dense_cycles(1 << 20, 16);
    EXPECT_LT(sparse, dense / 2);
    EXPECT_LT(msm.sparse_bytes(1 << 20, 0.45, 0.10),
              msm.dense_bytes(1 << 20));
}

TEST(MsmModel, CycleSimMatchesAnalyticBucketPhase)
{
    DesignConfig cfg = DesignConfig::paper_default();
    MsmUnit msm(cfg);
    const uint64_t n = 1 << 16;
    uint64_t simulated = msm.simulate_bucket_phase(n, 16, 7);
    // Analytic per-window share: points/pes with conflict factor.
    double analytic = double(n) / 16.0;
    double ratio = double(simulated) / analytic;
    EXPECT_GT(ratio, 0.95);
    EXPECT_LT(ratio, 1.40) << "conflict stalls should stay modest";
}

TEST(FracMleModel, ImbalanceAndAreaMinimalAt64)
{
    // Figure 8: both curves bottom out at b = 64.
    uint64_t best_imb = UINT64_MAX;
    double best_area = 1e300;
    int best_imb_b = 0, best_area_b = 0;
    for (int lb = 1; lb <= 8; ++lb) {
        int b = 1 << lb;
        if (FracMleUnit::latency_imbalance(b) < best_imb) {
            best_imb = FracMleUnit::latency_imbalance(b);
            best_imb_b = b;
        }
        if (FracMleUnit::standalone_area(b) < best_area) {
            best_area = FracMleUnit::standalone_area(b);
            best_area_b = b;
        }
    }
    EXPECT_EQ(best_imb_b, 64);
    EXPECT_EQ(best_area_b, 64);
    // Paper: 256 inverse units at b=2 vs ~12 at b=64.
    EXPECT_GE(FracMleUnit::inverse_units_needed(2), 200);
    EXPECT_LE(FracMleUnit::inverse_units_needed(64), 16);
}

TEST(SumcheckModel, BandwidthBoundAtHighPeCount)
{
    // Figure 11: SumCheck speedup saturates once bandwidth is the
    // bottleneck; MSM keeps scaling with compute.
    DesignConfig lo = DesignConfig::paper_default();
    lo.bandwidth_gbps = 512;
    DesignConfig hi = lo;
    hi.bandwidth_gbps = 4096;
    for (auto *cfg : {&lo, &hi}) {
        cfg->sumcheck_pes = 16;
        cfg->mle_update_pes = 11;
        cfg->mle_update_modmuls = 16;
    }
    auto shape = SumcheckShape::permcheck(20);
    uint64_t t_lo =
        SumcheckUnit(lo).run(shape, lo.bandwidth_gbps).cycles;
    uint64_t t_hi =
        SumcheckUnit(hi).run(shape, hi.bandwidth_gbps).cycles;
    EXPECT_GT(double(t_lo) / double(t_hi), 2.0)
        << "8x bandwidth should speed the memory-bound SumCheck >2x";

    // With 1 PE the low-bandwidth run is compute-bound instead.
    DesignConfig one = lo;
    one.sumcheck_pes = 1;
    one.mle_update_pes = 1;
    one.mle_update_modmuls = 1;
    auto c = SumcheckUnit(one).run(shape, one.bandwidth_gbps);
    EXPECT_GT(c.compute_cycles, t_lo / 4);
}

TEST(ChipModel, PaperDefaultAreaMatchesTable5)
{
    Chip chip(DesignConfig::paper_default());
    AreaBreakdown a = chip.area();
    // Table 5 at 7 nm: MSM 105.64, SumCheck 24.96, MLE Combine 9.56,
    // MLE Update 5.84, N&D 1.35, total 366.46.
    EXPECT_NEAR(a.msm, 105.64, 8.0);
    EXPECT_NEAR(a.sumcheck, 24.96, 2.0);
    EXPECT_NEAR(a.mle_combine, 9.56, 1.0);
    EXPECT_NEAR(a.mle_update, 5.84, 0.6);
    EXPECT_NEAR(a.construct_nd, 1.35, 0.2);
    EXPECT_NEAR(a.hbm_phy, 59.2, 0.1);
    EXPECT_NEAR(a.total(), 366.46, 55.0);
    // Compute vs memory split is in Table 5's proportions.
    EXPECT_NEAR(a.compute_total(), 163.5, 25.0);
}

TEST(ChipModel, PaperDefaultRuntimeNearTable3)
{
    Chip chip(DesignConfig::paper_default());
    // Table 3: 11.405 ms at 2^20 gates, 1.984 ms at 2^17.
    double t20 = chip.run(Workload::mock(20)).runtime_ms;
    EXPECT_GT(t20, 11.405 / 2.0);
    EXPECT_LT(t20, 11.405 * 2.0);
    double t17 = chip.run(Workload::mock(17)).runtime_ms;
    EXPECT_GT(t17, 1.984 / 2.5);
    EXPECT_LT(t17, 1.984 * 2.5);
    // Scaling is roughly linear in gate count.
    EXPECT_GT(t20 / t17, 4.0);
    EXPECT_LT(t20 / t17, 12.0);
}

TEST(ChipModel, StepBreakdownShapeMatchesFigure12)
{
    // Figure 12b: Wire Identity is the largest step (48.5%), then Batch
    // Evals & Poly Open (35.4%); Witness and Gate Identity are small.
    Chip chip(DesignConfig::paper_default());
    auto rep = chip.run(Workload::mock(20));
    auto &s = rep.step_cycles;
    EXPECT_GT(s["Wire Identity"], s["Witness MSMs"]);
    EXPECT_GT(s["Wire Identity"], s["Gate Identity"]);
    EXPECT_GT(s["Batch Evals & Poly Open"], s["Witness MSMs"]);
    double wire_share =
        double(s["Wire Identity"]) / double(rep.total_cycles);
    EXPECT_GT(wire_share, 0.30);
    EXPECT_LT(wire_share, 0.65);
}

TEST(ChipModel, UtilizationAndPowerSane)
{
    Chip chip(DesignConfig::paper_default());
    auto rep = chip.run(Workload::mock(20));
    for (const auto &[unit, u] : rep.utilization) {
        EXPECT_GE(u, 0.0) << unit;
        EXPECT_LE(u, 1.0) << unit;
    }
    // MSM is the most-utilised major unit (Figure 13).
    EXPECT_GT(rep.utilization.at("MSM"), rep.utilization.at("FracMLE"));
    EXPECT_GT(rep.utilization.at("MSM"),
              rep.utilization.at("Construct N&D"));
    // Total average power within 2x of Table 5's 170.88 W.
    EXPECT_GT(rep.total_power, 170.88 / 2);
    EXPECT_LT(rep.total_power, 170.88 * 2);
}

TEST(ChipModel, MoreBandwidthNeverHurts)
{
    Workload wl = Workload::mock(20);
    double prev = 1e300;
    for (double bw : {512.0, 1024.0, 2048.0, 4096.0}) {
        DesignConfig cfg = DesignConfig::paper_default();
        cfg.bandwidth_gbps = bw;
        double t = Chip(cfg).run(wl).runtime_ms;
        EXPECT_LE(t, prev * 1.001) << bw;
        prev = t;
    }
}

TEST(ChipModel, MorePesNeverHurt)
{
    Workload wl = Workload::mock(18);
    double prev = 1e300;
    for (int pes : {1, 2, 4, 8, 16}) {
        DesignConfig cfg = DesignConfig::paper_default();
        cfg.msm_pes_per_core = pes;
        double t = Chip(cfg).run(wl).runtime_ms;
        EXPECT_LE(t, prev * 1.001) << pes;
        prev = t;
    }
}

TEST(ChipModel, ProvedCircuitPricesLikeItsServiceTrace)
{
    // keccak-merkle at the registry's size floor: a multi-table lookup
    // bank (xor, chi and the rotation range widths), one round pinned
    // against ZKSPEED_KECCAK_ROUNDS.
    zkspeed::scenarios::Spec spec;
    spec.name = "keccak-merkle";
    spec.knobs["rounds"] = 1;
    auto inst = zkspeed::scenarios::Registry::global().build(spec);
    ASSERT_GT(inst.circuit.num_tables(), 1u);

    Workload wl = Workload::of(spec.name, inst.circuit, inst.witness);
    EXPECT_EQ(wl.mu, inst.circuit.num_vars);
    EXPECT_EQ(wl.lookup_gates, inst.circuit.num_lookup_gates());
    EXPECT_EQ(wl.table_row_counts, inst.circuit.table_row_counts);
    EXPECT_TRUE(wl.has_lookup());

    // The bench pricing path (Workload::of) and the service pricing
    // path (trace entry -> replay) must agree bit for bit.
    zkspeed::runtime::ServiceConfig cfg;
    cfg.num_workers = 1;
    zkspeed::runtime::ProofService service(cfg);
    zkspeed::runtime::JobRequest req;
    req.request_id = 1;
    req.circuit = inst.circuit;
    req.witness = inst.witness;
    auto resp = service.submit(req).get();
    ASSERT_TRUE(resp.ok()) << resp.error;
    service.shutdown();
    DesignConfig design = DesignConfig::paper_default();
    ReplayReport report = replay_trace(service.trace(), design);
    ASSERT_EQ(report.prove_jobs, 1u);
    ASSERT_EQ(report.jobs.size(), 1u);
    EXPECT_EQ(Chip(design).run(wl).runtime_ms, report.jobs[0].chip_ms);
}

TEST(CpuModel, AnchorsToTable3)
{
    // The fit must land on the published measurements.
    EXPECT_NEAR(CpuModel::total_ms(17), 1429, 40);
    EXPECT_NEAR(CpuModel::total_ms(20), 8619, 260);
    EXPECT_NEAR(CpuModel::total_ms(23), 74052, 2300);
    // Monotone in problem size.
    for (size_t mu = 17; mu < 24; ++mu) {
        EXPECT_LT(CpuModel::total_ms(mu), CpuModel::total_ms(mu + 1));
    }
    // Kernel shares sum to ~1.
    double sum = 0;
    for (auto &[k, v] : CpuModel::kernel_shares()) sum += v;
    EXPECT_NEAR(sum, 1.0, 0.005);
}

TEST(Dse, ParetoFrontIsNonDominated)
{
    Workload wl = Workload::mock(18);
    auto grid = Dse::grid_for_bandwidth(1024);
    // Sub-sample the grid for test speed.
    std::vector<DesignConfig> sample;
    for (size_t i = 0; i < grid.size(); i += 97) sample.push_back(grid[i]);
    auto pts = Dse::evaluate(sample, wl);
    auto front = Dse::pareto(pts);
    ASSERT_FALSE(front.empty());
    // Strictly decreasing area with increasing runtime.
    for (size_t i = 1; i < front.size(); ++i) {
        EXPECT_GT(front[i].runtime_ms, front[i - 1].runtime_ms);
        EXPECT_LT(front[i].area_mm2, front[i - 1].area_mm2);
    }
    // No sampled point dominates a frontier point.
    for (const auto &f : front) {
        for (const auto &p : pts) {
            bool dominates = p.runtime_ms < f.runtime_ms &&
                             p.area_mm2 < f.area_mm2;
            EXPECT_FALSE(dominates);
        }
    }
}

TEST(Dse, IsoAreaPickRespectsBudget)
{
    Workload wl = Workload::mock(18);
    auto grid = Dse::grid_for_bandwidth(2048);
    std::vector<DesignConfig> sample;
    for (size_t i = 0; i < grid.size(); i += 53) sample.push_back(grid[i]);
    for (auto &c : sample) c.sram_target_mu = 18;
    auto front = Dse::pareto(Dse::evaluate(sample, wl));
    auto pick = Dse::pick_iso_area(front, CpuModel::kDieAreaMm2);
    EXPECT_LE(pick.compute_area_mm2, CpuModel::kDieAreaMm2);
    EXPECT_GT(pick.runtime_ms, 0);
}

TEST(Ablations, PublishedSavingsReproduce)
{
    // Section 4.1.4: modmul sharing saves 48.9% per SumCheck PE.
    double unshared = double(kSumcheckPeModmulsUnshared);
    double shared = double(kSumcheckPeModmuls);
    EXPECT_NEAR(1.0 - shared / unshared, 0.489, 0.01);
    // Section 4.5: MLE Combine sharing saves ~41%.
    EXPECT_NEAR(1.0 - MleCombineUnit::area() /
                          MleCombineUnit::area_without_sharing(),
                0.41, 0.01);
    // Section 4.2.1: dropping the dedicated scalar bank saves 18% of
    // the MSM SRAM (3 banks instead of 3.66 effective).
    EXPECT_NEAR(1.0 - 3.0 / 3.66, 0.18, 0.01);
    // Section 4.6: MLE compression saves 10-11x.
    DesignConfig cfg = DesignConfig::paper_default();
    MemorySystem mem(cfg);
    double ratio =
        mem.global_sram_mb_uncompressed() / mem.global_sram_mb();
    EXPECT_GE(ratio, 10.0);
    EXPECT_LE(ratio, 11.5);
    // Section 4.3.3: MTU multifunction reuse saves ~41.6% vs dedicated
    // trees.
    MtuUnit mtu(cfg);
    double saving = 1.0 - mtu.area() / mtu.area_without_reuse();
    EXPECT_GT(saving, 0.40);
}

}  // namespace
