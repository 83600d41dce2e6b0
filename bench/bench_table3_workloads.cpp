/**
 * @file
 * Table 3 reproduction: end-to-end runtimes on the five real-world
 * workloads for the fixed highlighted design (Table 5 configuration,
 * 2 TB/s), against the CPU baseline.
 *
 * Expected shape: speedups in the 700-900x range, rising with problem
 * size, geomean ~800x.
 *
 * A second table drives the scenario workload library (src/scenarios/)
 * through the same design: every honest registry family is built, its
 * real witness scalar population measured, and the resulting calibrated
 * workload run on the chip model — so new scenario families
 * automatically show up in the paper-style reporting.
 */
#include "report.hpp"
#include "scenarios/registry.hpp"
#include "sim/chip.hpp"
#include "sim/cpu_model.hpp"

int
main()
{
    using namespace zkspeed;
    using namespace zkspeed::sim;

    // Paper-reported values for side-by-side comparison.
    const double paper_cpu[] = {1429, 8619, 18637, 37469, 74052};
    const double paper_zk[] = {1.984, 11.405, 22.082, 43.451, 86.181};

    Chip chip(DesignConfig::paper_default());
    bench::title("Table 3: zkSpeed on real-world workloads");
    bench::Table t({{"Workload", 30}, {"Size", 7},
                    {"CPU ms (model)", 16}, {"CPU ms (paper)", 16},
                    {"zkSpeed ms", 12}, {"zkSpeed (paper)", 17},
                    {"Speedup", 10}});
    std::vector<double> speedups;
    auto wls = Workload::paper_workloads();
    for (size_t i = 0; i < wls.size(); ++i) {
        const auto &wl = wls[i];
        double cpu = CpuModel::total_ms(wl.mu);
        auto rep = chip.run(wl);
        double sp = cpu / rep.runtime_ms;
        speedups.push_back(sp);
        t.row({wl.name, "2^" + std::to_string(wl.mu),
               bench::fmt(cpu, 0), bench::fmt(paper_cpu[i], 0),
               bench::fmt(rep.runtime_ms, 3), bench::fmt(paper_zk[i], 3),
               bench::fmt(sp, 0) + "x"});
    }
    std::printf("\nGeomean speedup: %.0fx (paper: 801x)\n",
                bench::geomean(speedups));
    std::printf("Design: %s\n",
                DesignConfig::paper_default().describe().c_str());
    AreaBreakdown a = chip.area();
    std::printf("Total area: %.1f mm^2 (paper: 366.46 mm^2)\n",
                a.total());

    // ------------------------------------------------------------------
    // Scenario registry on the same design: measured witness sparsity
    // per family, calibrated Sparse-MSM profile on the chip.
    // ------------------------------------------------------------------
    bench::title("Scenario library on the highlighted design");
    bench::Table st({{"Scenario", 24}, {"Size", 7}, {"zeros", 8},
                     {"ones", 8}, {"CPU ms (model)", 16},
                     {"zkSpeed ms", 12}, {"Speedup", 10}});
    const auto &reg = scenarios::Registry::global();
    for (const auto &spec : reg.default_suite(/*seed=*/1,
                                              /*log_size=*/8)) {
        const auto *family = reg.find(spec.name);
        if (family->adversarial()) continue;  // no honest witness stats
        auto inst = reg.build(spec);
        Workload wl = Workload::of(inst.spec.name, inst.circuit,
                                   inst.witness);
        double cpu = CpuModel::total_ms(wl.mu);
        auto rep = chip.run(wl);
        st.row({wl.name, "2^" + std::to_string(wl.mu),
                bench::fmt(100.0 * wl.zeros_fraction, 1) + "%",
                bench::fmt(100.0 * wl.ones_fraction, 1) + "%",
                bench::fmt(cpu, 2), bench::fmt(rep.runtime_ms, 3),
                bench::fmt(cpu / rep.runtime_ms, 0) + "x"});
    }
    return 0;
}
