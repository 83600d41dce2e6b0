/**
 * @file
 * Table 1 reproduction: modular-multiplication counts, data movement
 * and arithmetic intensity (modmul/byte) of the HyperPlonk kernels,
 * measured by running our instrumented software prover.
 *
 * The prover runs at a benchmark-friendly size (default 2^12, override
 * with ZKSPEED_BENCH_MU); modmul counts and bytes scale linearly in the
 * gate count for every kernel except the MSMs (whose per-point cost
 * grows slowly with the Pippenger window), so arithmetic intensity —
 * the column that drives the paper's architectural conclusions — is
 * directly comparable with the paper's 2^20 measurements. Expected
 * shape: MSM kernels at ~8 modmul/byte on top, SumCheck-family kernels
 * two orders of magnitude lower, MLE updates at the bottom.
 */
#include <algorithm>
#include <cstdlib>
#include <random>

#include "hyperplonk/profile.hpp"
#include "hyperplonk/prover.hpp"
#include "report.hpp"

int
main()
{
    using namespace zkspeed;
    using namespace zkspeed::hyperplonk;

    size_t mu = 12;
    if (const char *env = std::getenv("ZKSPEED_BENCH_MU")) {
        mu = std::strtoul(env, nullptr, 10);
    }
    std::mt19937_64 rng(2024);
    auto [index, wit] = random_circuit(mu, rng);
    auto srs = std::make_shared<pcs::Srs>(pcs::Srs::generate(mu, rng));
    auto [pk, vk] = keygen(std::move(index), srs);

    obs::MetricsRegistry::global().reset();
    Proof proof = prove(pk, wit);
    bool ok = verify(vk, wit.public_inputs(pk.index), proof);

    bench::title("Table 1: kernel characterisation at 2^" +
                 std::to_string(mu) + " gates (measured)");
    bench::Table t({{"Kernel", 22}, {"Modmuls (M)", 13},
                    {"Input (MB)", 12}, {"Output (MB)", 13},
                    {"Modmul/byte", 13}, {"Time (ms)", 11}});
    // Sort by arithmetic intensity, as the paper does.
    auto kernels = kernel_profiles(obs::MetricsRegistry::global().snapshot());
    std::vector<std::pair<std::string, KernelProfile>> rows(
        kernels.begin(), kernels.end());
    std::sort(rows.begin(), rows.end(), [](auto &a, auto &b) {
        return a.second.arithmetic_intensity() >
               b.second.arithmetic_intensity();
    });
    for (const auto &[name, k] : rows) {
        t.row({name, bench::fmt(double(k.modmuls) / 1e6, 3),
               bench::fmt(double(k.bytes_in) / 1e6, 2),
               bench::fmt(double(k.bytes_out) / 1e6, 2),
               bench::fmt(k.arithmetic_intensity(), 3),
               bench::fmt(k.seconds * 1e3, 1)});
    }
    std::printf("\nPaper reference at 2^20 (modmul/byte): Poly Open "
                "MSMs 8.70, Wire Identity MSMs 8.59, Witness MSMs "
                "7.83, Batch Evaluations 0.28, ZeroCheck Rounds 0.22, "
                "Fraction MLE 0.16, PermCheck Rounds 0.13, Linear "
                "Combine 0.07, OpenCheck Rounds 0.04, Construct N&D "
                "0.04, Product MLE 0.03, All MLE Updates 0.01\n");
    std::printf("\nProof verified: %s; proof size %zu bytes\n",
                ok ? "yes" : "NO (BUG)", proof.size_bytes());
    return ok ? 0 : 1;
}
