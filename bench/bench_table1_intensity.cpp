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
 *
 * The rows are built from the proof's `prover` trace spans. A sumcheck
 * span splits into its "... Rounds" row and the "All MLE Updates" row
 * by its exact round/update args; its wall time splits by their modmul
 * share. Exits 1 when the proof does not verify or a Table-1 row is
 * missing.
 */
#include <algorithm>
#include <cstdlib>
#include <map>
#include <random>

#include "hyperplonk/prover.hpp"
#include "obs/trace.hpp"
#include "report.hpp"

namespace {

using namespace zkspeed;

/** One Table-1 row, summed over the proof's spans of that kernel. */
struct Row {
    double modmuls = 0;
    double bytes_in = 0;
    double bytes_out = 0;
    double ms = 0;

    double
    intensity() const
    {
        double bytes = bytes_in + bytes_out;
        return bytes == 0 ? 0.0 : modmuls / bytes;
    }
};

/** Every row a proof of random_circuit (no lookup) produces. */
constexpr const char *kTable1Rows[] = {
    "Witness MSMs",       "Wire Identity MSMs", "Poly Open MSMs",
    "Build MLE",          "Construct N & D",    "Fraction MLE",
    "Product MLE",        "ZeroCheck Rounds",   "PermCheck Rounds",
    "OpenCheck Rounds",   "All MLE Updates",    "Batch Evaluations",
    "Linear Combine"};

std::map<std::string, Row>
table1_rows(const std::vector<obs::SpanEvent> &events)
{
    std::map<std::string, Row> rows;
    for (const auto &ev : events) {
        if (ev.category != "prover") continue;
        std::map<std::string, double> a(ev.args.begin(), ev.args.end());
        double ms = ev.dur_us / 1e3;
        Row &r = rows[ev.name];
        if (!a.contains("round_modmuls")) {
            r.modmuls += a["modmul_fr"] + a["modmul_fq"];
            r.bytes_in += a["bytes_in"];
            r.bytes_out += a["bytes_out"];
            r.ms += ms;
            continue;
        }
        double rounds = a["round_modmuls"];
        double updates = a["update_modmuls"];
        double round_share =
            rounds + updates == 0 ? 0.5 : rounds / (rounds + updates);
        r.modmuls += rounds;
        r.bytes_in += a["round_bytes_in"];
        r.ms += ms * round_share;
        Row &u = rows["All MLE Updates"];
        u.modmuls += updates;
        u.bytes_in += a["update_bytes_in"];
        u.bytes_out += a["bytes_out"];
        u.ms += ms * (1.0 - round_share);
    }
    return rows;
}

}  // namespace

int
main()
{
    using namespace zkspeed::hyperplonk;

    size_t mu = 12;
    if (const char *env = std::getenv("ZKSPEED_BENCH_MU")) {
        mu = std::strtoul(env, nullptr, 10);
    }
    std::mt19937_64 rng(2024);
    auto [index, wit] = random_circuit(mu, rng);
    auto srs = std::make_shared<pcs::Srs>(pcs::Srs::generate(mu, rng));
    auto [pk, vk] = keygen(std::move(index), srs);

    auto &ring = obs::TraceRecorder::global();
    ring.clear();
    Proof proof = prove(pk, wit);
    bool ok = verify(vk, wit.public_inputs(pk.index), proof);
    auto kernels = table1_rows(ring.events());

    bench::title("Table 1: kernel characterisation at 2^" +
                 std::to_string(mu) + " gates (measured)");
    bench::Table t({{"Kernel", 22}, {"Modmuls (M)", 13},
                    {"Input (MB)", 12}, {"Output (MB)", 13},
                    {"Modmul/byte", 13}, {"Time (ms)", 11}});
    // Sort by arithmetic intensity, as the paper does.
    std::vector<std::pair<std::string, Row>> rows(kernels.begin(),
                                                  kernels.end());
    std::sort(rows.begin(), rows.end(), [](auto &a, auto &b) {
        return a.second.intensity() > b.second.intensity();
    });
    for (const auto &[name, k] : rows) {
        t.row({name, bench::fmt(k.modmuls / 1e6, 3),
               bench::fmt(k.bytes_in / 1e6, 2),
               bench::fmt(k.bytes_out / 1e6, 2),
               bench::fmt(k.intensity(), 3), bench::fmt(k.ms, 1)});
    }
    std::printf("\nPaper reference at 2^20 (modmul/byte): Poly Open "
                "MSMs 8.70, Wire Identity MSMs 8.59, Witness MSMs "
                "7.83, Batch Evaluations 0.28, ZeroCheck Rounds 0.22, "
                "Fraction MLE 0.16, PermCheck Rounds 0.13, Linear "
                "Combine 0.07, OpenCheck Rounds 0.04, Construct N&D "
                "0.04, Product MLE 0.03, All MLE Updates 0.01\n");
    std::printf("\nProof verified: %s; proof size %zu bytes\n",
                ok ? "yes" : "NO (BUG)", proof.size_bytes());
    for (const char *name : kTable1Rows) {
        if (!kernels.contains(name)) {
            std::printf("missing Table-1 row: %s\n", name);
            ok = false;
        }
    }
    return ok ? 0 : 1;
}
