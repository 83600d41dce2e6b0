/**
 * @file
 * The paper's motivating asymptotic claim (Sections 1 and 9): replacing
 * NTT-based encodings, O(n log n), with SumCheck, O(n), changes the
 * prover's scaling. We measure both kernels of our own library over a
 * size sweep and report modmul counts and wall time per element.
 *
 * Expected shape: NTT modmuls/element grow ~ log n; SumCheck
 * modmuls/element stay flat.
 */
#include <chrono>
#include <random>

#include "ff/ntt.hpp"
#include "hyperplonk/sumcheck.hpp"
#include "report.hpp"

namespace {

using zkspeed::ff::Fr;
using namespace zkspeed;

double
seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

}  // namespace

int
main()
{
    std::mt19937_64 rng(9);
    bench::title("Asymptotic motivation: NTT O(n log n) vs SumCheck O(n)");
    bench::Table t({{"log2(n)", 9}, {"NTT muls/elem", 15},
                    {"SC muls/elem", 14}, {"NTT ns/elem", 13},
                    {"SC ns/elem", 12}, {"NTT/SC muls", 13}});
    for (size_t mu : {10u, 12u, 14u, 16u}) {
        const size_t n = size_t(1) << mu;
        // NTT forward pass.
        ff::NttDomain d(mu);
        std::vector<Fr> a(n);
        for (auto &x : a) x = Fr::random(rng);
        ff::ModmulScope ntt_scope;
        auto t0 = std::chrono::steady_clock::now();
        d.forward(a);
        double ntt_secs = seconds_since(t0);
        double ntt_muls = double(ntt_scope.fr_delta());

        // One full SumCheck (all rounds) over a degree-2 product —
        // the HyperPlonk replacement for polynomial identity checks.
        mle::VirtualPolynomial vp(mu);
        const auto m1 = mle::Mle::random(mu, rng);
        const auto m2 = mle::Mle::random(mu, rng);
        vp.add_product(Fr::one(), {m1, m2});
        hash::Transcript tr("bench");
        ff::ModmulScope sc_scope;
        t0 = std::chrono::steady_clock::now();
        auto res = hyperplonk::sumcheck_prove(vp, tr);
        double sc_secs = seconds_since(t0);
        double sc_muls = double(sc_scope.fr_delta());
        (void)res;

        t.row({bench::fmt_int(mu), bench::fmt(ntt_muls / n, 2),
               bench::fmt(sc_muls / n, 2),
               bench::fmt(ntt_secs * 1e9 / n, 1),
               bench::fmt(sc_secs * 1e9 / n, 1),
               bench::fmt(ntt_muls / sc_muls, 2)});
    }
    std::printf("\nExpected: the NTT muls/element column grows with "
                "log2(n); the SumCheck column is flat, so the final "
                "ratio widens — the paper's O(n log n) -> O(n) "
                "argument.\n");
    return 0;
}
