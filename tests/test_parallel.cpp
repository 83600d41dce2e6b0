/**
 * @file
 * Parallel-kernel tests: serial and parallel runs must be bit-identical
 * (field arithmetic is exact), and the modmul-counter migration must
 * keep instrumentation totals intact under threading.
 */
#include <gtest/gtest.h>

#include <random>

#include "ff/parallel.hpp"
#include "hyperplonk/prover.hpp"

namespace {

using namespace zkspeed;
using ff::Fr;
using ff::ParallelismGuard;

TEST(Parallel, ParallelForCoversRangeExactlyOnce)
{
    std::vector<std::atomic<int>> hits(10000);
    ff::parallel_for(hits.size(), [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) ++hits[i];
    }, 16);
    for (size_t i = 0; i < hits.size(); ++i) {
        ASSERT_EQ(hits[i].load(), 1) << i;
    }
}

TEST(Parallel, CounterMigrationPreservesTotals)
{
    std::mt19937_64 rng(601);
    std::vector<Fr> xs(5000);
    for (auto &x : xs) x = Fr::random(rng);
    auto run = [&](size_t threads) {
        ParallelismGuard guard(threads);
        ff::ModmulScope scope;
        std::vector<Fr> out(xs.size());
        ff::parallel_for(xs.size(), [&](size_t b, size_t e) {
            for (size_t i = b; i < e; ++i) out[i] = xs[i] * xs[i];
        }, 64);
        return scope.fr_delta();
    };
    EXPECT_EQ(run(1), xs.size());
    EXPECT_EQ(run(4), xs.size()) << "worker muls must migrate back";
}

TEST(Parallel, MsmIdenticalAcrossThreadCounts)
{
    // Values *and* Fq-mul counts must not depend on the worker count.
    // The first MSM also builds the process-wide GLV constants; do that
    // up front so its one-off muls stay out of the serial count.
    std::mt19937_64 rng(602);
    const curve::G1 g = curve::g1_generator();
    curve::msm(std::vector{g.to_affine()}, std::vector{Fr::one()});
    const curve::G1 step = g.mul(Fr::from_uint(7));
    for (size_t n : {6000u, 1u << 15}) {  // both above the threshold
        std::vector<curve::G1> jac(n);  // P_i = (7i + 1) G
        std::vector<Fr> scalars(n);
        curve::G1 acc = g;
        for (size_t i = 0; i < n; ++i) {
            jac[i] = acc;
            acc += step;
            scalars[i] = Fr::random(rng);
        }
        auto pts = curve::batch_to_affine<curve::G1Params>(
            std::span<const curve::G1>(jac));
        auto run = [&](size_t threads) {
            ParallelismGuard guard(threads);
            ff::ModmulScope scope;
            curve::G1 r = curve::msm(pts, scalars);
            return std::make_pair(r, scope.fq_delta());
        };
        auto [serial, serial_fq] = run(1);
        auto [parallel, parallel_fq] = run(8);
        EXPECT_EQ(serial, parallel) << "n = " << n;
        EXPECT_EQ(serial_fq, parallel_fq) << "n = " << n;
    }
}

TEST(Parallel, ProofsIdenticalAcrossThreadCounts)
{
    std::mt19937_64 rng(603);
    auto [index, wit] = hyperplonk::random_circuit(6, rng);
    auto srs = std::make_shared<pcs::Srs>(pcs::Srs::generate(6, rng));
    auto [pk, vk] = hyperplonk::keygen(std::move(index), srs);

    hyperplonk::Proof p1, p2;
    {
        ParallelismGuard guard(1);
        p1 = hyperplonk::prove(pk, wit);
    }
    {
        ParallelismGuard guard(8);
        p2 = hyperplonk::prove(pk, wit);
    }
    // Bit-identical transcripts: every message matches.
    EXPECT_EQ(p1.evals.flatten(), p2.evals.flatten());
    EXPECT_EQ(p1.gprime_value, p2.gprime_value);
    ASSERT_EQ(p1.zerocheck.round_evals.size(),
              p2.zerocheck.round_evals.size());
    for (size_t i = 0; i < p1.zerocheck.round_evals.size(); ++i) {
        EXPECT_EQ(p1.zerocheck.round_evals[i],
                  p2.zerocheck.round_evals[i]);
    }
    auto publics = wit.public_inputs(pk.index);
    EXPECT_TRUE(hyperplonk::verify(vk, publics, p2));
}

TEST(Parallel, ConcurrentCallersShareThePersistentPool)
{
    // Multiple caller threads with per-thread worker budgets must all
    // complete on the shared WorkerPool (PR 8), with each caller's
    // modmul counters exact: worker-side muls migrate to the caller
    // that enqueued the chunk, never to a bystander.
    constexpr size_t kCallers = 4;
    constexpr size_t kPerCaller = 20000;
    std::vector<uint64_t> deltas(kCallers, 0);
    std::vector<int> ok(kCallers, 0);
    std::vector<std::thread> callers;
    for (size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            ff::WorkerBudgetScope budget(3);
            std::mt19937_64 rng(700 + c);
            std::vector<Fr> xs(kPerCaller);
            for (auto &x : xs) x = Fr::random(rng);
            ff::ModmulScope scope;
            std::vector<Fr> out(xs.size());
            ff::parallel_for(xs.size(), [&](size_t b, size_t e) {
                for (size_t i = b; i < e; ++i) out[i] = xs[i] * xs[i];
            }, 64);
            deltas[c] = scope.fr_delta();
            bool all = true;
            for (size_t i = 0; i < xs.size(); ++i) {
                all = all && out[i] == xs[i] * xs[i];
            }
            ok[c] = all ? 1 : 2;
        });
    }
    for (auto &t : callers) t.join();
    for (size_t c = 0; c < kCallers; ++c) {
        EXPECT_EQ(ok[c], 1) << "caller " << c << " results";
        // The delta is read before the verification pass, so each
        // caller observed exactly its own kPerCaller squarings;
        // migration must not leak muls between concurrent callers.
        EXPECT_EQ(deltas[c], kPerCaller) << "caller " << c;
    }
}

TEST(Parallel, PoolReusesWorkersAcrossCalls)
{
    // The pool must not spawn fresh threads per call (the seed library
    // did): after a burst of parallel_for calls at the same budget, the
    // worker count stays bounded by that budget's needs.
    ParallelismGuard guard(4);
    std::vector<Fr> xs(50000, Fr::one());
    for (int rep = 0; rep < 20; ++rep) {
        std::vector<Fr> out(xs.size());
        ff::parallel_for(xs.size(), [&](size_t b, size_t e) {
            for (size_t i = b; i < e; ++i) out[i] = xs[i] + xs[i];
        }, 64);
    }
    // 4-way calls need at most 3 pool workers (the caller runs one
    // chunk stream itself); concurrent-caller tests may have grown the
    // pool further, but 20 bursts must not add 20x workers.
    EXPECT_LE(ff::WorkerPool::instance().worker_count(), size_t(16));
}

TEST(Parallel, SrsGenerationIdenticalAcrossThreadCounts)
{
    auto gen = [&](size_t threads) {
        ParallelismGuard guard(threads);
        std::mt19937_64 rng(604);
        return pcs::Srs::generate(5, rng);
    };
    pcs::Srs a = gen(1);
    pcs::Srs b = gen(8);
    ASSERT_EQ(a.lagrange.size(), b.lagrange.size());
    for (size_t k = 0; k < a.lagrange.size(); ++k) {
        ASSERT_EQ(a.lagrange[k].size(), b.lagrange[k].size());
        for (size_t i = 0; i < a.lagrange[k].size(); ++i) {
            EXPECT_EQ(a.lagrange[k][i], b.lagrange[k][i]);
        }
    }
}

}  // namespace
