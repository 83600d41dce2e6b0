/**
 * @file
 * Parallel-kernel tests: serial and parallel runs must be bit-identical
 * (field arithmetic is exact), the modmul-counter migration must keep
 * instrumentation totals intact under threading, and a proof under a
 * worker budget must run nearly all of its modmuls inside multi-chunk
 * regions.
 */
#include <gtest/gtest.h>

#include <random>

#include "ff/parallel.hpp"
#include "hyperplonk/prover.hpp"
#include "hyperplonk/serialize.hpp"
#include "scenarios/registry.hpp"

namespace {

using namespace zkspeed;
using ff::Fr;

TEST(Parallel, ParallelForCoversRangeExactlyOnce)
{
    ff::WorkerBudgetScope budget(4);
    std::vector<std::atomic<int>> hits(10000);
    ff::parallel_for(hits.size(), ff::kGrainModmuls / 16,
                     [&](size_t b, size_t e) {
                         for (size_t i = b; i < e; ++i) ++hits[i];
                     });
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
        ff::WorkerBudgetScope budget(threads);
        ff::ModmulScope scope;
        std::vector<Fr> out(xs.size());
        ff::parallel_for(xs.size(), 1, [&](size_t b, size_t e) {
            for (size_t i = b; i < e; ++i) out[i] = xs[i] * xs[i];
        });
        return std::make_pair(scope.fr_delta(), scope.parallel_fr_delta());
    };
    EXPECT_EQ(run(1), std::make_pair(uint64_t(xs.size()), uint64_t(0)));
    EXPECT_EQ(run(4), std::make_pair(uint64_t(xs.size()), uint64_t(xs.size())))
        << "worker muls must migrate back, all tallied as parallel";
}

TEST(Parallel, InversionCountsMigrate)
{
    // Inversions are tallied per field, and worker-side ones migrate
    // back like modmuls do.
    std::mt19937_64 rng(605);
    std::vector<Fr> xs(64);
    for (auto &x : xs) x = Fr::random(rng);
    auto run = [&](size_t threads) {
        ff::WorkerBudgetScope budget(threads);
        ff::ModmulScope scope;
        std::vector<Fr> out(xs.size());
        ff::parallel_for(xs.size(), ff::kGrainModmuls,
                         [&](size_t b, size_t e) {
                             for (size_t i = b; i < e; ++i) {
                                 out[i] = xs[i].inverse();
                             }
                         });
        ff::Fq::one().dbl().inverse();
        return std::make_tuple(scope.inv_fr_delta(), scope.inv_fq_delta(),
                               scope.fr_delta());
    };
    const auto serial = run(1);
    EXPECT_EQ(std::get<0>(serial), xs.size());
    EXPECT_EQ(std::get<1>(serial), 1u);
    EXPECT_EQ(run(4), serial);
}

TEST(Parallel, GrainRuleSplitsByWorkNotSize)
{
    // The same item count runs inline or splits depending only on the
    // stated per-item cost: a region splits into chunks of at least
    // kGrainModmuls each, up to the budget.
    ff::WorkerBudgetScope budget(4);
    auto chunks = [](size_t n, size_t item_modmuls) {
        std::atomic<size_t> calls{0};
        ff::parallel_for(n, item_modmuls,
                         [&](size_t, size_t) { ++calls; });
        return calls.load();
    };
    EXPECT_EQ(chunks(8, 1), 1u);
    EXPECT_EQ(chunks(8, ff::kGrainModmuls), 4u);
    EXPECT_EQ(chunks(2 * ff::kGrainModmuls - 1, 1), 1u);
    EXPECT_EQ(chunks(2 * ff::kGrainModmuls, 1), 2u);
    EXPECT_EQ(chunks(3, 100 * ff::kGrainModmuls), 3u) << "capped at n";
    ff::WorkerBudgetScope serial(1);
    EXPECT_EQ(chunks(1000, 100 * ff::kGrainModmuls), 1u);
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
    // n = 1 is the only size that keeps its 255-bit scalars; from
    // n = 2 up every MSM takes the GLV split, and 2 and 3 are its
    // smallest sizes. 1024 sits in the range whose windows used to run
    // serially; from there up the windows aggregate in groups, and
    // 2048 and 4096 are the opening and commit sizes of a 2^12 proof.
    for (size_t n : {1u, 2u, 3u, 4u, 31u, 32u, 1024u, 2048u, 4096u, 6000u,
                     1u << 15}) {
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
            ff::WorkerBudgetScope budget(threads);
            ff::ModmulScope scope;
            curve::G1 r = curve::msm(pts, scalars);
            return std::make_tuple(r, scope.fq_delta(),
                                   scope.parallel_fq_delta());
        };
        auto [serial, serial_fq, serial_par] = run(1);
        auto [parallel, parallel_fq, parallel_par] = run(8);
        EXPECT_EQ(serial, parallel) << "n = " << n;
        EXPECT_EQ(serial_fq, parallel_fq) << "n = " << n;
        EXPECT_EQ(serial_par, 0u) << "n = " << n;
        // Windows thread at every size.
        EXPECT_GT(parallel_par, 0u) << "n = " << n;
    }
}

TEST(Parallel, ProofsIdenticalAcrossThreadCounts)
{
    // At mu = 12 the sumcheck rounds, opening MSM windows and the Fr
    // kernels of Batch Evaluations / Linear Combine / Build MLE all split
    // under a budget of 4. Proof bytes and both modmul counts must match
    // a budget-1 run exactly.
    for (auto [mu, budget] : {std::pair<size_t, size_t>{6, 8}, {12, 4}}) {
        std::mt19937_64 rng(603);
        auto [index, wit] = hyperplonk::random_circuit(mu, rng);
        auto srs = std::make_shared<pcs::Srs>(pcs::Srs::generate(mu, rng));
        auto [pk, vk] = hyperplonk::keygen(std::move(index), srs);
        auto run = [&](size_t b) {
            ff::WorkerBudgetScope scope(b);
            ff::ModmulScope muls;
            auto proof = hyperplonk::prove(pk, wit);
            return std::make_tuple(proof, muls.fr_delta(), muls.fq_delta());
        };
        auto [p1, fr1, fq1] = run(1);
        auto [p2, fr2, fq2] = run(budget);
        EXPECT_EQ(hyperplonk::serde::serialize_proof(p1),
                  hyperplonk::serde::serialize_proof(p2))
            << "mu = " << mu;
        EXPECT_EQ(fr1, fr2) << "mu = " << mu;
        EXPECT_EQ(fq1, fq2) << "mu = " << mu;
        auto publics = wit.public_inputs(pk.index);
        EXPECT_TRUE(hyperplonk::verify(vk, publics, p2)) << "mu = " << mu;
    }
}

TEST(Parallel, ProofKernelsStayInsideTheBudget)
{
    // Under a budget of 4, a 2^12 proof must run its modmuls inside
    // multi-chunk regions: at most 5% of Fq muls and 20% of Fr muls may
    // run serially. The tally is exact (ff/counters.hpp), so this gates
    // deterministically on any host.
    const auto &reg = scenarios::Registry::global();
    for (const char *family :
         {"sparse-arithmetic", "dense-arithmetic", "rescue-chain"}) {
        scenarios::Spec spec;
        spec.name = family;
        spec.log_size = 12;
        spec.seed = 7;
        auto inst = reg.build(spec);
        std::mt19937_64 rng(7);
        auto srs = std::make_shared<pcs::Srs>(
            pcs::Srs::generate(inst.circuit.num_vars, rng));
        auto [pk, vk] = hyperplonk::keygen(inst.circuit, srs);
        ff::WorkerBudgetScope budget(4);
        ff::ModmulScope muls;
        auto proof = hyperplonk::prove(pk, inst.witness);
        const double fr_serial =
            1.0 - double(muls.parallel_fr_delta()) / double(muls.fr_delta());
        const double fq_serial =
            1.0 - double(muls.parallel_fq_delta()) / double(muls.fq_delta());
        EXPECT_LE(fq_serial, 0.05)
            << family << ": serial share of " << muls.fq_delta()
            << " Fq muls";
        EXPECT_LE(fr_serial, 0.20)
            << family << ": serial share of " << muls.fr_delta()
            << " Fr muls";
        EXPECT_TRUE(hyperplonk::verify(
            vk, inst.witness.public_inputs(pk.index), proof))
            << family;
    }
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
            ff::parallel_for(xs.size(), 1, [&](size_t b, size_t e) {
                for (size_t i = b; i < e; ++i) out[i] = xs[i] * xs[i];
            });
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
    ff::WorkerBudgetScope budget(4);
    std::vector<Fr> xs(50000, Fr::one());
    for (int rep = 0; rep < 20; ++rep) {
        std::vector<Fr> out(xs.size());
        ff::parallel_for(xs.size(), 1, [&](size_t b, size_t e) {
            for (size_t i = b; i < e; ++i) out[i] = xs[i] + xs[i];
        });
    }
    // 4-way calls need at most 3 pool workers (the caller runs one
    // chunk stream itself); concurrent-caller tests may have grown the
    // pool further, but 20 bursts must not add 20x workers.
    EXPECT_LE(ff::WorkerPool::instance().worker_count(), size_t(16));
}

TEST(Parallel, SrsGenerationIdenticalAcrossThreadCounts)
{
    // Points *and* Fq-mul counts must not depend on the worker count.
    // mu = 11 spans two lockstep blocks of the fixed-base pass.
    for (size_t mu : {5u, 11u}) {
        auto gen = [&](size_t threads) {
            ff::WorkerBudgetScope budget(threads);
            std::mt19937_64 rng(604);
            ff::ModmulScope scope;
            pcs::Srs srs = pcs::Srs::generate(mu, rng);
            return std::make_pair(std::move(srs), scope.fq_delta());
        };
        auto [a, a_fq] = gen(1);
        auto [b, b_fq] = gen(8);
        EXPECT_EQ(a_fq, b_fq) << "mu = " << mu;
        ASSERT_EQ(a.lagrange.size(), b.lagrange.size());
        for (size_t k = 0; k < a.lagrange.size(); ++k) {
            ASSERT_EQ(a.lagrange[k].size(), b.lagrange[k].size());
            for (size_t i = 0; i < a.lagrange[k].size(); ++i) {
                EXPECT_EQ(a.lagrange[k][i], b.lagrange[k][i]);
            }
        }
    }
}

}  // namespace
