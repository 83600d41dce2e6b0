/**
 * @file
 * google-benchmark microbenchmarks of the software library: the
 * measured CPU costs of every kernel the zkSpeed units accelerate.
 * These ground the CPU-model substitution (DESIGN.md Section 3) with
 * real measurements at laptop-scale problem sizes.
 */
#include <benchmark/benchmark.h>

#include <array>
#include <random>

#include "ff/batch_inverse.hpp"
#include "ff/lanes8.hpp"
#include "hash/keccak.hpp"
#include "hyperplonk/permutation.hpp"
#include "hyperplonk/prover.hpp"

namespace {

using namespace zkspeed;
using ff::Fr;
using ff::Fq;

std::mt19937_64 &
rng()
{
    static std::mt19937_64 r(12345);
    return r;
}

void
BM_FrMul(benchmark::State &state)
{
    Fr a = Fr::random(rng()), b = Fr::random(rng());
    for (auto _ : state) {
        benchmark::DoNotOptimize(a = a * b);
    }
}
BENCHMARK(BM_FrMul);

void
BM_FqMul(benchmark::State &state)
{
    Fq a = Fq::random(rng()), b = Fq::random(rng());
    for (auto _ : state) {
        benchmark::DoNotOptimize(a = a * b);
    }
}
BENCHMARK(BM_FqMul);

// Eight independent Fq muls per iteration on the lane kernel this
// process selected (its name is the label), repacking included; the
// items/s rate is per lane-mul, comparable with BM_FqMul's 1/time.
void
BM_FqMulLanes8(benchmark::State &state)
{
    std::array<Fq, ff::kLanes> a, b;
    for (auto &x : a) x = Fq::random(rng());
    for (auto &x : b) x = Fq::random(rng());
    const ff::LaneKernel k = ff::lane_kernel();
    for (auto _ : state) {
        ff::mul_lanes8(k, a.data(), a.data(), b.data());
        benchmark::DoNotOptimize(a);
    }
    state.SetItemsProcessed(state.iterations() * ff::kLanes);
    state.SetLabel(ff::lane_kernel_name());
}
BENCHMARK(BM_FqMulLanes8);

// Report-only: the portable CIOS that BM_FrMul / BM_FqMul replace
// where CPUID has bmi2 and adx, for the per-multiply gain in one run.
void
BM_FrMulPortable(benchmark::State &state)
{
    auto a = Fr::random(rng()).mont_repr();
    const auto b = Fr::random(rng()).mont_repr();
    for (auto _ : state) {
        benchmark::DoNotOptimize(a = Fr::mont_mul_portable(a, b));
    }
}
BENCHMARK(BM_FrMulPortable);

void
BM_FqMulPortable(benchmark::State &state)
{
    auto a = Fq::random(rng()).mont_repr();
    const auto b = Fq::random(rng()).mont_repr();
    for (auto _ : state) {
        benchmark::DoNotOptimize(a = Fq::mont_mul_portable(a, b));
    }
}
BENCHMARK(BM_FqMulPortable);

void
BM_FrInverse(benchmark::State &state)
{
    Fr a = Fr::random(rng());
    for (auto _ : state) {
        benchmark::DoNotOptimize(a.inverse());
    }
}
BENCHMARK(BM_FrInverse);

void
BM_BatchInverse(benchmark::State &state)
{
    std::vector<Fr> xs(state.range(0));
    for (auto &x : xs) x = Fr::random(rng());
    for (auto _ : state) {
        auto copy = xs;
        ff::batch_inverse(copy);
        benchmark::DoNotOptimize(copy);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BatchInverse)->Arg(64)->Arg(1024);

void
BM_PointAdd(benchmark::State &state)
{
    curve::G1 p = curve::g1_generator().mul(Fr::random(rng()));
    auto q = curve::g1_generator().mul(Fr::random(rng())).to_affine();
    for (auto _ : state) {
        benchmark::DoNotOptimize(p = p.add_mixed(q));
    }
}
BENCHMARK(BM_PointAdd);

void
BM_ScalarMul(benchmark::State &state)
{
    curve::G1 g = curve::g1_generator();
    Fr k = Fr::random(rng());
    for (auto _ : state) {
        benchmark::DoNotOptimize(g.mul(k));
    }
}
BENCHMARK(BM_ScalarMul);

void
BM_MsmDense(benchmark::State &state)
{
    const size_t n = state.range(0);
    std::vector<curve::G1Affine> pts(n);
    std::vector<Fr> scalars(n);
    curve::G1 g = curve::g1_generator();
    for (size_t i = 0; i < n; ++i) {
        pts[i] = g.mul(Fr::from_uint(i + 1)).to_affine();
        scalars[i] = Fr::random(rng());
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(curve::msm(pts, scalars));
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MsmDense)->Arg(256)->Arg(1024)->Arg(4096);

void
BM_MsmSparse(benchmark::State &state)
{
    const size_t n = state.range(0);
    std::vector<curve::G1Affine> pts(n);
    std::vector<Fr> scalars(n);
    curve::G1 g = curve::g1_generator();
    std::uniform_real_distribution<double> uni(0, 1);
    for (size_t i = 0; i < n; ++i) {
        pts[i] = g.mul(Fr::from_uint(i + 1)).to_affine();
        double u = uni(rng());
        scalars[i] = u < 0.45 ? Fr::zero()
                              : (u < 0.9 ? Fr::one() : Fr::random(rng()));
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(curve::msm_sparse(pts, scalars));
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MsmSparse)->Arg(1024)->Arg(4096);

void
BM_Sha3(benchmark::State &state)
{
    std::string msg(state.range(0), 'x');
    for (auto _ : state) {
        benchmark::DoNotOptimize(hash::sha3_256(msg));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha3)->Arg(136)->Arg(4096);

void
BM_BuildMle(benchmark::State &state)
{
    const size_t mu = state.range(0);
    std::vector<Fr> point(mu);
    for (auto &p : point) p = Fr::random(rng());
    for (auto _ : state) {
        benchmark::DoNotOptimize(mle::Mle::eq_table(point));
    }
    state.SetItemsProcessed(state.iterations() * (1 << mu));
}
BENCHMARK(BM_BuildMle)->Arg(12)->Arg(16);

void
BM_MleEvaluate(benchmark::State &state)
{
    const size_t mu = state.range(0);
    mle::Mle m = mle::Mle::random(mu, rng());
    std::vector<Fr> point(mu);
    for (auto &p : point) p = Fr::random(rng());
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.evaluate(point));
    }
    state.SetItemsProcessed(state.iterations() * (1 << mu));
}
BENCHMARK(BM_MleEvaluate)->Arg(12)->Arg(16);

void
BM_MleUpdate(benchmark::State &state)
{
    const size_t mu = state.range(0);
    mle::Mle m = mle::Mle::random(mu, rng());
    Fr r = Fr::random(rng());
    for (auto _ : state) {
        auto copy = m;
        copy.fix_first_variable(r);
        benchmark::DoNotOptimize(copy);
    }
    state.SetItemsProcessed(state.iterations() * (1 << (mu - 1)));
}
BENCHMARK(BM_MleUpdate)->Arg(12)->Arg(16);

void
BM_ZeroCheckSumcheck(benchmark::State &state)
{
    const size_t mu = state.range(0);
    auto [index, wit] = hyperplonk::random_circuit(mu, rng());
    std::vector<Fr> point(mu);
    for (auto &p : point) p = Fr::random(rng());
    auto eq = std::make_shared<mle::Mle>(mle::Mle::eq_table(point));
    auto alias = [](const mle::Mle &m) {
        return std::shared_ptr<mle::Mle>(std::shared_ptr<mle::Mle>(),
                                         const_cast<mle::Mle *>(&m));
    };
    mle::VirtualPolynomial vp(mu);
    size_t ql = vp.add_mle(alias(index.q_l));
    size_t w1 = vp.add_mle(alias(wit.w[0]));
    size_t w2 = vp.add_mle(alias(wit.w[1]));
    size_t w3 = vp.add_mle(alias(wit.w[2]));
    size_t qm = vp.add_mle(alias(index.q_m));
    size_t qo = vp.add_mle(alias(index.q_o));
    size_t e = vp.add_mle(eq);
    vp.add_term(Fr::one(), {ql, w1, e});
    vp.add_term(Fr::one(), {qm, w1, w2, e});
    vp.add_term(-Fr::one(), {qo, w3, e});
    for (auto _ : state) {
        hash::Transcript tr("bench");
        benchmark::DoNotOptimize(hyperplonk::sumcheck_prove(vp, tr));
    }
    state.SetItemsProcessed(state.iterations() * (1 << mu));
}
BENCHMARK(BM_ZeroCheckSumcheck)->Arg(10)->Arg(14);

void
BM_FractionMle(benchmark::State &state)
{
    const size_t mu = state.range(0);
    auto [index, wit] = hyperplonk::random_circuit(mu, rng());
    Fr beta = Fr::random(rng()), gamma = Fr::random(rng());
    for (auto _ : state) {
        benchmark::DoNotOptimize(hyperplonk::build_permutation_oracles(
            index, wit, beta, gamma));
    }
    state.SetItemsProcessed(state.iterations() * (1 << mu));
}
BENCHMARK(BM_FractionMle)->Arg(10)->Arg(14);

void
BM_ProveEndToEnd(benchmark::State &state)
{
    const size_t mu = state.range(0);
    auto [index, wit] = hyperplonk::random_circuit(mu, rng());
    auto srs =
        std::make_shared<pcs::Srs>(pcs::Srs::generate(mu, rng()));
    auto [pk, vk] = hyperplonk::keygen(std::move(index), srs);
    for (auto _ : state) {
        benchmark::DoNotOptimize(hyperplonk::prove(pk, wit));
    }
    state.SetItemsProcessed(state.iterations() * (1 << mu));
}
BENCHMARK(BM_ProveEndToEnd)->Arg(8)->Arg(10)->Unit(benchmark::kMillisecond);

void
BM_Verify(benchmark::State &state)
{
    const size_t mu = state.range(0);
    auto [index, wit] = hyperplonk::random_circuit(mu, rng());
    auto srs =
        std::make_shared<pcs::Srs>(pcs::Srs::generate(mu, rng()));
    auto [pk, vk] = hyperplonk::keygen(std::move(index), srs);
    auto proof = hyperplonk::prove(pk, wit);
    auto publics = wit.public_inputs(pk.index);
    for (auto _ : state) {
        benchmark::DoNotOptimize(hyperplonk::verify(vk, publics, proof));
    }
}
BENCHMARK(BM_Verify)->Arg(6)->Arg(10)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
