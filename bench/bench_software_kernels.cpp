/**
 * @file
 * google-benchmark microbenchmarks of the software library: the
 * measured CPU costs of every kernel the zkSpeed units accelerate.
 * These ground the CPU-model substitution (DESIGN.md Section 3) with
 * real measurements at laptop-scale problem sizes.
 */
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <random>

#include "curve/batch_affine.hpp"
#include "ff/batch_inverse.hpp"
#include "ff/lanes8.hpp"
#include "hash/keccak.hpp"
#include "hyperplonk/permutation.hpp"
#include "hyperplonk/protocol_common.hpp"
#include "hyperplonk/prover.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

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

// A dependent chain of additions: the carry and borrow corrections
// see data-dependent values, as in the sumcheck and bucket loops.
void
BM_FrAdd(benchmark::State &state)
{
    Fr a = Fr::random(rng()), b = Fr::random(rng());
    for (auto _ : state) {
        benchmark::DoNotOptimize(a = a + b);
    }
}
BENCHMARK(BM_FrAdd);

void
BM_FqAdd(benchmark::State &state)
{
    Fq a = Fq::random(rng()), b = Fq::random(rng());
    for (auto _ : state) {
        benchmark::DoNotOptimize(a = a + b);
    }
}
BENCHMARK(BM_FqAdd);

// One bucket-phase batch: queue n adds of distinct input points (every
// other one negated) into result slots, then complete them behind one
// inversion on the selected lane kernel. The counters split the time
// per add between queueing (AffineBatch::add) and completion.
void
BM_AffineBatchAdd(benchmark::State &state)
{
    using curve::AffineBatch;
    const size_t n = size_t(state.range(0));
    std::vector<curve::G1> jac(2 * n);
    const curve::G1 g = curve::g1_generator();
    curve::G1 acc = g.mul(Fr::random(rng()));
    for (auto &p : jac) {
        p = acc;
        acc += g;
    }
    const auto pts =
        curve::batch_to_affine<curve::G1Params>(std::span<const curve::G1>(jac));
    std::vector<curve::AffineSlot> slots(n);
    AffineBatch batch;
    batch.reserve(n);
    batch.bind(std::span(pts), std::span(slots));
    using Clock = std::chrono::steady_clock;
    Clock::duration queue{}, complete{};
    for (auto _ : state) {
        const auto t0 = Clock::now();
        for (size_t j = 0; j < n; ++j) {
            batch.add(AffineBatch::input(2 * j),
                      AffineBatch::input(2 * j + 1, j % 2 == 1), uint32_t(j));
        }
        const auto t1 = Clock::now();
        batch.complete();
        const auto t2 = Clock::now();
        queue += t1 - t0;
        complete += t2 - t1;
        benchmark::DoNotOptimize(slots.data());
    }
    const double adds = double(state.iterations()) * double(n);
    auto ns = [&](Clock::duration d) {
        return std::chrono::duration<double, std::nano>(d).count() / adds;
    };
    state.counters["queue_ns"] = ns(queue);
    state.counters["complete_ns"] = ns(complete);
    state.SetItemsProcessed(int64_t(adds));
    state.SetLabel(ff::lane_kernel_name());
}
BENCHMARK(BM_AffineBatchAdd)->Arg(4096);

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
    const auto eq = mle::Mle::eq_table(point);
    const auto vp = hyperplonk::detail::bind_mles(
        hyperplonk::detail::gate_identity(false),
        hyperplonk::detail::index_slots(index, wit), eq);
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

// ns per telemetry record, one benchmark per record kind. bench_attrib
// gates how many records a job makes; these times are only reported.
// Each runs on the global registry and rings, as the prover does; a
// span and a log event include the ring telemetry they write.

void
BM_ObsCounterAdd(benchmark::State &state)
{
    auto &reg = obs::MetricsRegistry::global();
    const obs::MetricId id = reg.counter("bm_obs_counter_total");
    for (auto _ : state) reg.add(id, 3);
}
BENCHMARK(BM_ObsCounterAdd);

void
BM_ObsObserve(benchmark::State &state)
{
    auto &reg = obs::MetricsRegistry::global();
    const obs::MetricId id = reg.histogram("bm_obs_seconds");
    double v = 1e-4;
    for (auto _ : state) {
        reg.observe(id, v);
        v = v < 1.0 ? v * 1.5 : 1e-4;
    }
}
BENCHMARK(BM_ObsObserve);

void
BM_ObsGaugeSet(benchmark::State &state)
{
    auto &reg = obs::MetricsRegistry::global();
    const obs::MetricId id = reg.gauge("bm_obs_gauge");
    double v = 0;
    for (auto _ : state) reg.set(id, v += 1.0);
}
BENCHMARK(BM_ObsGaugeSet);

void
BM_ObsSpan(benchmark::State &state)
{
    for (auto _ : state) {
        obs::Span span("bm.obs.span", "bench", 1);
        span.arg("modmul_fr", 1.0);
    }
}
BENCHMARK(BM_ObsSpan);

void
BM_ObsLogEvent(benchmark::State &state)
{
    // Unlimited rate, so every event takes the admitted path.
    auto &log = obs::LogRecorder::global();
    log.set_rate_limit(0, 64);
    for (auto _ : state) {
        obs::log_event(obs::LogLevel::debug, "bench", "bm obs event", 1);
    }
}
BENCHMARK(BM_ObsLogEvent);

}  // namespace

BENCHMARK_MAIN();
