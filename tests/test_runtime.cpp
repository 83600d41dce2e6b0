/**
 * @file
 * Batch proving service tests: wire strictness, deterministic proof
 * bytes under concurrency, key-cache hit/eviction behaviour, queue
 * backpressure and worker survival across malformed requests.
 */
#include <gtest/gtest.h>

#include <random>
#include <thread>

#include "hyperplonk/serialize.hpp"
#include "obs/window.hpp"
#include "runtime/queue.hpp"
#include "runtime/service.hpp"
#include "sim/replay.hpp"

namespace {

using namespace zkspeed;
using namespace zkspeed::runtime;
using ff::Fr;

/** A valid request around a random satisfying circuit. */
JobRequest
make_request(uint64_t id, size_t mu, uint64_t circuit_seed)
{
    std::mt19937_64 rng(circuit_seed);
    auto [index, wit] = hyperplonk::random_circuit(mu, rng);
    JobRequest req;
    req.request_id = id;
    req.circuit = std::move(index);
    req.witness = std::move(wit);
    return req;
}

/**
 * Whole-run total of `service`'s registry series matching `name` and
 * the label subset `labels`: counter values plus histogram observation
 * counts (obs::WindowDelta::total over a window opened at zero).
 */
uint64_t
series_total(const ProofService &service, const char *name,
             obs::LabelSet labels = {})
{
    labels.emplace_back("service", service.instance_label());
    auto run = obs::WindowDelta::between(
        obs::MetricsRegistry::global().snapshot(), obs::Snapshot{}, 0.0);
    return run.total({name, std::move(labels)});
}

TEST(Wire, RequestRoundTrip)
{
    JobRequest req = make_request(42, 4, 1001);
    auto bytes = wire::encode_request(req);
    auto back = wire::decode_request(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->request_id, 42u);
    EXPECT_EQ(back->circuit.num_vars, req.circuit.num_vars);
    EXPECT_EQ(back->circuit.q_m, req.circuit.q_m);
    EXPECT_EQ(back->circuit.sigma[1], req.circuit.sigma[1]);
    EXPECT_EQ(back->witness.w[2], req.witness.w[2]);
    // Canonical: re-encoding reproduces the bytes.
    EXPECT_EQ(wire::encode_request(*back), bytes);
}

TEST(Wire, RejectsMalformedRequests)
{
    JobRequest req = make_request(7, 4, 1002);
    auto bytes = wire::encode_request(req);
    // Truncations.
    for (size_t len : {0ul, 8ul, 40ul, bytes.size() / 2, bytes.size() - 1}) {
        auto cut = std::span<const uint8_t>(bytes.data(), len);
        EXPECT_FALSE(wire::decode_request(cut).has_value()) << len;
    }
    // Trailing garbage.
    auto longer = bytes;
    longer.push_back(0);
    EXPECT_FALSE(wire::decode_request(longer).has_value());
    // Bad magic.
    auto bad = bytes;
    bad[0] ^= 0xff;
    EXPECT_FALSE(wire::decode_request(bad).has_value());
    // A bare header claiming a huge circuit must be rejected by the
    // size precheck (no table allocation for a 34-byte frame).
    std::vector<uint8_t> header(bytes.begin(), bytes.begin() + 34);
    header[16] = 20;  // num_vars = kMaxRequestVars
    EXPECT_FALSE(wire::decode_request(header).has_value());
    // Non-canonical field element in the first selector table.
    auto nc = bytes;
    // magic,id,mu,pub,custom,lookup
    size_t table_off = 8 + 8 + 8 + 8 + 1 + 1;
    for (size_t i = 0; i < Fr::kByteSize; ++i) nc[table_off + i] = 0xff;
    EXPECT_FALSE(wire::decode_request(nc).has_value());
}

TEST(Wire, RejectsOutOfRangeSigma)
{
    JobRequest req = make_request(8, 4, 1003);
    // A sigma entry beyond the 3 * 2^mu wire slots would index out of
    // bounds in Witness::satisfies_wiring; the decoder must refuse it.
    req.circuit.sigma[0][0] = Fr::from_uint(3 * 16 + 1);
    auto bytes = wire::encode_request(req);
    EXPECT_FALSE(wire::decode_request(bytes).has_value());
}

TEST(Wire, ResponseRoundTrip)
{
    JobResponse resp;
    resp.request_id = 9;
    resp.status = JobStatus::ok;
    resp.proof = {1, 2, 3, 4};
    resp.metrics.prove_ms = 12.5;
    resp.metrics.total_ms = 13.25;
    resp.metrics.modmul_fr = 1234;
    resp.metrics.key_cache_hit = true;
    resp.metrics.num_vars = 4;
    auto bytes = wire::encode_response(resp);
    auto back = wire::decode_response(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->request_id, 9u);
    EXPECT_EQ(back->status, JobStatus::ok);
    EXPECT_EQ(back->proof, resp.proof);
    EXPECT_DOUBLE_EQ(back->metrics.prove_ms, 12.5);
    EXPECT_TRUE(back->metrics.key_cache_hit);
    // Truncation rejected.
    auto cut = std::span<const uint8_t>(bytes.data(), bytes.size() - 3);
    EXPECT_FALSE(wire::decode_response(cut).has_value());
}

TEST(Wire, FrameStream)
{
    std::vector<uint8_t> stream;
    wire::append_frame(stream, std::vector<uint8_t>{1, 2, 3});
    wire::append_frame(stream, std::vector<uint8_t>{});
    wire::append_frame(stream, std::vector<uint8_t>{9});
    auto frames = wire::split_frames(stream);
    ASSERT_TRUE(frames.has_value());
    ASSERT_EQ(frames->size(), 3u);
    EXPECT_EQ((*frames)[0], (std::vector<uint8_t>{1, 2, 3}));
    EXPECT_TRUE((*frames)[1].empty());
    // Truncated stream rejected.
    stream.pop_back();
    EXPECT_FALSE(wire::split_frames(stream).has_value());
}

TEST(Queue, BackpressureAndClose)
{
    BoundedQueue<int> q(2);
    int a = 1, b = 2, c = 3;
    EXPECT_TRUE(q.try_push(a));
    EXPECT_TRUE(q.try_push(b));
    // Full: non-blocking push refuses (backpressure is visible).
    EXPECT_FALSE(q.try_push(c));
    EXPECT_EQ(q.size(), 2u);
    // A blocked push() completes once a consumer drains one slot.
    std::thread producer([&] { EXPECT_TRUE(q.push(3)); });
    EXPECT_EQ(q.pop().value(), 1);
    producer.join();
    // Close: remaining items drain, then pops report exhaustion.
    q.close();
    EXPECT_FALSE(q.push(4));
    EXPECT_EQ(q.pop().value(), 2);
    EXPECT_EQ(q.pop().value(), 3);
    EXPECT_FALSE(q.pop().has_value());
}

TEST(Service, BackpressureAtTheServiceBoundary)
{
    ServiceConfig cfg;
    cfg.num_workers = 1;
    cfg.queue_capacity = 2;
    cfg.start_paused = true;  // nobody drains: admission is deterministic
    ProofService service(cfg);
    auto bytes = wire::encode_request(make_request(1, 4, 2001));
    auto f1 = service.try_submit(bytes);
    auto f2 = service.try_submit(bytes);
    auto f3 = service.try_submit(bytes);
    EXPECT_TRUE(f1.has_value());
    EXPECT_TRUE(f2.has_value());
    EXPECT_FALSE(f3.has_value()) << "full queue must refuse admission";
    service.start();
    EXPECT_TRUE(f1->get().ok());
    EXPECT_TRUE(f2->get().ok());
}

TEST(Service, DeterministicProofBytesSerialVsFourWorkers)
{
    const size_t kJobs = 8;
    auto bytes = wire::encode_request(make_request(5, 4, 2002));

    auto run = [&](size_t workers) {
        ServiceConfig cfg;
        cfg.num_workers = workers;
        cfg.total_parallelism = workers;  // 1 kernel thread per worker
        ProofService service(cfg);
        std::vector<std::future<JobResponse>> futures;
        for (size_t i = 0; i < kJobs; ++i) {
            futures.push_back(service.submit(bytes));
        }
        std::vector<std::vector<uint8_t>> proofs;
        for (auto &f : futures) {
            auto resp = f.get();
            EXPECT_TRUE(resp.ok()) << resp.error;
            proofs.push_back(std::move(resp.proof));
        }
        return proofs;
    };

    auto serial = run(1);
    auto parallel = run(4);
    ASSERT_EQ(serial.size(), kJobs);
    ASSERT_EQ(parallel.size(), kJobs);
    for (size_t i = 0; i < kJobs; ++i) {
        // Same job -> bit-identical canonical proof bytes, regardless
        // of scheduling.
        EXPECT_EQ(serial[i], serial[0]);
        EXPECT_EQ(parallel[i], serial[0]) << "job " << i;
    }

    // The wire bytes decode to a verifying proof under the cached vk.
    auto proof = hyperplonk::serde::deserialize_proof(serial[0]);
    ASSERT_TRUE(proof.has_value());
    auto req = wire::decode_request(bytes);
    ASSERT_TRUE(req.has_value());
    KeyCache cache(4);
    auto [keys, hit] = cache.get_or_create(req->circuit);
    EXPECT_FALSE(hit);
    auto publics = req->witness.public_inputs(req->circuit);
    EXPECT_TRUE(hyperplonk::verify(*keys.vk, publics, *proof));
}

TEST(Service, KeyCacheHitsAcrossRepeatedCircuits)
{
    ServiceConfig cfg;
    cfg.num_workers = 2;
    cfg.total_parallelism = 2;
    ProofService service(cfg);
    auto circuit_a = wire::encode_request(make_request(1, 4, 3001));
    auto circuit_b = wire::encode_request(make_request(2, 4, 3002));
    std::vector<std::future<JobResponse>> futures;
    for (int round = 0; round < 3; ++round) {
        futures.push_back(service.submit(circuit_a));
        futures.push_back(service.submit(circuit_b));
    }
    size_t hits = 0;
    for (auto &f : futures) {
        auto resp = f.get();
        ASSERT_TRUE(resp.ok()) << resp.error;
        if (resp.metrics.key_cache_hit) ++hits;
    }
    auto stats = service.cache_stats();
    EXPECT_EQ(stats.hits + stats.misses, 6u);
    EXPECT_EQ(stats.hits, hits);
    // Two distinct circuits: at least one keygen each; with any reuse
    // the rest hit. Concurrent first submissions may both miss (the
    // build is deduped on the entry), so allow 2..4 hits.
    EXPECT_GE(stats.hits, 2u);
    EXPECT_LE(stats.misses, 4u);
}

TEST(Service, KeyCacheEvictsLeastRecentlyUsed)
{
    KeyCache cache(/*capacity=*/1);
    std::mt19937_64 rng(4001);
    auto [ca, wa] = hyperplonk::random_circuit(4, rng);
    auto [cb, wb] = hyperplonk::random_circuit(4, rng);
    EXPECT_FALSE(cache.get_or_create(ca).second);
    EXPECT_TRUE(cache.get_or_create(ca).second);
    EXPECT_FALSE(cache.get_or_create(cb).second);  // evicts ca
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_FALSE(cache.get_or_create(ca).second);  // rebuilt
    auto stats = cache.stats();
    EXPECT_EQ(stats.evictions, 2u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 3u);
}

TEST(Service, MalformedRequestsGetErrorResponsesAndWorkerSurvives)
{
    ServiceConfig cfg;
    cfg.num_workers = 1;  // the same worker must field every job
    ProofService service(cfg);

    // Garbage, truncation, and a tampered-but-plausible frame.
    auto valid = wire::encode_request(make_request(1, 4, 5001));
    std::vector<std::vector<uint8_t>> bad;
    bad.push_back({0xde, 0xad, 0xbe, 0xef});
    bad.push_back({});
    bad.push_back(std::vector<uint8_t>(valid.begin(),
                                       valid.begin() + valid.size() / 2));
    auto non_canonical = valid;
    for (size_t i = 0; i < Fr::kByteSize; ++i) {
        non_canonical[34 + i] = 0xff;  // first selector-table element
    }
    bad.push_back(non_canonical);

    for (auto &frame : bad) {
        auto resp = service.submit(frame).get();
        EXPECT_EQ(resp.status, JobStatus::malformed_request);
        EXPECT_TRUE(resp.proof.empty());
        EXPECT_FALSE(resp.error.empty());
    }

    // An unsatisfiable witness is rejected without proving: perturb an
    // output wire at a gate whose q_O selector is active, which breaks
    // Eq. 1 there (padding slots are unconstrained, so pick carefully).
    auto unsat = make_request(2, 4, 5002);
    bool broke = false;
    for (size_t i = 0; i < unsat.circuit.q_o.size() && !broke; ++i) {
        if (!unsat.circuit.q_o[i].is_zero()) {
            unsat.witness.w[2][i] += Fr::one();
            broke = true;
        }
    }
    ASSERT_TRUE(broke);
    ASSERT_FALSE(unsat.witness.satisfies_gates(unsat.circuit));
    auto unsat_resp = service.submit(wire::encode_request(unsat)).get();
    EXPECT_EQ(unsat_resp.status, JobStatus::unsatisfiable);

    // The worker that saw every bad frame still proves fine.
    auto resp = service.submit(valid).get();
    EXPECT_TRUE(resp.ok()) << resp.error;
    EXPECT_FALSE(resp.proof.empty());

    const char *lat = "zkspeed_job_latency_ms";
    EXPECT_EQ(series_total(service, lat, {{"status", "ok"}}), 1u);
    EXPECT_EQ(series_total(service, lat, {{"status", "rejected"}}),
              bad.size() + 1);
    EXPECT_EQ(series_total(service, lat, {{"status", "failed"}}), 0u);
}

TEST(Service, TraceReplaysThroughChipModel)
{
    ServiceConfig cfg;
    cfg.num_workers = 1;
    ProofService service(cfg);
    auto bytes = wire::encode_request(make_request(1, 4, 6001));
    for (int i = 0; i < 3; ++i) service.submit(bytes).get();
    auto trace = service.trace();
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace[0].num_vars, 4u);
    EXPECT_GT(trace[0].total_scalars, 0u);
    EXPECT_GT(trace[0].prove_ms, 0.0);

    auto report = sim::replay_trace(trace, sim::DesignConfig::paper_default());
    ASSERT_EQ(report.jobs.size(), 3u);
    EXPECT_GT(report.chip_total_ms, 0.0);
    EXPECT_GT(report.sw_total_ms, 0.0);
    EXPECT_GT(report.chip_jobs_per_s, 0.0);
    // The accelerator must not be slower than our software prover.
    EXPECT_GT(report.speedup, 1.0);
}

TEST(Service, ShutdownCancelsQueuedJobs)
{
    ServiceConfig cfg;
    cfg.num_workers = 1;
    cfg.queue_capacity = 8;
    cfg.start_paused = true;
    auto bytes = wire::encode_request(make_request(1, 4, 7001));
    std::vector<std::future<JobResponse>> futures;
    {
        ProofService service(cfg);
        futures.push_back(service.submit(bytes));
        futures.push_back(service.submit(bytes));
        service.shutdown();  // never started: jobs must be cancelled
    }
    for (auto &f : futures) {
        auto resp = f.get();
        EXPECT_EQ(resp.status, JobStatus::cancelled);
    }
}

}  // namespace
