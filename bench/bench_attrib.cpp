/**
 * @file
 * Perf-regression ledger + drift gate (DESIGN.md §13).
 *
 * Two jobs, one binary:
 *
 *  1. Baseline ledger: bench/baselines.json pins, per scenario, the
 *     *exact* deterministic counters of the proving pipeline — gate
 *     counts, prove modmuls (Fr/Fq of a key-cache-hit PROVE job,
 *     measured with parallelism pinned to 1 so the counts are
 *     machine-independent) and proof bytes — and,
 *     per size n = 2^0 .. 2^16, the exact Fq-mul and Fq-inversion
 *     counts of curve::msm, and the same two counts of Srs::generate at
 *     mu = 8 and 12.
 *     The verify layer adds, per scenario, the Fr/Fq muls of a VERIFY
 *     job's algebraic stage with its Fr inversions (0: a sumcheck round
 *     must not invert) and of one PairingAccumulator::check() on the
 *     same proof, and one pairing row: the Fq muls of one
 *     final exponentiation and of one BatchVerifier flush over the
 *     roster proofs. The telemetry layer adds, per scenario, the exact
 *     record calls of the same key-cache-hit PROVE job by kind (spans,
 *     counter adds, histogram observations, gauge writes, log events):
 *     the deterministic cost of the always-on instrumentation. Any
 *     divergence is a silent perf/correctness regression and fails the
 *     build naming the scenario (or MSM size) and field.
 *
 *  2. Drift gate: runs the same roster through the conformance Harness
 *     and checks the kernel-level attribution report (obs/attrib):
 *     every prover kernel must join a modeled cycle count, no kernel
 *     may be unmapped, and each kernel's share-of-runtime drift ratio
 *     must stay inside the ledger's per-kernel bounds.
 *
 * It also reports, never gates, the exact serial share of one
 * sparse-arithmetic 2^12 proof at a worker budget of 4: the modmuls that
 * ran outside multi-chunk parallel_for regions (tests/test_parallel.cpp
 * gates the same share). The --attrib report carries it as
 * "serial_share".
 *
 * It also merges every sibling BENCH_*.json artifact (the unified
 * "zkspeed-bench-v1" envelopes the other benches emit) into one
 * BENCH_summary.json and fails if any merged gate failed.
 *
 * Usage:
 *   bench_attrib [--baselines PATH] [--json PATH] [--summary PATH]
 *                [--attrib PATH]
 *   bench_attrib --write-baselines PATH   # regenerate the ledger
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "curve/msm.hpp"
#include "ff/parallel.hpp"
#include "hyperplonk/prover.hpp"
#include "hyperplonk/serialize.hpp"
#include "obs/attrib.hpp"
#include "obs/jsonv.hpp"
#include "obs/metrics.hpp"
#include "report.hpp"
#include "runtime/key_cache.hpp"
#include "runtime/service.hpp"
#include "runtime/wire.hpp"
#include "scenarios/harness.hpp"
#include "scenarios/registry.hpp"
#include "verify/batch_verifier.hpp"

using namespace zkspeed;
using obs::jsonv::Value;

namespace {

/** The pinned roster: honest, deterministic families covering the
 * plain, sparse, lookup and Merkle paths. Order is the ledger order. */
struct RosterEntry {
    const char *family;
    size_t log_size;
    uint64_t seed;
};

const std::vector<RosterEntry> &
roster()
{
    static const std::vector<RosterEntry> r = {
        {"rescue-chain", 5, 101},
        {"sparse-arithmetic", 5, 102},
        {"merkle-membership", 5, 103},
        {"range-via-lookup", 5, 104},
    };
    return r;
}

/** Exact per-scenario counters (every field deterministic). */
struct Counters {
    std::string name;
    uint64_t log_size = 0;
    uint64_t seed = 0;
    uint64_t num_gates = 0;
    uint64_t active_gates = 0;
    uint64_t lookup_gates = 0;
    uint64_t modmul_fr = 0;
    uint64_t modmul_fq = 0;
    uint64_t proof_bytes = 0;
    /** Modmuls of a VERIFY job's algebraic stage for the same proof,
     * and the Fr inversions of that stage. */
    uint64_t verify_fr = 0;
    uint64_t verify_fq = 0;
    uint64_t verify_fr_inversions = 0;
    /** Modmuls of one PairingAccumulator::check() on the same proof. */
    uint64_t check_fr = 0;
    uint64_t check_fq = 0;
    /** Telemetry record calls of the PROVE job, by kind. */
    obs::RecordCounts records;
};

/** One roster proof as a verifier receives it. */
struct RosterProof {
    hyperplonk::VerifyingKey vk;
    std::vector<ff::Fr> publics;
    hyperplonk::Proof proof;
};

scenarios::Spec
make_spec(const RosterEntry &e)
{
    scenarios::Spec spec;
    spec.name = e.family;
    spec.log_size = e.log_size;
    spec.seed = e.seed;
    return spec;
}

/**
 * The exact Fr inversions of `p`'s algebraic stage and the exact Fr/Fq
 * muls of one single-proof pairing check of `p`, with ff parallelism
 * pinned to 1. A warm-up check derives the pairing's one-time constants
 * first, so the figure does not pay for them.
 */
void
measure_check(const RosterProof &p, Counters &c)
{
    ff::WorkerBudgetScope budget(1);
    verifier::PairingAccumulator acc;
    ff::ModmulScope alg;
    const bool ok = hyperplonk::verify_deferred(p.vk, p.publics, p.proof, acc);
    c.verify_fr_inversions = alg.inv_fr_delta();
    if (!ok || !acc.check()) return;
    ff::ModmulScope scope;
    acc.check();
    c.check_fr = scope.fr_delta();
    c.check_fq = scope.fq_delta();
}

/**
 * Wait until the service's only worker is idle. Its last records of a
 * job are the busy and utilization gauges, written after the response
 * is set, so a job's record count is complete only once utilization
 * reads 0 again (the gauge store is a release, so the snapshot also
 * sees every record before it).
 */
void
wait_worker_idle(const runtime::ProofService &service)
{
    const obs::LabelSet svc = {{"service", service.instance_label()}};
    for (;;) {
        auto snap = obs::MetricsRegistry::global().snapshot();
        const auto *u = snap.find("zkspeed_worker_utilization", svc);
        if (u != nullptr && u->gauge == 0.0) return;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
}

/**
 * Measure the roster's exact counters: prove each scenario through a
 * single-worker service with ff parallelism pinned to 1, so the modmul
 * counts are independent of the host's core count, then verify the
 * proof through the same service. Each scenario is proved twice and the
 * row comes from the second job: the first one's key-cache miss also
 * pays for Srs::generate and keygen, which are not proof cost. The
 * second job's telemetry records are counted from its submit until its
 * worker is idle. Each proof is also appended to `proofs` for the
 * pairing row, after its single-proof check is measured.
 */
std::vector<Counters>
measure_counters(std::vector<RosterProof> &proofs)
{
    runtime::ServiceConfig cfg;
    cfg.num_workers = 1;
    cfg.total_parallelism = 1;
    cfg.verify_batch_size = 1;
    runtime::ProofService service(cfg);
    runtime::KeyCache client(1, cfg.srs_seed);
    std::vector<Counters> out;
    for (const RosterEntry &e : roster()) {
        auto inst = scenarios::Registry::global().build(make_spec(e));
        runtime::JobRequest req;
        req.request_id = e.seed;
        req.circuit = inst.circuit;
        req.witness = inst.witness;
        const auto cold = service.submit(req).get();
        wait_worker_idle(service);
        const obs::RecordCounts before = obs::record_counts();
        auto resp = service.submit(req).get();
        wait_worker_idle(service);
        const obs::RecordCounts records = obs::record_counts() - before;
        if (cold.ok() &&
            (!resp.metrics.key_cache_hit || resp.proof != cold.proof)) {
            std::fprintf(stderr,
                         "bench_attrib: the second PROVE job of %s %s\n",
                         e.family,
                         resp.metrics.key_cache_hit
                             ? "returned different proof bytes"
                             : "missed the key cache");
            std::exit(1);
        }
        Counters c;
        c.name = e.family;
        c.log_size = e.log_size;
        c.seed = e.seed;
        c.num_gates = inst.circuit.num_gates();
        c.active_gates = bench::active_gates(inst.circuit);
        c.lookup_gates = inst.circuit.num_lookup_gates();
        c.modmul_fr = resp.metrics.modmul_fr;
        c.modmul_fq = resp.metrics.modmul_fq;
        c.proof_bytes = resp.ok() ? resp.proof.size() : 0;
        c.records = records;
        if (resp.ok()) {
            auto vk = client.get_or_create(inst.circuit).first.vk;
            runtime::VerifyRequest vreq;
            vreq.request_id = e.seed;
            vreq.vk = hyperplonk::serde::serialize_verifying_key(*vk);
            vreq.public_inputs = inst.witness.public_inputs(inst.circuit);
            vreq.proof = resp.proof;
            auto vresp =
                service.submit(runtime::wire::encode_verify_request(vreq))
                    .get();
            c.verify_fr = vresp.metrics.modmul_fr;
            c.verify_fq = vresp.metrics.modmul_fq;
            auto proof = hyperplonk::serde::deserialize_proof(resp.proof);
            if (vresp.ok() && proof.has_value()) {
                proofs.push_back({*vk, std::move(vreq.public_inputs),
                                  std::move(*proof)});
                measure_check(proofs.back(), c);
            }
        }
        out.push_back(std::move(c));
    }
    service.shutdown();
    return out;
}

/** Exact Fq muls of the pairing layer; every field is gated. */
struct PairingRow {
    uint64_t final_exp_fq_muls = 0;
    uint64_t flush_proofs = 0;
    uint64_t flush_fq_muls = 0;
};

/**
 * Measure one final exponentiation (of e(g, h)'s Miller output) and one
 * BatchVerifier flush over the roster proofs, with ff parallelism
 * pinned to 1. A warm-up exponentiation derives the one-time constants
 * first, so neither figure pays for them.
 */
PairingRow
measure_pairing(const std::vector<RosterProof> &proofs)
{
    ff::WorkerBudgetScope budget(1);
    const curve::Fq12 f = curve::miller_loop(curve::G1Params::generator(),
                                             curve::G2Params::generator());
    curve::final_exponentiation(f);
    PairingRow row;
    {
        ff::ModmulScope scope;
        curve::final_exponentiation(f);
        row.final_exp_fq_muls = scope.fq_delta();
    }
    verifier::BatchVerifier bv;
    for (const RosterProof &p : proofs) {
        verifier::PairingAccumulator acc;
        if (hyperplonk::verify_deferred(p.vk, p.publics, p.proof, acc)) {
            bv.add(std::move(acc));
        }
    }
    row.flush_proofs = bv.size();
    ff::ModmulScope scope;
    bool ok = bv.flush().all_ok();
    row.flush_fq_muls = ok ? scope.fq_delta() : 0;
    return row;
}

/** Exact serial cost of one curve::msm size or one SRS; `ms` is
 * report-only. n is the point count, or mu for an SRS. */
struct CostRow {
    uint64_t n = 0;
    uint64_t fq_muls = 0;
    uint64_t fq_inversions = 0;
    double ms = 0;
};

/** Run fn with ff parallelism pinned to 1 and return its exact cost. */
template <typename Fn>
CostRow
measure_cost(uint64_t n, Fn &&fn)
{
    ff::WorkerBudgetScope budget(1);
    ff::ModmulScope scope;
    auto t0 = std::chrono::steady_clock::now();
    fn();
    std::chrono::duration<double, std::milli> dt =
        std::chrono::steady_clock::now() - t0;
    return {n, scope.fq_delta(), scope.inv_fq_delta(), dt.count()};
}

/** Largest ledger MSM size is 2^kMsmMaxLog points. */
constexpr unsigned kMsmMaxLog = 16;

/**
 * Measure curve::msm at n = 2^0 .. 2^kMsmMaxLog with ff parallelism
 * pinned to 1. Bases are the orbit P_i = (i+1) G; scalars come from one
 * mt19937_64(0x5eed1) stream, and every size takes a prefix of both.
 */
std::vector<CostRow>
measure_msm()
{
    const size_t max_n = size_t(1) << kMsmMaxLog;
    const curve::G1Affine gen = curve::g1_generator().to_affine();
    std::vector<curve::G1> jac(max_n);
    curve::G1 acc = curve::G1::from_affine(gen);
    for (size_t i = 0; i < max_n; ++i) {
        jac[i] = acc;
        acc = acc.add_mixed(gen);
    }
    const auto points = curve::batch_to_affine<curve::G1Params>(
        std::span<const curve::G1>(jac));
    std::mt19937_64 rng(0x5eed1);
    std::vector<ff::Fr> scalars(max_n);
    for (auto &s : scalars) s = ff::Fr::random(rng);
    const std::span<const curve::G1Affine> pts(points);
    const std::span<const ff::Fr> sc(scalars);

    // The first MSM in a process also builds the GLV constants; keep
    // that one-off cost out of the n = 1 row.
    curve::msm(pts.first(1), sc.first(1));
    std::vector<CostRow> rows;
    for (unsigned k = 0; k <= kMsmMaxLog; ++k) {
        const size_t n = size_t(1) << k;
        rows.push_back(measure_cost(
            n, [&] { curve::msm(pts.first(n), sc.first(n)); }));
    }
    return rows;
}

/** Measure Srs::generate at the ledger's mu values, each from a fresh
 * mt19937_64(0x5eed2). */
std::vector<CostRow>
measure_srs()
{
    std::vector<CostRow> rows;
    for (uint64_t mu : {8u, 12u}) {
        std::mt19937_64 rng(0x5eed2);
        rows.push_back(
            measure_cost(mu, [&] { pcs::Srs::generate(mu, rng); }));
    }
    return rows;
}

/** Prove one sparse-arithmetic 2^12 circuit under a budget of 4 and
 * return its exact serial/parallel modmul split. */
obs::attrib::SerialShare
measure_serial_share()
{
    scenarios::Spec spec;
    spec.name = "sparse-arithmetic";
    spec.log_size = 12;
    spec.seed = 7;
    auto inst = scenarios::Registry::global().build(spec);
    std::mt19937_64 rng(7);
    auto srs = std::make_shared<pcs::Srs>(
        pcs::Srs::generate(inst.circuit.num_vars, rng));
    auto keys = hyperplonk::keygen(inst.circuit, srs);
    obs::attrib::SerialShare share;
    share.circuit =
        "sparse-arithmetic 2^" + std::to_string(inst.circuit.num_vars);
    share.budget = 4;
    ff::WorkerBudgetScope budget(share.budget);
    ff::ModmulScope muls;
    hyperplonk::prove(keys.first, inst.witness);
    share.fr_muls = muls.fr_delta();
    share.fr_parallel = muls.parallel_fr_delta();
    share.fq_muls = muls.fq_delta();
    share.fq_parallel = muls.parallel_fq_delta();
    return share;
}

/** Run the roster through the conformance harness and return the
 * attribution report (spans joined against the chip-model replay). */
obs::attrib::Report
measure_attrib()
{
    scenarios::Harness harness;
    for (const RosterEntry &e : roster()) {
        auto inst = scenarios::Registry::global().build(make_spec(e));
        auto res = harness.run(inst);
        if (!res.conformant) {
            std::fprintf(stderr, "bench_attrib: scenario %s is not "
                         "conformant: %s\n", e.family, res.detail.c_str());
        }
    }
    return harness.finish().attrib;
}

using FieldList = std::vector<std::pair<const char *, uint64_t>>;

/** A PROVE job's telemetry record counts as ledger fields. */
FieldList
record_fields(const Counters &c)
{
    const obs::RecordCounts &r = c.records;
    return {{"spans", r.spans},
            {"counter_adds", r.counter_adds},
            {"observations", r.observations},
            {"gauge_writes", r.gauge_writes},
            {"log_events", r.log_events}};
}

Value
counters_json(const Counters &c)
{
    Value o = Value::object();
    o.set("name", Value::of(c.name));
    o.set("log_size", Value::of(c.log_size));
    o.set("seed", Value::of(c.seed));
    o.set("num_gates", Value::of(c.num_gates));
    o.set("active_gates", Value::of(c.active_gates));
    o.set("lookup_gates", Value::of(c.lookup_gates));
    o.set("modmul_fr", Value::of(c.modmul_fr));
    o.set("modmul_fq", Value::of(c.modmul_fq));
    o.set("proof_bytes", Value::of(c.proof_bytes));
    return o;
}

/** Ledger rows {key: n, fq_muls, fq_inversions}. */
Value
cost_rows_json(const char *key, const std::vector<CostRow> &rows)
{
    Value out = Value::array();
    for (const CostRow &r : rows) {
        Value o = Value::object();
        o.set(key, Value::of(r.n));
        o.set("fq_muls", Value::of(r.fq_muls));
        o.set("fq_inversions", Value::of(r.fq_inversions));
        out.push(std::move(o));
    }
    return out;
}

std::string
render_baselines(const std::vector<Counters> &counters,
                 const std::vector<CostRow> &msm,
                 const std::vector<CostRow> &srs, const PairingRow &pairing,
                 const obs::attrib::Report &attrib)
{
    Value doc = Value::object();
    doc.set("schema", Value::of("zkspeed-baselines-v1"));
    Value scen = Value::array();
    for (const Counters &c : counters) scen.push(counters_json(c));
    doc.set("scenarios", std::move(scen));
    doc.set("msm", cost_rows_json("n", msm));
    doc.set("srs", cost_rows_json("mu", srs));
    Value verify_rows = Value::array();
    for (const Counters &c : counters) {
        Value o = Value::object();
        o.set("name", Value::of(c.name));
        o.set("modmul_fr", Value::of(c.verify_fr));
        o.set("modmul_fq", Value::of(c.verify_fq));
        o.set("fr_inversions", Value::of(c.verify_fr_inversions));
        o.set("check_fr_muls", Value::of(c.check_fr));
        o.set("check_fq_muls", Value::of(c.check_fq));
        verify_rows.push(std::move(o));
    }
    doc.set("verify", std::move(verify_rows));
    Value telemetry_rows = Value::array();
    for (const Counters &c : counters) {
        Value o = Value::object();
        o.set("name", Value::of(c.name));
        for (const auto &[key, n] : record_fields(c)) {
            o.set(key, Value::of(n));
        }
        telemetry_rows.push(std::move(o));
    }
    doc.set("telemetry", std::move(telemetry_rows));
    Value pairing_row = Value::object();
    pairing_row.set("final_exp_fq_muls",
                    Value::of(pairing.final_exp_fq_muls));
    pairing_row.set("flush_proofs", Value::of(pairing.flush_proofs));
    pairing_row.set("flush_fq_muls", Value::of(pairing.flush_fq_muls));
    doc.set("pairing", std::move(pairing_row));
    Value drift = Value::object();
    // Default bounds are deliberately generous: drift compares *shares*
    // of runtime (machine speed cancels), but relative kernel speeds
    // still vary across hosts and run-to-run at these sizes.
    Value dflt = Value::array();
    dflt.push(Value::of(1.0 / 64.0));
    dflt.push(Value::of(64.0));
    drift.set("default", std::move(dflt));
    Value kernels = Value::object();
    for (const auto &row : attrib.kernels) {
        if (row.drift_ratio <= 0) continue;
        Value b = Value::array();
        b.push(Value::of(row.drift_ratio / 32.0));
        b.push(Value::of(row.drift_ratio * 32.0));
        kernels.set(row.kernel, std::move(b));
    }
    drift.set("kernels", std::move(kernels));
    doc.set("drift", std::move(drift));
    return doc.render();
}

std::optional<std::string>
read_file(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

struct GateLog {
    std::vector<bench::Gate> gates;
    bool all_ok = true;

    void
    check(const std::string &name, bool ok, const std::string &detail)
    {
        gates.push_back({name, ok, detail});
        if (!ok) {
            all_ok = false;
            std::fprintf(stderr, "bench_attrib: GATE FAILED %s: %s\n",
                         name.c_str(), detail.c_str());
        }
    }
};

std::string
u64s(uint64_t v)
{
    return std::to_string(v);
}

/**
 * Diff measured costs against the ledger array `section` of
 * {key, fq_muls, fq_inversions} rows, one gate per field per row; a row
 * missing on either side fails. `what` names the layer in messages, and
 * each message puts the inversions beside the Fq muls, since an
 * inversion is ~610 Fq muls.
 */
void
check_cost_rows(const Value &baselines, const std::string &section,
                const char *key, const std::string &what,
                const std::vector<CostRow> &measured, GateLog &log)
{
    const Value *rows = baselines.find(section);
    if (rows == nullptr || !rows->is_array()) {
        log.check("baselines_schema", false,
                  "baselines.json has no " + section + " array");
        return;
    }
    std::map<uint64_t, std::pair<uint64_t, uint64_t>> ledger;
    for (const Value &b : rows->items) {
        const Value *n = b.find(key);
        const Value *fq = b.find("fq_muls");
        const Value *inv = b.find("fq_inversions");
        if (n == nullptr || !n->is_integer() || fq == nullptr ||
            !fq->is_integer() || inv == nullptr || !inv->is_integer()) {
            log.check("baseline_field", false,
                      what + " ledger row lacks an integer " + key +
                          "/fq_muls/fq_inversions");
            continue;
        }
        ledger[n->as_u64()] = {fq->as_u64(), inv->as_u64()};
    }
    auto cost = [](uint64_t fq, uint64_t inv) {
        return u64s(fq) + " (" + u64s(inv) + " inversions)";
    };
    for (const CostRow &r : measured) {
        const std::string where = what + " " + key + "=" + u64s(r.n);
        auto it = ledger.find(r.n);
        if (it == ledger.end()) {
            log.check("baseline_" + section + "_present", false,
                      where + " is measured but missing from the ledger");
            continue;
        }
        const auto [fq, inv] = it->second;
        const std::string detail = where + " fq_muls: ledger " +
                                   cost(fq, inv) + ", measured " +
                                   cost(r.fq_muls, r.fq_inversions);
        log.check("baseline:" + where + ":fq_muls", fq == r.fq_muls, detail);
        log.check("baseline:" + where + ":fq_inversions",
                  inv == r.fq_inversions, detail);
        ledger.erase(it);
    }
    for (const auto &[n, unused] : ledger) {
        log.check("baseline_" + section + "_present", false,
                  what + " " + key + "=" + u64s(n) +
                      " is in the ledger but not measured");
    }
}

/** Gate one integer field of a ledger row; `where` names the row. */
void
check_field(const Value &row, const std::string &where, const char *key,
            uint64_t got, GateLog &log)
{
    const Value *want = row.find(key);
    if (want == nullptr || !want->is_integer()) {
        log.check("baseline_field", false,
                  where + "." + key + " missing from ledger");
        return;
    }
    log.check("baseline:" + where + ":" + key, want->as_u64() == got,
              where + "." + key + ": ledger " + u64s(want->as_u64()) +
                  ", measured " + u64s(got));
}

/**
 * Diff the ledger array `section` of per-scenario rows, matched to the
 * roster by name, against the measured counters; `fields` lists a
 * row's gated (key, value) pairs and `prefix` is prepended to the row
 * name in gate messages.
 */
template <typename Fields>
void
check_scenario_rows(const Value &baselines, const std::string &section,
                    const std::string &prefix,
                    const std::vector<Counters> &measured,
                    const Fields &fields, GateLog &log)
{
    const Value *rows = baselines.find(section);
    if (rows == nullptr || !rows->is_array()) {
        log.check("baselines_schema", false,
                  "baselines.json has no " + section + " array");
        return;
    }
    log.check(prefix.empty() ? "baseline_roster_size"
                             : "baseline_roster_size:" + section,
              rows->items.size() == measured.size(),
              "ledger has " + u64s(rows->items.size()) + " " + section +
                  " row(s), roster has " + u64s(measured.size()));
    for (const Value &b : rows->items) {
        const Value *name = b.find("name");
        if (name == nullptr || !name->is_string()) continue;
        const Counters *m = nullptr;
        for (const Counters &c : measured) {
            if (c.name == name->str) m = &c;
        }
        if (m == nullptr) {
            log.check("baseline_scenario_present", false,
                      "ledger " + section + " row '" + name->str +
                          "' is not in the roster");
            continue;
        }
        for (const auto &[key, got] : fields(*m)) {
            check_field(b, prefix + name->str, key, got, log);
        }
    }
}

/** Diff measured counters against the ledger: one gate per scenario
 * field, per MSM size, per SRS size, per VERIFY-stage field and per
 * pairing field. */
void
check_counters(const Value &baselines,
               const std::vector<Counters> &measured,
               const std::vector<CostRow> &msm,
               const std::vector<CostRow> &srs, const PairingRow &pairing,
               GateLog &log)
{
    check_cost_rows(baselines, "msm", "n", "curve.msm", msm, log);
    check_cost_rows(baselines, "srs", "mu", "pcs.srs", srs, log);
    check_scenario_rows(
        baselines, "scenarios", "", measured,
        [](const Counters &c) {
            return FieldList{{"num_gates", c.num_gates},
                             {"active_gates", c.active_gates},
                             {"lookup_gates", c.lookup_gates},
                             {"modmul_fr", c.modmul_fr},
                             {"modmul_fq", c.modmul_fq},
                             {"proof_bytes", c.proof_bytes}};
        },
        log);
    check_scenario_rows(
        baselines, "verify", "verify.", measured,
        [](const Counters &c) {
            return FieldList{{"modmul_fr", c.verify_fr},
                             {"modmul_fq", c.verify_fq},
                             {"fr_inversions", c.verify_fr_inversions},
                             {"check_fr_muls", c.check_fr},
                             {"check_fq_muls", c.check_fq}};
        },
        log);
    check_scenario_rows(baselines, "telemetry", "telemetry.", measured,
                        record_fields, log);
    const Value *row = baselines.find("pairing");
    if (row == nullptr || !row->is_object()) {
        log.check("baselines_schema", false,
                  "baselines.json has no pairing row");
        return;
    }
    check_field(*row, "pairing", "final_exp_fq_muls",
                pairing.final_exp_fq_muls, log);
    check_field(*row, "pairing", "flush_proofs", pairing.flush_proofs, log);
    check_field(*row, "pairing", "flush_fq_muls", pairing.flush_fq_muls,
                log);
}

/** Gate the attribution report against the ledger's drift bounds. */
void
check_drift(const Value &baselines, const obs::attrib::Report &attrib,
            GateLog &log)
{
    log.check("attrib_jobs_joined",
              attrib.jobs_joined == roster().size(),
              "joined " + u64s(attrib.jobs_joined) + " of " +
                  u64s(roster().size()) + " roster job(s)");
    log.check("attrib_modeled_cycles", attrib.modeled_total_cycles > 0,
              "attribution joined no modeled cycles");
    std::string unmapped;
    for (const std::string &k : attrib.unmapped_kernels) {
        if (!unmapped.empty()) unmapped += ", ";
        unmapped += k;
    }
    log.check("attrib_no_unmapped_kernels",
              attrib.unmapped_kernels.empty(),
              "prover kernel(s) missing from the attribution group "
              "table: " + unmapped);

    double lo = 1.0 / 64.0, hi = 64.0;
    const Value *drift = baselines.find("drift");
    const Value *kernels = nullptr;
    if (drift != nullptr && drift->is_object()) {
        const Value *dflt = drift->find("default");
        if (dflt != nullptr && dflt->is_array() &&
            dflt->items.size() == 2) {
            lo = dflt->items[0].as_double();
            hi = dflt->items[1].as_double();
        }
        kernels = drift->find("kernels");
    }
    for (const auto &row : attrib.kernels) {
        log.check("attrib_kernel_modeled:" + row.kernel,
                  row.modeled_cycles > 0,
                  "measured kernel '" + row.kernel +
                      "' has no modeled cycles");
        log.check("attrib_kernel_measured:" + row.kernel,
                  row.measured_seconds > 0,
                  "modeled kernel '" + row.kernel +
                      "' was never measured");
        if (row.modeled_cycles == 0 || row.measured_seconds <= 0) {
            continue;
        }
        double klo = lo, khi = hi;
        if (kernels != nullptr && kernels->is_object()) {
            const Value *b = kernels->find(row.kernel);
            if (b != nullptr && b->is_array() && b->items.size() == 2) {
                klo = b->items[0].as_double();
                khi = b->items[1].as_double();
            }
        }
        char detail[160];
        std::snprintf(detail, sizeof(detail),
                      "kernel '%s' drift %.4f vs bounds [%.4f, %.4f]",
                      row.kernel.c_str(), row.drift_ratio, klo, khi);
        log.check("attrib_drift:" + row.kernel,
                  row.drift_ratio >= klo && row.drift_ratio <= khi,
                  detail);
    }
}

/** Merge sibling BENCH_*.json envelopes into one summary document. */
void
merge_bench_reports(const std::string &summary_path,
                    const std::string &own_json, GateLog &log)
{
    namespace fs = std::filesystem;
    std::vector<std::string> paths;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(".", ec)) {
        if (!entry.is_regular_file()) continue;
        std::string name = entry.path().filename().string();
        if (name.rfind("BENCH_", 0) != 0 ||
            name.size() < 6 + 5 ||
            name.compare(name.size() - 5, 5, ".json") != 0) {
            continue;
        }
        if (name == fs::path(summary_path).filename().string()) continue;
        if (!own_json.empty() &&
            name == fs::path(own_json).filename().string()) {
            continue;
        }
        paths.push_back(name);
    }
    std::sort(paths.begin(), paths.end());

    Value doc = Value::object();
    doc.set("schema", Value::of("zkspeed-bench-summary-v1"));
    doc.set("build", obs::build_info_json());
    Value benches = Value::array();
    bool merged_ok = true;
    size_t merged = 0;
    for (const std::string &p : paths) {
        auto text = read_file(p);
        auto parsed =
            text.has_value() ? obs::jsonv::parse(*text) : std::nullopt;
        const Value *schema =
            parsed.has_value() ? parsed->find("schema") : nullptr;
        bool envelope_ok =
            schema != nullptr && schema->is_string() &&
            schema->str == "zkspeed-bench-v1" &&
            parsed->find("bench") != nullptr &&
            parsed->find("metrics") != nullptr &&
            parsed->find("gates") != nullptr;
        log.check("bench_envelope:" + p, envelope_ok,
                  p + ": zkspeed-bench-v1 envelope check");
        if (!envelope_ok) continue;
        if (!bench::gates_passed(*parsed)) {
            merged_ok = false;
            log.check("bench_gates:" + p, false,
                      p + " reports a failed gate");
        }
        Value entry = Value::object();
        entry.set("file", Value::of(p));
        entry.set("report", std::move(*parsed));
        benches.push(std::move(entry));
        ++merged;
    }
    doc.set("benches", std::move(benches));
    doc.set("merged", Value::of(uint64_t(merged)));
    doc.set("all_gates_passed", Value::of(merged_ok && log.all_ok));
    if (!obs::write_file(summary_path, doc.render())) {
        log.check("bench_summary_written", false,
                  "cannot write " + summary_path);
        return;
    }
    std::printf("merged %zu bench report(s) into %s\n", merged,
                summary_path.c_str());
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string baselines_path = "baselines.json";
    std::string write_path;
    std::string json_path;
    std::string summary_path;
    std::string attrib_path;
    for (int i = 1; i < argc; ++i) {
        auto arg = [&](const char *flag) {
            if (std::strcmp(argv[i], flag) != 0) return false;
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a path\n", flag);
                std::exit(2);
            }
            return true;
        };
        if (arg("--baselines")) {
            baselines_path = argv[++i];
        } else if (arg("--write-baselines")) {
            write_path = argv[++i];
        } else if (arg("--json")) {
            json_path = argv[++i];
        } else if (arg("--summary")) {
            summary_path = argv[++i];
        } else if (arg("--attrib")) {
            attrib_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_attrib [--baselines P] "
                         "[--json P] [--summary P] [--attrib P] | "
                         "--write-baselines P\n");
            return 2;
        }
    }

    bench::title("Exact baseline counters (parallelism pinned to 1)");
    std::vector<RosterProof> proofs;
    auto counters = measure_counters(proofs);
    bench::Table t({{"Scenario", 20}, {"Gates", 8}, {"Active", 8},
                    {"Lookup", 8}, {"Fr muls", 10}, {"Fq muls", 10},
                    {"Proof B", 9}});
    for (const Counters &c : counters) {
        t.row({c.name, bench::fmt_int(c.num_gates),
               bench::fmt_int(c.active_gates),
               bench::fmt_int(c.lookup_gates),
               bench::fmt_int(c.modmul_fr), bench::fmt_int(c.modmul_fq),
               bench::fmt_int(c.proof_bytes)});
    }

    bench::title("Exact VERIFY-layer cost (parallelism pinned to 1)");
    bench::Table vt({{"Scenario", 20}, {"Alg Fr muls", 12},
                     {"Alg Fq muls", 12}, {"Alg Fr inv", 11},
                     {"Check Fr muls", 14}, {"Check Fq muls", 14}});
    for (const Counters &c : counters) {
        vt.row({c.name, bench::fmt_int(c.verify_fr),
                bench::fmt_int(c.verify_fq),
                bench::fmt_int(c.verify_fr_inversions),
                bench::fmt_int(c.check_fr), bench::fmt_int(c.check_fq)});
    }
    bench::title("Exact telemetry records per PROVE job");
    bench::Table rt({{"Scenario", 20}, {"Spans", 8}, {"Ctr adds", 10},
                     {"Observes", 10}, {"Gauge wr", 10}, {"Log ev", 8}});
    for (const Counters &c : counters) {
        const obs::RecordCounts &r = c.records;
        rt.row({c.name, bench::fmt_int(r.spans),
                bench::fmt_int(r.counter_adds),
                bench::fmt_int(r.observations),
                bench::fmt_int(r.gauge_writes),
                bench::fmt_int(r.log_events)});
    }
    auto pairing = measure_pairing(proofs);
    std::printf("final exponentiation: %s Fq muls; flush of %s roster "
                "proof(s): %s Fq muls\n",
                bench::fmt_int(pairing.final_exp_fq_muls).c_str(),
                u64s(pairing.flush_proofs).c_str(),
                bench::fmt_int(pairing.flush_fq_muls).c_str());

    bench::title("Exact MSM cost per size (parallelism pinned to 1)");
    auto msm = measure_msm();
    bench::Table mt({{"n", 8}, {"Fq muls", 12}, {"Fq muls/pt", 12},
                     {"Inversions", 11}, {"Inv share", 10},
                     {"Wall ms", 10}});
    // Share of the Fq muls spent inside inversions. A Fermat inversion
    // is one Fq pow by p - 2, so every one costs the same muls.
    const uint64_t per_inversion = [] {
        ff::ModmulScope scope;
        ff::Fq::from_uint(3).inverse();
        return scope.fq_delta();
    }();
    auto inv_share = [&](const CostRow &r) {
        return bench::fmt(100.0 * double(r.fq_inversions) *
                              double(per_inversion) / double(r.fq_muls),
                          1) +
               "%";
    };
    for (const CostRow &r : msm) {
        mt.row({bench::fmt_int(r.n), bench::fmt_int(r.fq_muls),
                bench::fmt(double(r.fq_muls) / double(r.n), 1),
                bench::fmt_int(r.fq_inversions), inv_share(r),
                bench::fmt(r.ms)});
    }

    bench::title("Exact SRS generation cost (parallelism pinned to 1)");
    auto srs = measure_srs();
    bench::Table st({{"mu", 8}, {"Fq muls", 12}, {"Inversions", 11},
                     {"Inv share", 10}, {"Wall ms", 10}});
    for (const CostRow &r : srs) {
        st.row({bench::fmt_int(r.n), bench::fmt_int(r.fq_muls),
                bench::fmt_int(r.fq_inversions), inv_share(r),
                bench::fmt(r.ms)});
    }

    bench::title("Kernel drift vs chip model (conformance harness)");
    auto attrib = measure_attrib();
    bench::Table dt({{"Kernel", 20}, {"Meas ms", 10}, {"Model Mcyc", 12},
                     {"Meas %", 8}, {"Model %", 9}, {"Drift", 8}});
    for (const auto &row : attrib.kernels) {
        dt.row({row.kernel, bench::fmt(row.measured_seconds * 1e3),
                bench::fmt(double(row.modeled_cycles) / 1e6),
                bench::fmt(100.0 * row.measured_share, 1),
                bench::fmt(100.0 * row.modeled_share, 1),
                bench::fmt(row.drift_ratio)});
    }
    std::printf("%zu job(s) joined, %zu modeled-only, %zu "
                "measured-only, %zu/%zu span(s) joined\n",
                attrib.jobs_joined, attrib.jobs_modeled_only,
                attrib.jobs_measured_only, attrib.spans_joined,
                attrib.spans_seen);

    bench::title("Serial modmul share under a worker budget (report-only)");
    attrib.serial_share = measure_serial_share();
    const auto &share = *attrib.serial_share;
    auto serial = [](uint64_t total, uint64_t parallel) {
        return bench::fmt(100.0 * double(total - parallel) / double(total),
                          1) +
               "% serial of " + bench::fmt_int(total);
    };
    std::printf("%s at budget %s: Fr %s, Fq %s\n", share.circuit.c_str(),
                u64s(share.budget).c_str(),
                serial(share.fr_muls, share.fr_parallel).c_str(),
                serial(share.fq_muls, share.fq_parallel).c_str());
    if (!attrib_path.empty()) {
        if (!obs::write_file(attrib_path, obs::attrib::render_json(attrib))) {
            std::fprintf(stderr, "cannot write %s\n",
                         attrib_path.c_str());
            return 2;
        }
        std::printf("wrote %s\n", attrib_path.c_str());
    }

    if (!write_path.empty()) {
        if (!obs::write_file(write_path, render_baselines(counters, msm, srs,
                                                          pairing, attrib))) {
            std::fprintf(stderr, "cannot write %s\n", write_path.c_str());
            return 2;
        }
        std::printf("wrote %s\n", write_path.c_str());
        return 0;
    }

    GateLog log;
    auto ledger_text = read_file(baselines_path);
    if (!ledger_text.has_value()) {
        std::fprintf(stderr,
                     "bench_attrib: cannot read %s (run with "
                     "--write-baselines to create it)\n",
                     baselines_path.c_str());
        return 2;
    }
    auto ledger = obs::jsonv::parse(*ledger_text);
    const Value *schema =
        ledger.has_value() ? ledger->find("schema") : nullptr;
    if (schema == nullptr || !schema->is_string() ||
        schema->str != "zkspeed-baselines-v1") {
        std::fprintf(stderr, "bench_attrib: %s is not a "
                     "zkspeed-baselines-v1 ledger\n",
                     baselines_path.c_str());
        return 2;
    }
    check_counters(*ledger, counters, msm, srs, pairing, log);
    check_drift(*ledger, attrib, log);
    if (!summary_path.empty()) {
        merge_bench_reports(summary_path, json_path, log);
    }

    if (!json_path.empty()) {
        Value metrics = Value::object();
        metrics.set("scenarios", Value::of(uint64_t(counters.size())));
        metrics.set("jobs_joined", Value::of(attrib.jobs_joined));
        metrics.set("spans_joined", Value::of(attrib.spans_joined));
        metrics.set("kernels", Value::of(attrib.kernels.size()));
        metrics.set("measured_total_seconds",
                    Value::of(attrib.measured_total_seconds));
        metrics.set("modeled_total_cycles",
                    Value::of(attrib.modeled_total_cycles));
        if (!bench::write_unified_report(json_path, "attrib", metrics,
                                         log.gates)) {
            std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
            return 2;
        }
        std::printf("wrote %s\n", json_path.c_str());
    }

    if (!log.all_ok) {
        std::fprintf(stderr, "FAILED: baseline/drift gate(s) failed "
                     "(see above)\n");
        return 1;
    }
    std::printf("all baseline and drift gates passed\n");
    return 0;
}
