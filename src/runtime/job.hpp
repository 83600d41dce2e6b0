/**
 * @file
 * Job and response types for the batch proving/verification service.
 *
 * Two job classes share the worker pool. A PROVE job (JobRequest)
 * carries everything needed to prove one statement: the preprocessed
 * circuit and a claimed witness; the service answers with canonical
 * proof bytes. A VERIFY job (VerifyRequest) carries a serialized
 * verifying key, public inputs and proof bytes; the service coalesces
 * verify jobs into batch windows and answers each with accept/reject.
 * Either way a malformed request becomes an error response, never a
 * worker crash.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hyperplonk/circuit.hpp"

namespace zkspeed::runtime {

/** The two job classes served by the worker pool. */
enum class JobKind : uint8_t {
    prove = 0,
    verify = 1,
};

const char *to_string(JobKind k);

/** One proving request, decoded from the wire. */
struct JobRequest {
    /** Caller-chosen correlation id, echoed in the response. */
    uint64_t request_id = 0;
    hyperplonk::CircuitIndex circuit;
    hyperplonk::Witness witness;
};

/**
 * One verification request, decoded from the wire. The key and proof
 * stay in their canonical serialized forms; strict decoding (curve
 * membership, canonical field elements) happens in the worker so a
 * garbage payload rejects without touching the batch window.
 */
struct VerifyRequest {
    /** Caller-chosen correlation id, echoed in the response. */
    uint64_t request_id = 0;
    /** serialize_verifying_key bytes (pairing-mode SRS subset). */
    std::vector<uint8_t> vk;
    std::vector<ff::Fr> public_inputs;
    /** serialize_proof bytes. */
    std::vector<uint8_t> proof;
};

/** Why a job succeeded or failed. */
enum class JobStatus : uint8_t {
    ok = 0,
    /** Request bytes failed strict decoding. */
    malformed_request = 1,
    /** Witness does not satisfy the circuit (caught before proving). */
    unsatisfiable = 2,
    /** Circuit exceeds the service's configured size cap. */
    too_large = 3,
    /** Worker caught an unexpected exception while proving. */
    internal_error = 4,
    /** Service shut down before the job ran. */
    cancelled = 5,
    /** VERIFY only: the proof was checked and rejected. */
    invalid_proof = 6,
};

const char *to_string(JobStatus s);

/** Per-job measurements, folded into the service aggregates. */
struct JobMetrics {
    double queue_ms = 0;  ///< submit -> worker pickup
    double prove_ms = 0;  ///< keygen (on cache miss) + prove + encode
    double total_ms = 0;  ///< submit -> response ready
    /** Modular multiplications spent by this job (ff counters); for a
     * VERIFY job, by its algebraic stage (the flush is shared). */
    uint64_t modmul_fr = 0;
    uint64_t modmul_fq = 0;
    bool key_cache_hit = false;
    uint32_t worker_id = 0;
    uint64_t proof_bytes = 0;
    /** log2 gate count of the proved/verified circuit (0 when rejected
     * early). */
    uint32_t num_vars = 0;
    /** VERIFY only: wall time of the shared batch flush this job rode. */
    double verify_ms = 0;
    /** VERIFY only: number of proofs folded into that flush. */
    uint32_t batch_size = 0;
};

/** One answered job. */
struct JobResponse {
    uint64_t request_id = 0;
    JobKind kind = JobKind::prove;
    JobStatus status = JobStatus::internal_error;
    /** PROVE: canonical serialize_proof bytes; empty unless ok.
     *  VERIFY: always empty (the verdict is the status). */
    std::vector<uint8_t> proof;
    /** Human-readable detail for non-ok statuses. */
    std::string error;
    JobMetrics metrics;

    bool ok() const { return status == JobStatus::ok; }
};

/**
 * One line of the runtime trace: enough of a finished unit of work to
 * replay it through the zkSpeed chip model (sim/replay.hpp).
 *
 * PROVE entries are one per proved job; witness scalar statistics are
 * measured on the real witness so the simulated Sparse MSMs see the
 * job's true zero/one population. VERIFY entries are one per *batch
 * flush* (the amortized unit of verification work): the folded RLC MSM
 * replays on the chip's MSM unit while the multi-pairing stays on the
 * CPU, mirroring the paper's placement of pairings.
 */
struct TraceEntry {
    JobKind kind = JobKind::prove;
    /** Request id of the proved job — joins the replayed model cycles
     * to this job's prover spans in obs/attrib (the service tags its
     * prove spans with the same id as correlation id). Verify flushes
     * fold several requests and keep 0. */
    uint64_t request_id = 0;
    uint32_t num_vars = 0;
    /** Witness scalar population across the three wire MLEs (prove). */
    uint64_t zero_scalars = 0;
    uint64_t one_scalars = 0;
    uint64_t total_scalars = 0;
    /** Lookup argument shape (prove; empty when the circuit has none):
     * the sim LookupUnit prices the helper-MLE and LookupCheck work.
     * `per_table_rows` carries each fused table's height in tag order
     * so replay can price the per-bank CAM fills of a multi-table
     * circuit. */
    uint64_t lookup_gates = 0;
    std::vector<uint64_t> per_table_rows;
    double prove_ms = 0;

    // VERIFY-flush fields.
    /** Proofs folded into this flush. */
    uint32_t batch_size = 0;
    /** G1 points folded through RLC MSMs across the whole flush,
     * including every bisection probe (matches pairing_ms, which also
     * sums the probes). */
    uint64_t msm_points = 0;
    /** Measured software wall time of the whole flush. */
    double verify_ms = 0;
    /** Portion spent in Miller loops + final exponentiation (stays on
     * the CPU when replayed on the chip model). */
    double pairing_ms = 0;
};

}  // namespace zkspeed::runtime
