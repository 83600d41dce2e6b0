/**
 * @file
 * Amortized multi-proof verification (DESIGN.md Section 6).
 *
 * The BatchVerifier collects per-proof deferred-pairing accumulators
 * (hyperplonk::verify_deferred emits one per proof) and decides them
 * all with a single folded check:
 *
 *   1. Fiat-Shamir weights: a transcript absorbs every accumulator's
 *      canonical content, then derives one random weight rho_i per
 *      proof. An adversary therefore commits to all proofs before any
 *      weight is known.
 *   2. Fold: terms of proof i are scaled by rho_i and concatenated.
 *      Grouping by G2 point turns the fold into one G1 MSM per distinct
 *      G2 point (mu+1 points for same-SRS mKZG batches) followed by one
 *      multi-pairing — N proofs cost one pairing product instead of N.
 *   3. Bisection fallback: when the folded check rejects, the verifier
 *      group-tests halves of the batch (re-using the already-prepared
 *      G2 Miller-loop coefficients) until the offending proof(s) are
 *      isolated; honest proofs in a poisoned batch still accept.
 *
 * The fold is the only pairing check in the verifier: a single proof's
 * PairingAccumulator::check() runs it over that one accumulator with
 * unit weight, without a transcript.
 *
 * Soundness: if any single proof's pairing product is not 1, the folded
 * product is 1 with probability at most 1/r over the choice of weights
 * (Schwartz-Zippel in the exponent of GT).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "verify/accumulator.hpp"

namespace zkspeed::verifier {

/** Measurements of one batch flush or single-proof check (metrics +
 * sim replay). */
struct BatchStats {
    /** Product-of-pairings evaluations, including bisection probes. */
    size_t pairing_checks = 0;
    /** Subset probes spent isolating failures (0 when the batch is clean). */
    size_t bisection_steps = 0;
    /** G1 points folded through MSMs across every check of the flush —
     * the full-batch check AND each bisection probe — so sim replay
     * charges the chip the same MSM work whose pairings it charges the
     * CPU (a clean flush runs one check, so this equals the full-batch
     * point count there). */
    size_t msm_points = 0;
    /** Multi-pairing pairs across every check of the flush (same
     * accounting as msm_points). */
    size_t num_pairings = 0;
    /** Wall time spent in Miller loops + final exponentiations, across
     * every probe (the CPU-resident portion under sim replay). */
    double pairing_ms = 0;
};

struct BatchResult {
    /** verdicts[i] == true iff proof i's deferred check passed. */
    std::vector<bool> verdicts;
    BatchStats stats;

    bool
    all_ok() const
    {
        for (bool v : verdicts) {
            if (!v) return false;
        }
        return true;
    }
};

class BatchVerifier
{
  public:
    /**
     * Add one proof's deferred accumulator (as produced by
     * hyperplonk::verify_deferred / pcs::accumulate).
     * @return the proof's index within the batch.
     */
    size_t add(PairingAccumulator acc);

    size_t size() const { return items_.size(); }
    bool empty() const { return items_.empty(); }

    /**
     * Decide every added proof: derive weights, run the folded check,
     * bisect on rejection. Resets the verifier for reuse.
     */
    BatchResult flush();

  private:
    std::vector<PairingAccumulator> items_;
};

}  // namespace zkspeed::verifier
