/**
 * @file
 * Multi-scalar multiplication (Pippenger's algorithm) and the Sparse MSM
 * of HyperPlonk witness commitments.
 *
 * MSMs compute sum_i s_i * P_i and are the compute-bound bottleneck of the
 * prover (paper Sections 2.4, 4.2). Witness MLEs are "sparse": roughly 90%
 * of scalars are 0 or 1 (paper Section 3.3.1); the sparse path adds the
 * 1-scalar points directly and runs Pippenger only on the dense remainder,
 * exactly like the zkSpeed/SZKP scheme.
 *
 * The dense kernel has one configuration, chosen only by the point count.
 * Two or more points are split by the GLV endomorphism into twice as many
 * 128-bit scalars; a single point keeps its 255-bit scalar. Both then run
 * signed-digit (wNAF-style) windows, which halve the bucket count, and
 * accumulate buckets in affine coordinates with batched inversion over
 * the pending-add slopes — the software twin of the paper's
 * bucket-aggregation scheme (Section 4.2 / bench_fig5), built on the
 * ff::batch_inverse idiom of bench_fig8. A cost model picks the window
 * width from the point count. See DESIGN.md section 12.
 */
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "curve/g1.hpp"
#include "ff/fr.hpp"

namespace zkspeed::curve {

/** Scalar population statistics gathered by the sparse MSM. */
struct MsmStats {
    size_t zeros = 0;   ///< scalars equal to 0 (skipped entirely)
    size_t ones = 0;    ///< scalars equal to 1 (tree-summed, no Pippenger)
    size_t dense = 0;   ///< full-width scalars (Pippenger)
};

/**
 * Structured error for an MSM called with points.size() !=
 * scalars.size(). A silent identity return here turns a caller bug into
 * a wrong-but-valid-looking commitment, so the mismatch throws with both
 * lengths attached (same idiom as lookup::TableSizeError).
 */
class MsmSizeError : public std::runtime_error
{
  public:
    MsmSizeError(const char *where, size_t points_, size_t scalars_)
        : std::runtime_error(std::string(where) + ": points/scalars length "
                             "mismatch (" + std::to_string(points_) +
                             " points vs " + std::to_string(scalars_) +
                             " scalars) — an MSM over misaligned spans "
                             "would silently commit to the wrong value"),
          points(points_), scalars(scalars_)
    {}

    size_t points;   ///< number of base points passed
    size_t scalars;  ///< number of scalars passed
};

/**
 * Dense MSM via Pippenger's bucket method (GLV split for n >= 2, signed
 * digits, affine batch-add bucket accumulation).
 *
 * @param points base points (affine).
 * @param scalars multipliers, same length as points.
 * @throws MsmSizeError when the span lengths differ.
 * @throws std::logic_error when the GLV constants, derived on the first
 *         call, fail validation (there is no unsplit fallback).
 */
G1 msm(std::span<const G1Affine> points, std::span<const ff::Fr> scalars);

/**
 * Sparse MSM: skips zero scalars, tree-sums one-scalar points, and runs
 * msm() on the dense remainder.
 *
 * @param stats optional out-parameter for the scalar population.
 * @throws MsmSizeError when the span lengths differ.
 */
G1 msm_sparse(std::span<const G1Affine> points,
              std::span<const ff::Fr> scalars, MsmStats *stats = nullptr);

/**
 * Pairwise (binary-tree) sum of affine points. This mirrors the zkSpeed
 * tree-based accumulation of 1-valued-scalar points through the pipelined
 * PADD (paper Section 4.2).
 */
G1 tree_sum(std::span<const G1Affine> points);

namespace detail {

/**
 * The GLV split msm() runs on every scalar of a multi-point MSM:
 * s = s1 + lambda * s2 as integers, with s1 < lambda and s2 < 2^128,
 * where lambda^2 + lambda + 1 = r. Exposed for tests.
 * @pre s is canonical (< r).
 */
void glv_split(const ff::Fr::Repr &s, ff::Fr::Repr &s1, ff::Fr::Repr &s2);

}  // namespace detail

/** Naive reference MSM (double-and-add per point); used in tests only.
 * @throws MsmSizeError when the span lengths differ. */
G1 msm_naive(std::span<const G1Affine> points,
             std::span<const ff::Fr> scalars);

}  // namespace zkspeed::curve
