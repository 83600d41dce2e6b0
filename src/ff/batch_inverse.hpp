/**
 * @file
 * Montgomery batch inversion (Montgomery's trick).
 *
 * Computes the inverses of a batch of field elements with a single modular
 * inversion plus 3(b-1) multiplications. This is the software analogue of
 * the zkSpeed FracMLE unit (paper Section 4.4.2): the hardware overlaps the
 * partial-product chain with the BEEA inversion and uses a multiplier tree;
 * here we implement the sequential prefix-product formulation, which is the
 * reference behaviour the hardware must match.
 */
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "ff/parallel.hpp"

namespace zkspeed::ff {

/**
 * Invert every element of a span in place.
 *
 * Zero elements are left as zero (and do not poison the batch), matching
 * the convention of Fp::inverse().
 *
 * @param xs elements to invert in place.
 */
template <typename F>
void
batch_inverse(std::span<F> xs)
{
    const size_t n = xs.size();
    if (n == 0) return;
    // prefix[i] = product of all non-zero xs[0..i]
    std::vector<F> prefix(n);
    F acc = F::one();
    for (size_t i = 0; i < n; ++i) {
        if (!xs[i].is_zero()) acc = acc * xs[i];
        prefix[i] = acc;
    }
    F inv = acc.inverse();
    // Walk backwards, peeling one inverse off the running product.
    for (size_t i = n; i-- > 0;) {
        if (xs[i].is_zero()) continue;
        F before = (i == 0) ? F::one() : prefix[i - 1];
        F x_inv = inv * before;
        inv = inv * xs[i];
        xs[i] = x_inv;
    }
}

/** Convenience overload for vectors. */
template <typename F>
void
batch_inverse(std::vector<F> &xs)
{
    batch_inverse(std::span<F>(xs));
}

/**
 * Parallel batch inversion over a FIXED 8192-element chunk grid: each
 * grid chunk runs Montgomery's trick independently (one true inversion
 * per chunk), and workers claim whole chunks. The chunk layout depends
 * only on xs.size(), never on the worker count, so both the resulting
 * values and the modmul counter totals are bit-identical across thread
 * counts (the ff::parallel_for contract).
 */
template <typename F>
void
parallel_batch_inverse(std::span<F> xs)
{
    constexpr size_t kChunk = 8192;
    if (xs.size() <= kChunk) {
        batch_inverse(xs);
        return;
    }
    const size_t nchunks = (xs.size() + kChunk - 1) / kChunk;
    // Montgomery's trick: ~3 muls per element of a grid chunk.
    parallel_for(nchunks, 3 * kChunk, [&](size_t cb, size_t ce) {
        for (size_t c = cb; c < ce; ++c) {
            size_t b = c * kChunk;
            size_t e = std::min(xs.size(), b + kChunk);
            batch_inverse(xs.subspan(b, e - b));
        }
    });
}

/** Convenience overload for vectors. */
template <typename F>
void
parallel_batch_inverse(std::vector<F> &xs)
{
    parallel_batch_inverse(std::span<F>(xs));
}

}  // namespace zkspeed::ff
