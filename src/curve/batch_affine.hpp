/**
 * @file
 * Many independent affine G1 additions behind one field inversion.
 *
 * An affine addition costs one inversion plus 3 Fq muls; Montgomery's
 * trick shares the inversion across a batch for 3 more muls per add, so
 * a batched add costs ~6 Fq muls against ~11 for a Jacobian mixed add.
 * This is the software twin of the zkSpeed MSM unit's shared-inversion
 * datapath (paper Section 4.2). Like the unit's pipelined adder, a
 * batch completes its adds eight at a time, on the 8-lane Fq kernel
 * this process selected (ff/lanes8.hpp), and counts exactly the muls
 * of one scalar chain. Three callers advance many independent chains
 * in lockstep, one batch per step:
 *  - curve::msm's bucket accumulation and chunked aggregation, and
 *    pairwise_sums, which derives each lower SRS level, queue into an
 *    AffineBatch, which copies its operands and handles P + P and
 *    P + (-P);
 *  - fixed_base_mul, the SRS builder's fixed-base multiplication, adds
 *    in place: its chains can never meet those cases, so it keeps only
 *    the denominators (a batch of 1024 adds in ~50 KB, not ~250 KB).
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "curve/g1.hpp"
#include "ff/fq.hpp"
#include "ff/fr.hpp"

namespace zkspeed::curve {

/** A finite affine G1 point (the identity is never stored; callers keep
 * their own occupancy flags). */
struct AffineSlot {
    ff::Fq x, y;
};

namespace detail {

/** One queued addition. complete() overwrites x1, y1 with the sum. */
struct PendingAdd {
    /** sum_x pre-stores x1 + x2 so completion is exactly lambda,
     * lambda^2 and the y3 product. */
    ff::Fq x1, y1, sum_x, num;
    uint32_t out = 0;
};

/**
 * Invert every dens[j] behind one inversion and replace pend[j]'s x1,
 * y1 with its sum: lambda = num / den, x3 = lambda^2 - (x1 + x2),
 * y3 = lambda (x1 - x3) - y1. `prefix` is scratch of dens.size().
 * Runs 8 lanes at a time on ff::lane_kernel(); see batch_affine.cpp.
 */
void finish_adds(std::span<PendingAdd> pend, std::span<ff::Fq> dens,
                 ff::Fq *prefix);

}  // namespace detail

/**
 * A batch of pending affine additions P + Q (or doublings) that share
 * one inversion over their slope denominators.
 *
 * Equal-x pairs never reach the inversion: P + (-P) cancels (add()
 * queues nothing and returns false) and P + P is queued as a doubling
 * with denominator 2y != 0 (y = 0 would be a 2-torsion point, and E(Fq)
 * has odd order), so no zero denominator can poison the batch.
 */
class AffineBatch
{
  public:
    /** Queue p + q for destination `out`. @return false when the sum is
     * the identity (nothing is queued). */
    bool
    add(const AffineSlot &p, const AffineSlot &q, uint32_t out)
    {
        if (p.x == q.x) {
            if (!(p.y == q.y) || p.y.is_zero()) return false;  // P + (-P)
            ff::Fq x_sq = p.x.square();
            dens_.push_back(p.y.dbl());
            pend_.push_back({p.x, p.y, p.x.dbl(), x_sq.dbl() + x_sq, out});
            return true;
        }
        dens_.push_back(q.x - p.x);
        pend_.push_back({p.x, p.y, p.x + q.x, q.y - p.y, out});
        return true;
    }

    /** Size both batch buffers for m queued additions up front, so a
     * batch that never exceeds m never reallocates. */
    void
    reserve(size_t m)
    {
        for (auto *v : {&pend_, &done_}) v->reserve(m);
        for (auto *v : {&dens_, &done_dens_, &prefix_}) v->reserve(m);
    }

    bool empty() const { return pend_.empty(); }
    size_t size() const { return pend_.size(); }

    /** Additions completed by this batch so far. */
    uint64_t completed() const { return completed_; }

    /**
     * Complete every queued addition behind one inversion and hand each
     * sum to sink(out, sum), in queue order. sink may queue new
     * additions into this batch; they wait for the next complete().
     */
    template <typename Sink>
    void
    complete(Sink &&sink)
    {
        const size_t m = pend_.size();
        if (m == 0) return;
        std::swap(pend_, done_);
        std::swap(dens_, done_dens_);
        if (prefix_.size() < m) prefix_.resize(m);
        detail::finish_adds(done_, done_dens_, prefix_.data());
        completed_ += m;
        for (const detail::PendingAdd &p : done_) {
            sink(p.out, AffineSlot{p.x1, p.y1});
        }
        done_.clear();
        done_dens_.clear();
    }

  private:
    std::vector<ff::Fq> dens_;
    std::vector<ff::Fq> prefix_;
    std::vector<detail::PendingAdd> pend_;
    /** The batch being completed; swapped with pend_ so sink can queue
     * the next batch while this one is read. */
    std::vector<ff::Fq> done_dens_;
    std::vector<detail::PendingAdd> done_;
    uint64_t completed_ = 0;
};

/**
 * out[b] = pts[2b] + pts[2b+1] for every b < pts.size() / 2, behind one
 * inversion. Identity inputs and cancelling pairs are handled.
 * @pre pts.size() is even.
 */
std::vector<G1Affine> pairwise_sums(std::span<const G1Affine> pts);

/**
 * k_i * base for every scalar, in affine. Scalars are cut into 8-bit
 * windows against a table of every window's 255 nonzero multiples; a
 * block of 1024 scalars then advances its chains in lockstep, one
 * window per step and one inversion per step. Blocks sit on a fixed
 * grid of scalars and run in parallel, so values and Fq-mul counts do
 * not depend on the worker budget.
 * @pre base lies in the order-r subgroup (the chains' adds rely on it).
 */
std::vector<G1Affine> fixed_base_mul(const G1Affine &base,
                                     std::span<const ff::Fr> scalars);

}  // namespace zkspeed::curve
