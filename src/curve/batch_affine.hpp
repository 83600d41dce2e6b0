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
 * of one scalar chain.
 *
 * A queued add holds no field elements: it is four 32-bit words that
 * name its operands and its result by index into storage the caller
 * binds (AffineBatch::bind). Operands are input points, read-only and
 * optionally negated, or slots; the sum overwrites a slot in place, so
 * a batch reserves 64 bytes per queued add (the add and one prefix
 * product). Every caller of the affine add runs on this one engine,
 * each advancing many independent chains in lockstep, one batch per
 * step:
 *  - curve::msm's bucket accumulation (its slots are a pool of running
 *    bucket sums) and chunked aggregation (its slots are the chains);
 *  - pairwise_sums, which derives each lower SRS level;
 *  - fixed_base_mul and its window table, which build the top level.
 */
#pragma once

#include <cstddef>
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

/**
 * A batch of pending affine additions (or doublings) that share one
 * inversion over their slope denominators.
 *
 * Equal-x pairs never reach the inversion: P + (-P) cancels (add()
 * queues nothing and returns false) and P + P is queued as a doubling
 * with denominator 2y != 0 (y = 0 would be a 2-torsion point, and E(Fq)
 * has odd order), so no zero denominator can poison the batch.
 *
 * Operands are read when complete() runs, not when add() queues them,
 * so the caller keeps every named operand in place until then. The
 * sums are written in reverse queue order, each after its own
 * operands are read: an add may read a slot that another add of the
 * same batch overwrites only if it was queued after that add.
 */
class AffineBatch
{
  public:
    /** An operand: input point i (y negated when asked) or slot i of
     * the bound storage, for i <= kMaxIndex. */
    using Ref = uint32_t;
    static constexpr Ref kSlotBit = Ref(1) << 31;
    static constexpr Ref kNegBit = Ref(1) << 30;
    /** Largest input or slot index a Ref can name. */
    static constexpr uint32_t kMaxIndex = kNegBit - 1;

    static Ref input(size_t i, bool neg = false)
    {
        return Ref(i) | (neg ? kNegBit : 0);
    }
    static Ref slot(size_t i) { return Ref(i) | kSlotBit; }
    static bool is_slot(Ref r) { return (r & kSlotBit) != 0; }
    static uint32_t index(Ref r) { return r & kMaxIndex; }

    /** One queued addition: slot dst = a + b. */
    struct Queued {
        Ref a, b;
        /** The result slot; kDoubling marks a doubling. */
        uint32_t dst_bits;
        /** The caller's label, handed back by complete(). */
        uint32_t tag;

        static constexpr uint32_t kDoubling = uint32_t(1) << 31;
        uint32_t dst() const { return dst_bits & ~kDoubling; }
        bool doubling() const { return (dst_bits & kDoubling) != 0; }
    };

    /** The storage refs index: y follows x in every element. */
    struct Storage {
        const char *in = nullptr;
        size_t in_stride = 0;
        AffineSlot *slots = nullptr;

        const ff::Fq *
        x(Ref r) const
        {
            return is_slot(r) ? &slots[index(r)].x
                              : reinterpret_cast<const ff::Fq *>(
                                    in + size_t(index(r)) * in_stride);
        }

        /** y, negated for an input ref that asks for it. */
        ff::Fq
        y(Ref r) const
        {
            const ff::Fq &y = x(r)[1];
            return (r & kNegBit) ? -y : y;
        }
    };

    /**
     * Name the storage operands and results live in: `inputs` is read
     * through input refs (any array whose elements start with the Fq
     * pair x, y, such as G1Affine or AffineSlot) and `slots` through
     * slot refs and result slots. Refs are indices, so re-binding a
     * grown array keeps the queued adds valid.
     */
    template <typename Point>
    void
    bind(std::span<const Point> inputs, std::span<AffineSlot> slots)
    {
        static_assert(offsetof(Point, x) == 0 &&
                      offsetof(Point, y) == sizeof(ff::Fq));
        s_ = {reinterpret_cast<const char *>(inputs.data()), sizeof(Point),
              slots.data()};
    }

    /** Queue slot dst = a + b; dst may be a's or b's own slot, which
     * the sum then overwrites in place. @return false when the sum is
     * the identity (nothing is queued). */
    bool
    add(Ref a, Ref b, uint32_t dst, uint32_t tag = 0)
    {
        uint32_t bits = dst;
        if (*s_.x(a) == *s_.x(b)) {
            const ff::Fq ay = s_.y(a), by = s_.y(b);
            if (!(ay == by) || ay.is_zero()) return false;  // P + (-P)
            bits |= Queued::kDoubling;
        }
        if (n_ == q_.size()) q_.emplace_back();
        q_[n_++] = {a, b, bits, tag};
        return true;
    }

    /** Size the batch for m queued additions up front, so a batch that
     * never exceeds m never reallocates. */
    void
    reserve(size_t m)
    {
        q_.reserve(m);
        prefix_.reserve(m);
    }

    /** Bytes this batch holds reserved for its queue and scratch. */
    size_t
    reserved_bytes() const
    {
        return q_.capacity() * sizeof(Queued) +
               prefix_.capacity() * sizeof(ff::Fq);
    }

    bool empty() const { return n_ == 0; }
    size_t size() const { return n_; }

    /** Additions completed by this batch so far. */
    uint64_t completed() const { return completed_; }

    /**
     * Complete every queued addition behind one inversion, writing each
     * sum into its dst slot, then hand each add to sink(const Queued &)
     * in queue order. The sink may queue at most one new addition per
     * call; those wait for the next complete(). A doubling's x^2 is
     * counted here, not in add().
     */
    template <typename Sink>
    void
    complete(Sink &&sink)
    {
        const size_t m = n_;
        if (m == 0) return;
        if (prefix_.size() < m) prefix_.resize(m);
        finish();
        completed_ += m;
        // The sink's adds land at indices <= j, all of them already
        // handed out, so the queue is read and refilled in one buffer.
        n_ = 0;
        for (size_t j = 0; j < m; ++j) {
            const Queued done = q_[j];
            sink(done);
        }
    }

    void
    complete()
    {
        complete([](const Queued &) {});
    }

  private:
    /** Compute every queued sum (batch_affine.cpp). */
    void finish();

    Storage s_;
    /** q_[0 .. n_) are queued; q_.size() is only a high-water mark. */
    std::vector<Queued> q_;
    size_t n_ = 0;
    std::vector<ff::Fq> prefix_;
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
