#include "curve/msm.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <string>

#include "curve/batch_affine.hpp"
#include "ff/lanes8.hpp"
#include "ff/parallel.hpp"
#include "obs/metrics.hpp"

namespace zkspeed::curve {

using ff::Fq;
using ff::Fr;

namespace {

/** Extract the w-bit digit starting at bit offset off (w <= 16, so the
 * mask shift is always defined; offsets past the top limb read as 0). */
inline uint64_t
digit_at(const Fr::Repr &r, unsigned off, unsigned w)
{
    unsigned limb = off / 64;
    if (limb >= Fr::kLimbs) return 0;
    unsigned shift = off % 64;
    uint64_t v = r.limbs[limb] >> shift;
    if (shift + w > 64 && limb + 1 < Fr::kLimbs) {
        v |= r.limbs[limb + 1] << (64 - shift);
    }
    return v & ((uint64_t(1) << w) - 1);
}

// ---------------------------------------------------------------------------
// Signed-digit Pippenger with affine batch-add bucket accumulation.
//
// Digits are recoded into [-(2^{w-1}-1), 2^{w-1}] with a carry chain, so a
// window needs 2^{w-1} buckets instead of 2^w - 1 (negative digits add the
// cheaply-negated point). Bucket contents are reduced in *affine*
// coordinates: pending additions accumulate into cache-resident batches
// sharing one inversion over their slope denominators (the paper's
// bucket-aggregation trick, software twin of bench_fig5 / bench_fig8),
// making an addition cost ~6 Fq muls instead of the ~11 of a Jacobian
// mixed add. Every MSM of two or more points is first halved in scalar
// width by the GLV endomorphism split below.
// See DESIGN.md section 12 for the soundness argument.
// ---------------------------------------------------------------------------

/** Number of signed w-bit windows covering a `bits`-bit scalar plus its
 * recoding carry. When bits % w != 0 the top window has r = bits % w
 * <= w-1 payload bits, so its digit (raw + carry <= 2^r) never exceeds
 * 2^{w-1} and absorbs the final carry for free; only when w divides
 * bits exactly is an extra carry-only window needed. */
inline unsigned
num_windows(unsigned w, unsigned bits)
{
    unsigned nw = (bits + w - 1) / w;
    if (bits % w == 0) ++nw;
    return nw;
}

/** Modeled Fq muls of one w-bit window over n points: the bucket phase
 * costs ~6 per nonzero digit and the chunked aggregation ~12.5 per
 * bucket. */
inline double
window_cost(size_t n, unsigned w)
{
    return 6.0 * double(n) + 12.5 * double(1u << (w - 1));
}

/** Window widths the cost model searches. A w-bit digit mask needs
 * w < 64, and 2^{w-1} buckets per window must stay bounded. */
constexpr unsigned kMinWindowBits = 2;
constexpr unsigned kMaxWindowBits = 16;

/** Cost-model window choice: minimize
 * nw(w) * window_cost(n, w). */
unsigned
auto_window(size_t n, unsigned bits)
{
    unsigned best_w = kMinWindowBits;
    double best_cost = 0;
    for (unsigned w = kMinWindowBits; w <= kMaxWindowBits; ++w) {
        double cost = double(num_windows(w, bits)) * window_cost(n, w);
        if (best_cost == 0 || cost < best_cost) {
            best_cost = cost;
            best_w = w;
        }
    }
    return best_w;
}

/** Signed-digit recoding of one scalar into a column-major digit matrix
 * (stride = point count, one column per scalar). */
inline void
decompose_signed(const Fr::Repr &r, unsigned w, unsigned nw, int32_t *col,
                 size_t stride)
{
    const int32_t full = int32_t(1) << w;
    const int32_t half = int32_t(1) << (w - 1);
    int32_t carry = 0;
    for (unsigned win = 0; win < nw; ++win) {
        int32_t d = int32_t(digit_at(r, win * w, w)) + carry;
        carry = 0;
        if (d > half) {
            d -= full;
            carry = 1;
        }
        col[size_t(win) * stride] = d;
    }
}

// ---------------------------------------------------------------------------
// GLV endomorphism decomposition.
//
// BLS12-381's G1 carries the cube-root endomorphism phi(x, y) = (beta x, y)
// with beta^3 = 1 in Fq, acting on the r-torsion as multiplication by a
// lambda with lambda^2 + lambda + 1 = r *exactly* (not just mod r, a BLS
// family identity: r = z^4 - z^2 + 1 and lambda = z^2 - 1). That exact
// identity makes the scalar split plain integer division — s = s1 +
// lambda*s2 with s1 = s mod lambda and s2 = s div lambda, both < 2^128 —
// so an n-point 255-bit MSM becomes a 2n-point 128-bit MSM: the bucket
// work is unchanged (2n points, half the windows) but the per-window
// aggregation, inversion and digit-recoding overheads all halve.
//
// Every constant is derived and validated at startup rather than
// transcribed: lambda is found as an order-3 element of Fr* and checked
// against r limb-for-limb, beta as an order-3 element of Fq* checked by
// comparing phi(G) with lambda*G on the actual generator. A failed check
// throws std::logic_error naming it: there is no unsplit fallback.
// ---------------------------------------------------------------------------

struct GlvCtx {
    uint64_t lam[2] = {0, 0};    ///< lambda; lambda^2 + lambda + 1 == r.
    uint64_t recip[2] = {0, 0};  ///< floor(2^255 / lambda).
    Fq beta;                     ///< phi(x, y) = (beta x, y).
};

using u128 = unsigned __int128;

/** 128 x 128 -> 256 bit product on raw limbs. */
inline void
mul_2x2(const uint64_t a[2], const uint64_t b[2], uint64_t out[4])
{
    u128 p00 = u128(a[0]) * b[0];
    u128 p01 = u128(a[0]) * b[1];
    u128 p10 = u128(a[1]) * b[0];
    u128 p11 = u128(a[1]) * b[1];
    out[0] = uint64_t(p00);
    u128 mid = (p00 >> 64) + uint64_t(p01) + uint64_t(p10);
    out[1] = uint64_t(mid);
    u128 hi = (mid >> 64) + (p01 >> 64) + (p10 >> 64) + uint64_t(p11);
    out[2] = uint64_t(hi);
    out[3] = uint64_t((hi >> 64) + (p11 >> 64));
}

/** (m - 1) / 3 when exact; returns false when 3 does not divide m - 1
 * (no order-3 element exists). m is odd (a field modulus). */
template <size_t N>
bool
sub1_div3(ff::BigInt<N> m, ff::BigInt<N> &out)
{
    m.limbs[0] -= 1;  // m odd => no borrow
    uint64_t rem = 0;
    for (size_t i = N; i-- > 0;) {
        u128 cur = (u128(rem) << 64) | m.limbs[i];
        out.limbs[i] = uint64_t(cur / 3);
        rem = uint64_t(cur % 3);
    }
    return rem == 0;
}

/** An element of multiplicative order 3, or zero() when none is found
 * from small bases. */
template <typename F, size_t N>
F
order3_element(const ff::BigInt<N> &exp)
{
    for (uint64_t base : {2, 3, 5, 7, 11, 13}) {
        F t = F::from_uint(base).pow(exp);
        if (!(t == F::one())) return t;
    }
    return F::zero();
}

GlvCtx
build_glv()
{
    GlvCtx g;

    // lambda: an order-3 element of Fr* whose canonical lift satisfies
    // lambda^2 + lambda + 1 == r exactly. Order-3 elements come in
    // pairs {t, t^2} (the two primitive cube roots); only one lift is
    // < 2^128, and the exact-integer check rejects everything else.
    ff::BigInt<Fr::kLimbs> e3r;
    if (!sub1_div3(Fr::kModulus, e3r)) {
        throw std::logic_error("GLV: 3 does not divide r - 1");
    }
    Fr t = order3_element<Fr>(e3r);
    if (t == Fr::zero()) {
        throw std::logic_error("GLV: no element of order 3 in Fr");
    }
    Fr lam_fr = Fr::zero();
    for (Fr cand : {t, t * t}) {
        auto rep = cand.to_repr();
        if (rep.limbs[2] != 0 || rep.limbs[3] != 0) continue;
        uint64_t sq[4];
        mul_2x2(rep.limbs.data(), rep.limbs.data(), sq);
        // sq += lambda + 1, then compare with r.
        u128 c = u128(sq[0]) + rep.limbs[0] + 1;
        sq[0] = uint64_t(c);
        c = (c >> 64) + sq[1] + rep.limbs[1];
        sq[1] = uint64_t(c);
        c = (c >> 64) + sq[2];
        sq[2] = uint64_t(c);
        sq[3] += uint64_t(c >> 64);
        if (sq[0] == Fr::kModulus.limbs[0] &&
            sq[1] == Fr::kModulus.limbs[1] &&
            sq[2] == Fr::kModulus.limbs[2] &&
            sq[3] == Fr::kModulus.limbs[3]) {
            g.lam[0] = rep.limbs[0];
            g.lam[1] = rep.limbs[1];
            lam_fr = cand;
        }
    }
    if (lam_fr == Fr::zero()) {
        throw std::logic_error(
            "GLV: no cube root of unity in Fr lifts to a lambda with "
            "lambda^2 + lambda + 1 == r");
    }

    // recip = floor(2^255 / lambda) by binary long division; must fit
    // 128 bits (i.e. lambda > 2^127) for the split's error bound.
    {
        uint64_t q[3] = {0, 0, 0};
        uint64_t r0 = 0, r1 = 0, r2 = 0;  // remainder < lambda < 2^128
        for (int i = 255; i >= 0; --i) {
            r2 = (r2 << 1) | (r1 >> 63);
            r1 = (r1 << 1) | (r0 >> 63);
            r0 = r0 << 1;
            if (i == 255) r0 |= 1;  // dividend = 2^255
            bool ge = r2 != 0 || r1 > g.lam[1] ||
                      (r1 == g.lam[1] && r0 >= g.lam[0]);
            if (ge) {
                u128 d = u128(r0) - g.lam[0];
                r0 = uint64_t(d);
                d = u128(r1) - g.lam[1] - ((d >> 64) & 1);
                r1 = uint64_t(d);
                r2 -= uint64_t((d >> 64) & 1);
                q[i / 64] |= uint64_t(1) << (i % 64);
            }
        }
        if (q[2] != 0) {
            throw std::logic_error("GLV: floor(2^255 / lambda) exceeds "
                                   "128 bits");
        }
        g.recip[0] = q[0];
        g.recip[1] = q[1];
    }

    // beta: the primitive cube root in Fq for which phi(G) == lambda*G
    // on the actual subgroup generator (the other root corresponds to
    // lambda^2). G1 is cyclic of prime order, so checking the generator
    // proves phi acts as lambda on every subgroup point.
    ff::BigInt<Fq::kLimbs> e3q;
    if (!sub1_div3(Fq::kModulus, e3q)) {
        throw std::logic_error("GLV: 3 does not divide q - 1");
    }
    Fq u = order3_element<Fq>(e3q);
    if (u == Fq::zero()) {
        throw std::logic_error("GLV: no element of order 3 in Fq");
    }
    const G1Affine gen = G1Params::generator();
    const G1 lam_g = G1::from_affine(gen).mul(lam_fr);
    for (Fq cand : {u, u * u}) {
        if (G1::from_affine(G1Affine(cand * gen.x, gen.y)) == lam_g) {
            g.beta = cand;
            return g;
        }
    }
    throw std::logic_error(
        "GLV: no cube root of unity beta in Fq gives phi(G) == lambda * G");
}

const GlvCtx &
glv_ctx()
{
    static const GlvCtx g = build_glv();
    return g;
}

/**
 * Split s (canonical, < r) as s = s1 + lambda * s2 with s1 < lambda —
 * an exact integer identity, so correctness needs nothing mod r.
 *
 * The quotient estimate q^ = floor(s * recip / 2^255) uses recip =
 * 2^255 / lambda - e with 0 <= e < 1, so s * recip / 2^255 = s / lambda
 * - s * e / 2^255, and 0 <= s * e / 2^255 < s / 2^255 < 1 because
 * s < r < 2^255. Hence q^ is floor(s / lambda) or one less, and one
 * conditional step (rem >= lambda: subtract lambda, bump q^) makes
 * s1 = rem < lambda. Then s2 = floor(s / lambda) <= (r - 1) / lambda =
 * lambda + 1 < 2^128.
 */
inline void
glv_split(const Fr::Repr &s, const GlvCtx &g, Fr::Repr &s1, Fr::Repr &s2)
{
    using u128 = unsigned __int128;
    uint64_t p[6] = {0, 0, 0, 0, 0, 0};
    for (int i = 0; i < 4; ++i) {
        u128 carry = 0;
        for (int j = 0; j < 2; ++j) {
            u128 cur = u128(s.limbs[i]) * g.recip[j] + p[i + j] + carry;
            p[i + j] = uint64_t(cur);
            carry = cur >> 64;
        }
        for (int k = i + 2; carry != 0 && k < 6; ++k) {
            u128 cur = u128(p[k]) + carry;
            p[k] = uint64_t(cur);
            carry = cur >> 64;
        }
    }
    uint64_t q0 = (p[3] >> 63) | (p[4] << 1);
    uint64_t q1 = (p[4] >> 63) | (p[5] << 1);

    // rem = s - q^ * lambda < 2 lambda, then the one correction step.
    uint64_t ql[4];
    const uint64_t qhat[2] = {q0, q1};
    mul_2x2(qhat, g.lam, ql);
    uint64_t r4[4];
    u128 borrow = 0;
    for (int i = 0; i < 4; ++i) {
        u128 d = u128(s.limbs[i]) - ql[i] - uint64_t(borrow);
        r4[i] = uint64_t(d);
        borrow = (d >> 64) & 1;
    }
    if (r4[2] != 0 || r4[1] > g.lam[1] ||
        (r4[1] == g.lam[1] && r4[0] >= g.lam[0])) {
        u128 d = u128(r4[0]) - g.lam[0];
        r4[0] = uint64_t(d);
        d = u128(r4[1]) - g.lam[1] - ((d >> 64) & 1);
        r4[1] = uint64_t(d);
        r4[2] -= uint64_t((d >> 64) & 1);
        if (++q0 == 0) ++q1;
    }
    s1 = Fr::Repr(0);
    s1.limbs[0] = r4[0];
    s1.limbs[1] = r4[1];
    s2 = Fr::Repr(0);
    s2.limbs[0] = q0;
    s2.limbs[1] = q1;
}

/** Aggregation switches from the Jacobian running sum to chunked
 * batch-affine chains at this many buckets per window. */
constexpr unsigned kChunkedMinBuckets = 256;
/** Buckets per aggregation chunk (L below). */
constexpr uint32_t kAggChunk = 16;
/** Chunked windows aggregate in groups of up to this many, in lockstep,
 * so one inversion serves the whole group's step. */
constexpr unsigned kAggGroup = 4;

/** The bucket tables of `windows` windows in one allocation: window
 * g's bucket b in 1..half holds val(g)[b] when set(g)[b]. */
class BucketTables
{
  public:
    BucketTables(size_t windows, unsigned half)
        : stride_(size_t(half) + 1), val_(windows * stride_),
          set_(windows * stride_)
    {}

    AffineSlot *val(size_t g) { return val_.data() + g * stride_; }
    const AffineSlot *val(size_t g) const { return val_.data() + g * stride_; }
    uint8_t *set(size_t g) { return set_.data() + g * stride_; }
    const uint8_t *set(size_t g) const { return set_.data() + g * stride_; }

  private:
    size_t stride_;
    std::vector<AffineSlot> val_;
    std::vector<uint8_t> set_;
};

/**
 * Bucket phase of one window: reduce its signed digits into table g of
 * `tables`.
 *
 * Entries stream through in point order against an L2-resident
 * per-bucket waiting slot: the first occupant of a bucket waits, the
 * next one pairs with it (vacating the slot), and pairs accumulate into
 * a pending batch that shares ONE inversion over its slope
 * denominators. Batches are completed every kFlush pairs — small enough
 * that the batch buffers stay cache-resident — and each completed pair
 * feeds straight back into its bucket's waiting slot, where it either
 * waits or pairs again (into the next batch). No sorting, no
 * index-gathers, no result streams: pending work strictly shrinks per
 * feedback generation and whatever rests in the slots at the end IS the
 * bucket table, which the aggregation reads in place.
 */
void
fill_buckets(std::span<const G1Affine> points, const int32_t *col,
             unsigned half, AffineBatch &batch, BucketTables &tables,
             size_t g)
{
    const size_t n = points.size();
    AffineSlot *val = tables.val(g);
    uint8_t *set = tables.set(g);
    std::fill_n(set, size_t(half) + 1, 0);
    constexpr size_t kFlush = 4096;
    // Every pending pair holds two of at most n live points, and a
    // batch is completed once it reaches kFlush; sizing for that up
    // front keeps the batch from growing through discarded buffers.
    batch.reserve(std::min(n / 2 + 1, kFlush));

    // One streamed entry: pair with the bucket's waiting occupant, or
    // become the waiting occupant (a queued pair vacates the slot; a
    // cancelling pair just disappears).
    auto feed = [&](uint32_t b, const AffineSlot &p) {
        if (!set[b]) {
            val[b] = p;
            set[b] = 1;
            return;
        }
        set[b] = 0;
        batch.add(val[b], p, b);
    };

    // Stream the input points in order (signed digits pick the
    // cheaply-negated point), completing the batch whenever it fills,
    // then drain the feedback.
    for (size_t i = 0; i < n; ++i) {
        int32_t d = col[i];
        if (d == 0) continue;
        AffineSlot p{points[i].x, d < 0 ? -points[i].y : points[i].y};
        feed(uint32_t(d < 0 ? -d : d), p);
        if (batch.size() >= kFlush) batch.complete(feed);
    }
    while (!batch.empty()) batch.complete(feed);
}

/** Aggregation of a small window, sum_b b * B_b over its 2^{w-1}
 * buckets: the classic Jacobian running sum. */
G1
running_sum(const AffineSlot *val, const uint8_t *set, unsigned half)
{
    uint32_t top = half;
    while (top > 0 && !set[top]) --top;
    G1 acc = G1::identity();
    G1 window_sum = G1::identity();
    for (uint32_t b = top; b >= 1; --b) {
        if (set[b]) acc = acc.add_mixed(G1Affine(val[b].x, val[b].y));
        window_sum += acc;
    }
    return window_sum;
}

/** Per-worker scratch of the grouped aggregation, reused across groups
 * so buffers are only ever grown. */
struct AggScratch {
    AffineBatch batch;
    std::vector<AffineSlot> chain;
    std::vector<uint8_t> chain_set;
};

/**
 * Chunked batch-affine aggregation of windows [first, first + count) of
 * `tables`, in lockstep.
 *
 * Each window splits its buckets into C chunks of L: with bucket
 * b = c*L + (j+1),
 *   sum_b b * B_b = L * sum_c c*S_c + sum_c T_c,
 * where S_c is chunk c's sum and T_c its local triangle
 * sum_j (j+1)*B_{c,j}. Every chunk's (acc, T) chains advance in
 * lockstep (for j = L-1..0: acc += B_j; T += acc), which gives 2C
 * independent affine additions per step — the dependent "T += acc" of
 * step j fuses with the independent "acc += B_{j-1}" of the next step.
 * All windows of the group take each step together, so the group's
 * L + 1 steps cost L + 1 inversions, not L + 1 per window.
 */
void
aggregate_chunked(const BucketTables &tables, size_t first, size_t count,
                  unsigned half, AggScratch &s, G1 *out)
{
    const uint32_t C = half / kAggChunk;
    const size_t stride = size_t(2) * C;  // per window: acc_c, then T_c
    s.chain.resize(stride * count);
    s.chain_set.assign(stride * count, 0);

    auto chain_add = [&](size_t dst, const AffineSlot &src) {
        if (!s.chain_set[dst]) {
            s.chain[dst] = src;
            s.chain_set[dst] = 1;
            return;
        }
        if (!s.batch.add(s.chain[dst], src, uint32_t(dst))) {
            s.chain_set[dst] = 0;
        }
    };
    auto acc_step = [&](uint32_t j) {  // acc_c += B_{c*L + j + 1}
        for (size_t g = 0; g < count; ++g) {
            const AffineSlot *val = tables.val(first + g);
            const uint8_t *set = tables.set(first + g);
            for (uint32_t c = 0; c < C; ++c) {
                uint32_t b = c * kAggChunk + j + 1;
                if (set[b]) chain_add(g * stride + c, val[b]);
            }
        }
    };
    auto tri_step = [&]() {  // T_c += acc_c (pre-batch value)
        for (size_t g = 0; g < count; ++g) {
            for (uint32_t c = 0; c < C; ++c) {
                size_t a = g * stride + c;
                if (s.chain_set[a]) chain_add(a + C, s.chain[a]);
            }
        }
    };
    auto complete = [&]() {
        s.batch.complete([&](uint32_t dst, const AffineSlot &p) {
            s.chain[dst] = p;
        });
    };

    acc_step(kAggChunk - 1);
    complete();
    for (uint32_t j = kAggChunk - 1; j-- > 0;) {
        tri_step();      // reads acc after step j+1
        acc_step(j);     // writes acc for step j
        complete();
    }
    tri_step();
    complete();

    // Combine per window: hi = sum_c c*S_c via a short Jacobian running
    // sum over the C chunk sums, then window_sum = L*hi + sum_c T_c.
    static_assert((kAggChunk & (kAggChunk - 1)) == 0);
    for (size_t g = 0; g < count; ++g) {
        const AffineSlot *chain = s.chain.data() + g * stride;
        const uint8_t *set = s.chain_set.data() + g * stride;
        G1 racc = G1::identity();
        G1 hi = G1::identity();
        for (uint32_t c = C; c-- > 1;) {
            if (set[c]) racc = racc.add_mixed(G1Affine(chain[c].x, chain[c].y));
            hi += racc;
        }
        for (uint32_t l = kAggChunk; l > 1; l >>= 1) hi = hi.dbl();
        for (uint32_t c = C; c < 2 * C; ++c) {
            if (set[c]) hi = hi.add_mixed(G1Affine(chain[c].x, chain[c].y));
        }
        out[g] = hi;
    }
}

/** Runs one MSM's windows; `adds` collects the affine additions its
 * batches completed. */
G1
pippenger_signed(std::span<const G1Affine> points,
                 std::span<const Fr::Repr> reprs, unsigned w,
                 unsigned bits, std::atomic<uint64_t> &adds)
{
    const size_t n = points.size();
    const unsigned nw = num_windows(w, bits);
    const unsigned half = 1u << (w - 1);

    // Signed-digit recoding, column-major so each window walks a
    // contiguous digit column. Identity points decompose to all-zero
    // columns (they contribute nothing and the affine kernel assumes
    // finite points). Recoding a scalar costs about one modmul's time.
    std::vector<int32_t> digits(size_t(nw) * n);
    ff::parallel_for(n, 1, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
            if (points[i].is_identity()) {
                for (unsigned win = 0; win < nw; ++win) {
                    digits[size_t(win) * n + i] = 0;
                }
                continue;
            }
            decompose_signed(reprs[i], w, nw, digits.data() + i, n);
        }
    });

    // Windows are independent: reduce them in parallel (per-worker
    // scratch), then combine serially MSB-first. Each window's digit
    // column and bucket set are fixed, so its muls do not depend on
    // which chunk (or scratch) runs it.
    std::vector<G1> window_sums(nw, G1::identity());
    if (half < kChunkedMinBuckets) {
        ff::parallel_for(nw, size_t(window_cost(n, w)),
                         [&](size_t win_begin, size_t win_end) {
                             AffineBatch batch;
                             BucketTables t(1, half);
                             for (size_t win = win_begin; win < win_end;
                                  ++win) {
                                 fill_buckets(points, digits.data() + win * n,
                                              half, batch, t, 0);
                                 window_sums[win] =
                                     running_sum(t.val(0), t.set(0), half);
                             }
                             adds += batch.completed();
                         });
    } else {
        // Chunked windows: fill every window's table, then aggregate
        // fixed groups of windows in lockstep. The groups depend only on
        // nw (so on n and w), never on the budget, which keeps the
        // inversion count, and so the Fq muls, budget-independent.
        BucketTables tables(nw, half);
        ff::parallel_for(nw, 6 * n, [&](size_t win_begin, size_t win_end) {
            AffineBatch batch;
            for (size_t win = win_begin; win < win_end; ++win) {
                fill_buckets(points, digits.data() + win * n, half, batch,
                             tables, win);
            }
            adds += batch.completed();
        });
        const size_t groups = (nw + kAggGroup - 1) / kAggGroup;
        auto first = [&](size_t g) { return g * nw / groups; };
        // About 12.5 Fq muls per bucket of each of the group's windows.
        ff::parallel_for(groups, size_t(12.5 * kAggGroup * half),
                         [&](size_t gb, size_t ge) {
                             AggScratch s;
                             for (size_t g = gb; g < ge; ++g) {
                                 aggregate_chunked(
                                     tables, first(g),
                                     first(g + 1) - first(g), half, s,
                                     window_sums.data() + first(g));
                             }
                             adds += s.batch.completed();
                         });
    }

    G1 result = G1::identity();
    for (unsigned win = nw; win-- > 0;) {
        for (unsigned b = 0; b < w; ++b) result = result.dbl();
        result += window_sums[win];
    }
    return result;
}

constexpr unsigned kGlvBits = 128;

G1
pippenger_glv(std::span<const G1Affine> points, std::span<const Fr> scalars,
              const GlvCtx &g, std::atomic<uint64_t> &adds)
{
    const size_t n = points.size();
    // Interleave (P_i, phi(P_i)) so the bucket phase's point stream
    // stays a single sequential read; the matching scalar halves sit at
    // the same indices. phi of the identity is the identity (the digit
    // pass zeroes its columns either way).
    // Per point: one Fq mul for phi, plus the scalar's Montgomery
    // reduction and division (about one mul's time each).
    std::vector<G1Affine> pts2(2 * n);
    std::vector<Fr::Repr> reprs2(2 * n);
    ff::parallel_for(n, 3, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
            pts2[2 * i] = points[i];
            pts2[2 * i + 1] =
                points[i].is_identity()
                    ? points[i]
                    : G1Affine(g.beta * points[i].x, points[i].y);
            glv_split(scalars[i].to_repr(), g, reprs2[2 * i],
                      reprs2[2 * i + 1]);
        }
    });
    return pippenger_signed(pts2, reprs2, auto_window(2 * n, kGlvBits),
                            kGlvBits, adds);
}

/** Size classes of the MSM series: ceil(log2 n) for n up to 2^63. */
constexpr unsigned kSizeClasses = 64;

/**
 * Fold one MSM call into its size class's series, once per call:
 * calls, points, Fq muls (inversions included) and the affine adds
 * completed on IFMA lanes (zero where the portable lanes ran). Handles
 * resolve through a thread-local cache, so registration locks once per
 * class per thread.
 */
void
record_msm(size_t n, uint64_t fq_muls, uint64_t adds)
{
    if (!obs::enabled()) return;
    struct Series {
        obs::MetricId calls, points, fq_muls, ifma_adds;
    };
    thread_local std::array<Series, kSizeClasses> cache;
    const unsigned cls = unsigned(std::bit_width(n - 1));
    Series &h = cache[cls];
    auto &reg = obs::MetricsRegistry::global();
    if (!h.calls.valid()) {
        const obs::LabelSet labels = {{"size_class", std::to_string(cls)}};
        h.calls = reg.counter("zkspeed_msm_calls_total", labels,
                              "curve::msm calls per ceil(log2 n) class");
        h.points = reg.counter("zkspeed_msm_points_total", labels,
                               "curve::msm input points per size class");
        h.fq_muls = reg.counter("zkspeed_msm_fq_muls_total", labels,
                                "Fq muls inside curve::msm per size class");
        h.ifma_adds = reg.counter(
            "zkspeed_msm_ifma_adds_total", labels,
            "Batch-affine adds completed on IFMA lanes per size class");
    }
    reg.add(h.calls);
    reg.add(h.points, n);
    reg.add(h.fq_muls, fq_muls);
    if (ff::lane_kernel() == ff::LaneKernel::ifma8) reg.add(h.ifma_adds, adds);
}

}  // namespace

void
detail::glv_split(const Fr::Repr &s, Fr::Repr &s1, Fr::Repr &s2)
{
    glv_split(s, glv_ctx(), s1, s2);
}

G1
msm(std::span<const G1Affine> points, std::span<const Fr> scalars)
{
    if (points.size() != scalars.size()) {
        throw MsmSizeError("curve::msm", points.size(), scalars.size());
    }
    if (points.empty()) return G1::identity();
    // Validated on the first call of any size, so a one-point warm-up
    // also pays the one-off cost and a failed check throws at once.
    const GlvCtx &g = glv_ctx();
    const ff::ModmulScope muls;
    std::atomic<uint64_t> adds{0};
    G1 result;
    if (points.size() > 1) {
        result = pippenger_glv(points, scalars, g, adds);
    } else {
        // A single point keeps its 255-bit digits: alone it never pairs
        // in a bucket, so it pays no inversion, while the split's P and
        // phi(P) pair wherever their digits meet and pay one inversion
        // per pair (10,272 Fq muls against 3,978).
        const Fr::Repr r = scalars[0].to_repr();
        result = pippenger_signed(points, std::span(&r, 1),
                                  auto_window(1, Fr::kBits), Fr::kBits, adds);
    }
    record_msm(points.size(), muls.fq_delta(), adds);
    return result;
}

namespace {

/** Points per tree_sum block. A power of two, so the blocked tree pairs
 * exactly the points the one-tree order would (see tree_sum). */
constexpr size_t kTreeBlock = 256;

/** Pairwise tree over Jacobian partial sums: adjacent pairs, an odd tail
 * carried up a level. */
G1
tree_reduce(std::vector<G1> level)
{
    while (level.size() > 1) {
        size_t half = (level.size() + 1) / 2;
        for (size_t i = 0; i < level.size() / 2; ++i) {
            level[i] = level[2 * i].add(level[2 * i + 1]);
        }
        if (level.size() % 2) level[half - 1] = level.back();
        level.resize(half);
    }
    return level[0];
}

/** One block's tree: pairwise mixed adds from the affine inputs, then
 * Jacobian levels. */
G1
block_tree_sum(std::span<const G1Affine> points)
{
    std::vector<G1> level;
    level.reserve((points.size() + 1) / 2);
    for (size_t i = 0; i + 1 < points.size(); i += 2) {
        level.push_back(G1::from_affine(points[i]).add_mixed(points[i + 1]));
    }
    if (points.size() % 2) level.push_back(G1::from_affine(points.back()));
    return tree_reduce(std::move(level));
}

}  // namespace

G1
tree_sum(std::span<const G1Affine> points)
{
    if (points.empty()) return G1::identity();
    // Level j of the one-tree order holds the sums of the aligned
    // 2^j-point ranges (the last one short), so for a power-of-two block
    // size the block trees are exactly its lower levels and tree_reduce
    // over the block sums its upper ones: the same adds on the same
    // operands at any budget. The blocks run in parallel.
    const size_t blocks = (points.size() + kTreeBlock - 1) / kTreeBlock;
    std::vector<G1> sums(blocks);
    // About one mixed and one full add per point.
    ff::parallel_for(blocks, 27 * kTreeBlock, [&](size_t cb, size_t ce) {
        for (size_t c = cb; c < ce; ++c) {
            const size_t begin = c * kTreeBlock;
            sums[c] = block_tree_sum(points.subspan(
                begin, std::min(kTreeBlock, points.size() - begin)));
        }
    });
    return tree_reduce(std::move(sums));
}

G1
msm_sparse(std::span<const G1Affine> points, std::span<const Fr> scalars,
           MsmStats *stats)
{
    if (points.size() != scalars.size()) {
        throw MsmSizeError("curve::msm_sparse", points.size(),
                           scalars.size());
    }
    MsmStats st;
    std::vector<G1Affine> one_points;
    std::vector<G1Affine> dense_points;
    std::vector<Fr> dense_scalars;
    const Fr one = Fr::one();
    for (size_t i = 0; i < points.size(); ++i) {
        if (scalars[i].is_zero()) {
            ++st.zeros;
        } else if (scalars[i] == one) {
            ++st.ones;
            one_points.push_back(points[i]);
        } else {
            ++st.dense;
            dense_points.push_back(points[i]);
            dense_scalars.push_back(scalars[i]);
        }
    }
    if (stats != nullptr) *stats = st;
    G1 result = tree_sum(one_points);
    if (!dense_points.empty()) {
        result += msm(dense_points, dense_scalars);
    }
    return result;
}

G1
msm_naive(std::span<const G1Affine> points, std::span<const Fr> scalars)
{
    if (points.size() != scalars.size()) {
        throw MsmSizeError("curve::msm_naive", points.size(),
                           scalars.size());
    }
    G1 acc = G1::identity();
    for (size_t i = 0; i < points.size(); ++i) {
        acc += G1::from_affine(points[i]).mul(scalars[i]);
    }
    return acc;
}

}  // namespace zkspeed::curve
