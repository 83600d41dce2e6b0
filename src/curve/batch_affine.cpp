#include "curve/batch_affine.hpp"

#include <algorithm>

#include "ff/lanes8.hpp"
#include "ff/parallel.hpp"

namespace zkspeed::curve {

using ff::Fq;
using ff::Fr;

namespace {

using Queued = AffineBatch::Queued;
using Storage = AffineBatch::Storage;

constexpr unsigned kLanes = ff::kLanes;

/** One lane set of queued adds: x1, y1 (sign applied), the slope's
 * denominator and numerator, and x1 + x2. */
template <typename Lanes>
struct Operands {
    typename Lanes::V x1, y1, den, num, sx;
};

/**
 * Gather the operands of q[0 .. lanes) and form den = x2 - x1 (2 y1
 * for a doubling); with kSums also x1, y1, num = y2 - y1 (3 x1^2,
 * one counted mul) and sx = x1 + x2 (2 x1). A lane set holding a
 * doubling takes the scalar form; the others form in lanes.
 */
template <typename Lanes, bool kSums>
[[gnu::always_inline]] inline void
gather(const Storage &s, const Queued *q, unsigned lanes, Operands<Lanes> &o)
{
    const Fq *x1p[kLanes], *y1p[kLanes], *x2p[kLanes], *y2p[kLanes];
    unsigned neg1 = 0, neg2 = 0;
    bool doubling = false;
    for (unsigned c = 0; c < kLanes; ++c) {
        const Queued &e = q[c < lanes ? c : 0];  // dead lanes repeat lane 0
        x1p[c] = s.x(e.a);
        y1p[c] = x1p[c] + 1;
        x2p[c] = s.x(e.b);
        y2p[c] = x2p[c] + 1;
        neg1 |= unsigned((e.a & AffineBatch::kNegBit) != 0) << c;
        neg2 |= unsigned((e.b & AffineBatch::kNegBit) != 0) << c;
        doubling |= c < lanes && e.doubling();
    }
    if (!doubling) {
        o.x1 = Lanes::load(x1p, lanes);
        const auto x2 = Lanes::load(x2p, lanes);
        o.den = Lanes::sub(x2, o.x1);
        if constexpr (kSums) {
            o.y1 = Lanes::neg(Lanes::load(y1p, lanes), neg1);
            o.num = Lanes::sub(Lanes::neg(Lanes::load(y2p, lanes), neg2),
                               o.y1);
            o.sx = Lanes::add(o.x1, x2);
        }
        return;
    }
    Fq x1[kLanes], y1[kLanes], den[kLanes], num[kLanes], sx[kLanes];
    for (unsigned c = 0; c < lanes; ++c) {
        x1[c] = *x1p[c];
        y1[c] = s.y(q[c].a);
        if (q[c].doubling()) {
            den[c] = y1[c].dbl();
            if constexpr (kSums) {
                const Fq x_sq = x1[c].square();
                num[c] = x_sq.dbl() + x_sq;
                sx[c] = x1[c].dbl();
            }
            continue;
        }
        den[c] = *x2p[c] - x1[c];
        if constexpr (kSums) {
            num[c] = s.y(q[c].b) - y1[c];
            sx[c] = x1[c] + *x2p[c];
        }
    }
    o.den = Lanes::load(den, lanes);
    if constexpr (kSums) {
        o.x1 = Lanes::load(x1, lanes);
        o.y1 = Lanes::load(y1, lanes);
        o.num = Lanes::load(num, lanes);
        o.sx = Lanes::load(sx, lanes);
    }
}

/** The sums of q[0 .. lanes) given their inverted denominators, written
 * over their dst slots: lambda = num / den, x3 = lambda^2 - (x1 + x2),
 * y3 = lambda (x1 - x3) - y1. 3 muls per add. */
template <typename Lanes>
[[gnu::always_inline]] inline void
sums(const Storage &s, const Queued *q, const Operands<Lanes> &o,
     const typename Lanes::V &inv, unsigned lanes)
{
    const auto lambda = Lanes::mul(o.num, inv, lanes);
    const auto x3 = Lanes::sub(Lanes::mul(lambda, lambda, lanes), o.sx);
    const auto y3 =
        Lanes::sub(Lanes::mul(lambda, Lanes::sub(o.x1, x3), lanes), o.y1);
    Fq *xp[kLanes], *yp[kLanes];
    for (unsigned c = 0; c < kLanes; ++c) {
        AffineSlot &d = s.slots[q[c < lanes ? c : 0].dst()];
        xp[c] = &d.x;
        yp[c] = &d.y;
    }
    Lanes::store(xp, x3, lanes);
    Lanes::store(yp, y3, lanes);
}

/**
 * Montgomery's trick as 8 interleaved chains, then every sum. With
 * m = 8g + t, lane c's chain runs over the denominators of adds 8i + c
 * for i < g and a scalar chain runs over the t tail adds. The k chain
 * totals (k = 8, or 9 when t > 0; k = 1 when g = 0) are combined and
 * inverted once, and each chain then peels its own inverses off its
 * prefix products. Muls: 8(g - 1) + (t - 1) for the prefixes, k - 1 to
 * combine, one inversion, 2(k - 1) to split it, and 2 * 8(g - 1) +
 * 2(t - 1) to peel, 3m - 3 in all (a missing tail chain drops its three
 * t - 1 terms) — the count of one chain over all m. The peel runs from
 * the last add to the first; it gathers each lane set's operands again,
 * re-forms its denominators and feeds the inverses it peels, still in
 * registers, to that set's sums.
 */
template <typename Lanes>
[[gnu::always_inline]] inline void
finish_on(const Storage &s, const Queued *q, size_t m, Fq *prefix)
{
    const size_t groups = m / kLanes;
    const size_t tail = groups * kLanes;  // first add of the tail chain
    const unsigned t = unsigned(m - tail);
    Operands<Lanes> o;

    Fq tot[kLanes + 1];  // chain totals, then their inverses
    size_t k = 0;
    if (groups > 0) {
        gather<Lanes, false>(s, q, kLanes, o);
        auto acc = o.den;
        for (size_t g = 1; g < groups; ++g) {
            Lanes::store(prefix + (g - 1) * kLanes, acc, kLanes);
            gather<Lanes, false>(s, q + g * kLanes, kLanes, o);
            acc = Lanes::mul(acc, o.den, kLanes);
        }
        Lanes::store(tot, acc, kLanes);
        k = kLanes;
    }
    Fq tail_den[kLanes];  // the tail's denominators, then their inverses
    if (t > 0) {
        gather<Lanes, false>(s, q + tail, t, o);
        Lanes::store(tail_den, o.den, t);
        prefix[tail] = tail_den[0];
        for (size_t j = 1; j < t; ++j) {
            prefix[tail + j] = prefix[tail + j - 1] * tail_den[j];
        }
        tot[k++] = prefix[m - 1];
    }

    Fq comb[kLanes + 1];
    comb[0] = tot[0];
    for (size_t i = 1; i < k; ++i) comb[i] = comb[i - 1] * tot[i];
    Fq inv = comb[k - 1].inverse();
    for (size_t i = k; i-- > 1;) {
        const Fq inv_i = inv * comb[i - 1];
        inv = inv * tot[i];
        tot[i] = inv_i;
    }
    tot[0] = inv;

    if (t > 0) {
        Fq t_inv = tot[k - 1];
        for (size_t j = t; --j > 0;) {
            const Fq x_inv = t_inv * prefix[tail + j - 1];
            t_inv = t_inv * tail_den[j];
            tail_den[j] = x_inv;
        }
        tail_den[0] = t_inv;
        gather<Lanes, true>(s, q + tail, t, o);
        sums<Lanes>(s, q + tail, o, Lanes::load(tail_den, t), t);
    }
    if (groups > 0) {
        auto g_inv = Lanes::load(tot, kLanes);
        for (size_t g = groups; g-- > 1;) {
            gather<Lanes, true>(s, q + g * kLanes, kLanes, o);
            const auto x_inv = Lanes::mul(
                g_inv, Lanes::load(prefix + (g - 1) * kLanes, kLanes),
                kLanes);
            g_inv = Lanes::mul(g_inv, o.den, kLanes);
            sums<Lanes>(s, q + g * kLanes, o, x_inv, kLanes);
        }
        gather<Lanes, true>(s, q, kLanes, o);
        sums<Lanes>(s, q, o, g_inv, kLanes);
    }
}

#if ZKSPEED_IFMA_KERNEL
ZKSPEED_IFMA_TARGET void
finish_ifma(const Storage &s, const Queued *q, size_t m, Fq *prefix)
{
    finish_on<ff::IfmaLanes>(s, q, m, prefix);
}
#endif

}  // namespace

void
AffineBatch::finish()
{
    // Every denominator is nonzero by construction (see add()), so no
    // zero-skip is needed.
#if ZKSPEED_IFMA_KERNEL
    if (ff::lane_kernel() == ff::LaneKernel::ifma8) {
        finish_ifma(s_, q_.data(), n_, prefix_.data());
        return;
    }
#endif
    finish_on<ff::PortableLanes>(s_, q_.data(), n_, prefix_.data());
}

std::vector<G1Affine>
pairwise_sums(std::span<const G1Affine> pts)
{
    std::vector<G1Affine> out(pts.size() / 2);
    std::vector<AffineSlot> sums(out.size());
    AffineBatch batch;
    batch.bind(pts, std::span(sums));
    for (size_t b = 0; b < out.size(); ++b) {
        const G1Affine &p = pts[2 * b];
        const G1Affine &q = pts[2 * b + 1];
        if (p.is_identity() || q.is_identity()) {
            out[b] = p.is_identity() ? q : p;
        } else {
            batch.add(AffineBatch::input(2 * b), AffineBatch::input(2 * b + 1),
                      uint32_t(b));
        }
    }
    batch.complete([&](const Queued &q) {
        out[q.dst()] = G1Affine(sums[q.dst()].x, sums[q.dst()].y);
    });
    return out;
}

namespace {

constexpr unsigned kWindowBits = 8;
constexpr unsigned kWindows = (Fr::kBits + kWindowBits - 1) / kWindowBits;
constexpr uint32_t kDigits = (1u << kWindowBits) - 1;  ///< nonzero digits

/** Scalars per lockstep block: one inversion per window per block. */
constexpr size_t kBlock = 1024;

/**
 * Every window's nonzero multiples: entry w * kDigits + (d - 1) is
 * d * 2^{8w} * base. Multiples 1 and 2 of each window base come from
 * Jacobian doublings and one normalisation. With multiples 1..k known,
 * a round derives d in (k, 2k - 1] as entry[d - k] + entry[k] in place
 * in the table, all windows behind one inversion; k runs 2, 3, 5, ...,
 * 129, so 8 rounds reach 255. The operands are distinct multiples below
 * 2^8 of a point of prime order, so their x differ.
 */
std::vector<AffineSlot>
window_table(const G1Affine &base)
{
    std::vector<G1> jac(2 * kWindows);
    G1 b = G1::from_affine(base);
    for (unsigned w = 0; w < kWindows; ++w) {
        jac[2 * w] = b;
        jac[2 * w + 1] = b.dbl();
        for (unsigned i = 0; i < kWindowBits; ++i) b = b.dbl();
    }
    const auto low = batch_to_affine<G1Params>(std::span<const G1>(jac));
    std::vector<AffineSlot> table(size_t(kWindows) * kDigits);
    for (unsigned w = 0; w < kWindows; ++w) {
        for (unsigned d = 1; d <= 2; ++d) {
            const G1Affine &p = low[2 * w + d - 1];
            table[size_t(w) * kDigits + d - 1] = {p.x, p.y};
        }
    }
    AffineBatch batch;
    batch.reserve(size_t(kWindows) * kDigits / 2);  // the largest round
    batch.bind(std::span<const AffineSlot>(table), std::span(table));
    using B = AffineBatch;
    for (uint32_t k = 2; k < kDigits; k = 2 * k - 1) {
        const uint32_t top = std::min(2 * k - 1, kDigits);
        for (unsigned w = 0; w < kWindows; ++w) {
            const size_t row = size_t(w) * kDigits;
            for (uint32_t d = k + 1; d <= top; ++d) {
                batch.add(B::slot(row + d - k - 1), B::slot(row + k - 1),
                          uint32_t(row + d - 1));
            }
        }
        batch.complete();
    }
    return table;
}

}  // namespace

std::vector<G1Affine>
fixed_base_mul(const G1Affine &base, std::span<const Fr> scalars)
{
    const size_t n = scalars.size();
    std::vector<G1Affine> out(n);
    if (n == 0 || base.is_identity()) return out;
    const std::vector<AffineSlot> table = window_table(base);
    const size_t blocks = (n + kBlock - 1) / kBlock;
    // A block costs ~6 Fq muls per scalar per window.
    ff::parallel_for(blocks, 6 * kWindows * kBlock, [&](size_t cb, size_t ce) {
        std::vector<Fr::Repr> reprs;
        std::vector<AffineSlot> acc;
        std::vector<uint8_t> set;
        AffineBatch batch;
        for (size_t c = cb; c < ce; ++c) {
            const size_t begin = c * kBlock;
            const size_t len = std::min(kBlock, n - begin);
            reprs.resize(len);
            for (size_t i = 0; i < len; ++i) {
                reprs[i] = scalars[begin + i].to_repr();
            }
            acc.resize(len);
            set.assign(len, 0);
            batch.reserve(len);
            batch.bind(std::span(table), std::span(acc));
            // Window w adds t = d * 2^{8w} * base to acc = a * base with
            // 0 < a < 2^{8w} <= d * 2^{8w} and a + d * 2^{8w} <= k < r,
            // so a != +-d * 2^{8w} mod r: the two x differ, and each
            // chain's add is a plain slope add with a nonzero
            // denominator. The step's adds share one inversion and
            // overwrite their accumulators in place.
            for (unsigned w = 0; w < kWindows; ++w) {
                const unsigned off = w * kWindowBits;
                for (size_t i = 0; i < len; ++i) {
                    const uint32_t d =
                        (reprs[i].limbs[off / 64] >> (off % 64)) & kDigits;
                    if (d == 0) continue;
                    const size_t entry = size_t(w) * kDigits + d - 1;
                    if (!set[i]) {
                        acc[i] = table[entry];
                        set[i] = 1;
                        continue;
                    }
                    batch.add(AffineBatch::slot(i), AffineBatch::input(entry),
                              uint32_t(i));
                }
                batch.complete();
            }
            for (size_t i = 0; i < len; ++i) {
                if (set[i]) out[begin + i] = G1Affine(acc[i].x, acc[i].y);
            }
        }
    });
    return out;
}

}  // namespace zkspeed::curve
