#include "curve/batch_affine.hpp"

#include <algorithm>

#include "ff/batch_inverse.hpp"
#include "ff/lanes8.hpp"
#include "ff/parallel.hpp"

namespace zkspeed::curve {

using ff::Fq;
using ff::Fr;

namespace {

using detail::PendingAdd;

constexpr unsigned kLanes = ff::kLanes;

/** The sums of the adds at pend[0 .. lanes) given their inverted
 * denominators, written over x1 and y1: 3 muls per add. */
template <typename Lanes>
[[gnu::always_inline]] inline void
sums(PendingAdd *pend, const typename Lanes::V &inv, unsigned lanes)
{
    using P = PendingAdd;
    const auto lambda =
        Lanes::mul(Lanes::load(pend, &P::num, lanes), inv, lanes);
    const auto x3 = Lanes::sub(Lanes::mul(lambda, lambda, lanes),
                               Lanes::load(pend, &P::sum_x, lanes));
    const auto y3 = Lanes::sub(
        Lanes::mul(lambda, Lanes::sub(Lanes::load(pend, &P::x1, lanes), x3),
                   lanes),
        Lanes::load(pend, &P::y1, lanes));
    Lanes::store(pend, &P::x1, x3, lanes);
    Lanes::store(pend, &P::y1, y3, lanes);
}

/**
 * Montgomery's trick as 8 interleaved chains, then every sum. With
 * m = 8g + t, lane c's chain runs over dens[8i + c] for i < g and a
 * scalar chain runs over the t tail entries. The k chain totals (k = 8,
 * or 9 when t > 0; k = 1 when g = 0) are combined and inverted once,
 * and each chain then peels its own inverses off its prefix products.
 * Muls: 8(g - 1) + (t - 1) for the prefixes, k - 1 to combine, one
 * inversion, 2(k - 1) to split it, and 2 * 8(g - 1) + 2(t - 1) to peel,
 * 3m - 3 in all (a missing tail chain drops its three t - 1 terms) —
 * the count of one chain over all m. Group g's inverses come out of the
 * peel in registers and feed its sums directly.
 */
template <typename Lanes>
[[gnu::always_inline]] inline void
finish_on(std::span<PendingAdd> pend, std::span<Fq> dens, Fq *prefix)
{
    const size_t m = dens.size();
    const size_t groups = m / kLanes;
    const size_t tail = groups * kLanes;  // first entry of the tail chain

    Fq tot[kLanes + 1];  // chain totals, then their inverses
    size_t k = 0;
    if (groups > 0) {
        auto acc = Lanes::load(&dens[0], kLanes);
        for (size_t g = 1; g < groups; ++g) {
            Lanes::store(prefix + (g - 1) * kLanes, acc, kLanes);
            acc = Lanes::mul(acc, Lanes::load(&dens[g * kLanes], kLanes),
                             kLanes);
        }
        Lanes::store(tot, acc, kLanes);
        k = kLanes;
    }
    if (tail < m) {
        prefix[tail] = dens[tail];
        for (size_t j = tail + 1; j < m; ++j) {
            prefix[j] = prefix[j - 1] * dens[j];
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

    if (tail < m) {
        Fq t_inv = tot[k - 1];
        for (size_t j = m; --j > tail;) {
            const Fq x_inv = t_inv * prefix[j - 1];
            t_inv = t_inv * dens[j];
            dens[j] = x_inv;
        }
        dens[tail] = t_inv;
        sums<Lanes>(&pend[tail], Lanes::load(&dens[tail], m - tail),
                    unsigned(m - tail));
    }
    if (groups > 0) {
        auto g_inv = Lanes::load(tot, kLanes);
        for (size_t g = groups; g-- > 1;) {
            const auto x_inv = Lanes::mul(
                g_inv, Lanes::load(prefix + (g - 1) * kLanes, kLanes),
                kLanes);
            g_inv = Lanes::mul(
                g_inv, Lanes::load(&dens[g * kLanes], kLanes), kLanes);
            sums<Lanes>(&pend[g * kLanes], x_inv, kLanes);
        }
        sums<Lanes>(&pend[0], g_inv, kLanes);
    }
}

#if ZKSPEED_IFMA_KERNEL
ZKSPEED_IFMA_TARGET void
finish_ifma(std::span<PendingAdd> pend, std::span<Fq> dens, Fq *prefix)
{
    finish_on<ff::IfmaLanes>(pend, dens, prefix);
}
#endif

}  // namespace

void
detail::finish_adds(std::span<PendingAdd> pend, std::span<Fq> dens,
                    Fq *prefix)
{
    // Every denominator is nonzero by construction (see
    // AffineBatch::add), so no zero-skip is needed.
#if ZKSPEED_IFMA_KERNEL
    if (ff::lane_kernel() == ff::LaneKernel::ifma8) {
        finish_ifma(pend, dens, prefix);
        return;
    }
#endif
    finish_on<ff::PortableLanes>(pend, dens, prefix);
}

std::vector<G1Affine>
pairwise_sums(std::span<const G1Affine> pts)
{
    std::vector<G1Affine> out(pts.size() / 2);
    AffineBatch batch;
    for (size_t b = 0; b < out.size(); ++b) {
        const G1Affine &p = pts[2 * b];
        const G1Affine &q = pts[2 * b + 1];
        if (p.is_identity() || q.is_identity()) {
            out[b] = p.is_identity() ? q : p;
        } else {
            batch.add({p.x, p.y}, {q.x, q.y}, uint32_t(b));
        }
    }
    batch.complete([&](uint32_t b, const AffineSlot &s) {
        out[b] = G1Affine(s.x, s.y);
    });
    return out;
}

namespace {

constexpr unsigned kWindowBits = 8;
constexpr unsigned kWindows = (Fr::kBits + kWindowBits - 1) / kWindowBits;
constexpr uint32_t kDigits = (1u << kWindowBits) - 1;  ///< nonzero digits

/** Scalars per lockstep block: one inversion per window per block. */
constexpr size_t kBlock = 1024;

/** p + q for points with p.x != q.x, given 1 / (q.x - p.x). */
AffineSlot
add_distinct(const AffineSlot &p, const AffineSlot &q, const Fq &inv_dx)
{
    Fq lambda = (q.y - p.y) * inv_dx;
    Fq x3 = lambda.square() - p.x - q.x;
    return {x3, lambda * (p.x - x3) - p.y};
}

/**
 * Every window's nonzero multiples: entry w * kDigits + (d - 1) is
 * d * 2^{8w} * base. Multiples 1 and 2 of each window base come from
 * Jacobian doublings and one normalisation. With multiples 1..k known,
 * a round derives d in (k, 2k - 1] as entry[d - k] + entry[k], all
 * windows behind one inversion; k runs 2, 3, 5, ..., 129, so 8 rounds
 * reach 255. The operands are distinct multiples below 2^8 of a point
 * of prime order, so their x differ.
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
    std::vector<Fq> dens;
    dens.reserve(size_t(kWindows) * kDigits / 2);  // the largest round
    for (uint32_t k = 2; k < kDigits; k = 2 * k - 1) {
        const uint32_t top = std::min(2 * k - 1, kDigits);
        dens.clear();
        for (unsigned w = 0; w < kWindows; ++w) {
            const AffineSlot *row = table.data() + size_t(w) * kDigits;
            for (uint32_t d = k + 1; d <= top; ++d) {
                dens.push_back(row[k - 1].x - row[d - k - 1].x);
            }
        }
        ff::batch_inverse(dens);
        size_t j = 0;
        for (unsigned w = 0; w < kWindows; ++w) {
            AffineSlot *row = table.data() + size_t(w) * kDigits;
            for (uint32_t d = k + 1; d <= top; ++d) {
                row[d - 1] =
                    add_distinct(row[d - k - 1], row[k - 1], dens[j++]);
            }
        }
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
        std::vector<uint32_t> live;
        std::vector<Fq> dens;
        for (size_t c = cb; c < ce; ++c) {
            const size_t begin = c * kBlock;
            const size_t len = std::min(kBlock, n - begin);
            reprs.resize(len);
            for (size_t i = 0; i < len; ++i) {
                reprs[i] = scalars[begin + i].to_repr();
            }
            acc.resize(len);
            set.assign(len, 0);
            auto entry = [&](size_t i, unsigned w) -> const AffineSlot * {
                const unsigned off = w * kWindowBits;
                const uint32_t d =
                    (reprs[i].limbs[off / 64] >> (off % 64)) & kDigits;
                return d == 0 ? nullptr
                              : &table[size_t(w) * kDigits + d - 1];
            };
            // Window w adds t = d * 2^{8w} * base to acc = a * base with
            // 0 < a < 2^{8w} <= d * 2^{8w} and a + d * 2^{8w} <= k < r,
            // so a != +-d * 2^{8w} mod r: the two x differ, and each
            // chain's add is a plain slope add with a nonzero
            // denominator. The step's adds share one inversion.
            for (unsigned w = 0; w < kWindows; ++w) {
                live.clear();
                dens.clear();
                for (size_t i = 0; i < len; ++i) {
                    const AffineSlot *t = entry(i, w);
                    if (t == nullptr) continue;
                    if (!set[i]) {
                        acc[i] = *t;
                        set[i] = 1;
                        continue;
                    }
                    live.push_back(uint32_t(i));
                    dens.push_back(t->x - acc[i].x);
                }
                ff::batch_inverse(dens);
                for (size_t j = 0; j < live.size(); ++j) {
                    AffineSlot &a = acc[live[j]];
                    a = add_distinct(a, *entry(live[j], w), dens[j]);
                }
            }
            for (size_t i = 0; i < len; ++i) {
                if (set[i]) out[begin + i] = G1Affine(acc[i].x, acc[i].y);
            }
        }
    });
    return out;
}

}  // namespace zkspeed::curve
