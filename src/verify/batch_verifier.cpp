#include "verify/batch_verifier.hpp"

#include <chrono>
#include <span>

#include "curve/msm.hpp"
#include "curve/pairing.hpp"

namespace zkspeed::verifier {

namespace {

using curve::G1;
using curve::G1Affine;
using curve::G2Affine;
using curve::G2Prepared;
using ff::Fr;

/**
 * The one folded pairing check, shared by PairingAccumulator::check(),
 * the full batch and the bisection probes: all terms of the selected
 * items, each scaled by its item's weight, grouped onto the
 * pre-collected distinct G2 points. With no weights (a single
 * accumulator) every weight is one, so the fold multiplies no scalar.
 */
struct Fold {
    std::span<const PairingAccumulator> items;
    /** One weight per item, or empty for unit weights. */
    std::span<const Fr> rho;
    /** Distinct G2 points across all items, prepared once. */
    std::vector<G2Affine> g2s;
    std::vector<G2Prepared> prepared;
    /** Per item: its local G2 indices (Term::g2) mapped into g2s. */
    std::vector<std::vector<size_t>> slot;

    Fold(std::span<const PairingAccumulator> items_in,
         std::span<const Fr> rho_in)
        : items(items_in), rho(rho_in)
    {
        slot.resize(items.size());
        for (size_t i = 0; i < items.size(); ++i) {
            for (const auto &q : items[i].g2_points()) {
                slot[i].push_back(find_or_add_g2(g2s, q));
            }
        }
        prepared.reserve(g2s.size());
        for (const auto &q : g2s) prepared.push_back(prepare_g2(q));
    }

    /** Check prod over items in [begin, end) of product_i^{rho_i} == 1:
     * one MSM per G2 group, except that a group whose only term has
     * scalar one adds its base as is, then one multi-pairing. */
    bool
    check(size_t begin, size_t end, BatchStats &stats) const
    {
        std::vector<std::vector<G1Affine>> bases(g2s.size());
        std::vector<std::vector<Fr>> scalars(g2s.size());
        size_t points = 0;
        for (size_t i = begin; i < end; ++i) {
            const auto &terms = items[i].terms();
            for (size_t j = 0; j < terms.size(); ++j) {
                size_t gi = slot[i][terms[j].g2];
                bases[gi].push_back(terms[j].base);
                scalars[gi].push_back(rho.empty() ? terms[j].scalar
                                                  : rho[i] * terms[j].scalar);
                ++points;
            }
        }
        std::vector<G1> sums;
        std::vector<G2Prepared> qs;
        sums.reserve(g2s.size());
        qs.reserve(g2s.size());
        for (size_t gi = 0; gi < g2s.size(); ++gi) {
            if (bases[gi].empty()) continue;
            if (bases[gi].size() == 1 && scalars[gi][0].is_one()) {
                sums.push_back(G1::from_affine(bases[gi][0]));
            } else {
                sums.push_back(curve::msm(bases[gi], scalars[gi]));
            }
            qs.push_back(prepared[gi]);
        }
        auto ps = curve::batch_to_affine<curve::G1Params>(sums);
        ++stats.pairing_checks;
        // Every check — full batch or bisection probe — folds its own
        // MSMs, so the stats accumulate across probes; otherwise a
        // poisoned batch's replay would charge the probes' pairings to
        // the CPU while omitting their MSMs from the chip side,
        // inflating the modelled verify speedup.
        stats.msm_points += points;
        stats.num_pairings += qs.size();
        auto t0 = std::chrono::steady_clock::now();
        bool ok = curve::pairing_product_is_one(ps, qs);
        stats.pairing_ms +=
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        return ok;
    }
};

/** Group-test [begin, end): mark verdicts, recursing into bad halves. */
void
bisect(const Fold &fold, size_t begin, size_t end,
       std::vector<bool> &verdicts, BatchStats &stats)
{
    if (begin >= end) return;
    ++stats.bisection_steps;
    if (fold.check(begin, end, stats)) {
        for (size_t i = begin; i < end; ++i) verdicts[i] = true;
        return;
    }
    if (end - begin == 1) {
        verdicts[begin] = false;
        return;
    }
    size_t mid = begin + (end - begin) / 2;
    bisect(fold, begin, mid, verdicts, stats);
    bisect(fold, mid, end, verdicts, stats);
}

}  // namespace

bool
PairingAccumulator::check(BatchStats *stats) const
{
    if (terms_.empty()) return true;
    BatchStats local;
    return Fold(std::span(this, 1), {}).check(0, 1,
                                              stats ? *stats : local);
}

size_t
BatchVerifier::add(PairingAccumulator acc)
{
    items_.push_back(std::move(acc));
    return items_.size() - 1;
}

BatchResult
BatchVerifier::flush()
{
    BatchResult result;
    result.verdicts.assign(items_.size(), false);
    if (items_.empty()) return result;

    // Fiat-Shamir weights: bind every accumulator before deriving any
    // weight, so no proof can be chosen after seeing its rho.
    hash::Transcript tr("zkspeed-batch-verify-v1");
    tr.append_fr("batch_size", Fr::from_uint(items_.size()));
    for (const auto &item : items_) item.bind(tr);
    std::vector<Fr> rho = tr.challenge_frs("batch_rho", items_.size());

    Fold fold(items_, rho);
    if (fold.check(0, items_.size(), result.stats)) {
        result.verdicts.assign(items_.size(), true);
    } else if (items_.size() == 1) {
        result.verdicts[0] = false;
    } else {
        // Group-test halves; the prepared G2 coefficients are re-used by
        // every probe, so each probe costs one MSM + one multi-pairing.
        size_t mid = items_.size() / 2;
        bisect(fold, 0, mid, result.verdicts, result.stats);
        bisect(fold, mid, items_.size(), result.verdicts, result.stats);
    }
    items_.clear();
    return result;
}

}  // namespace zkspeed::verifier
