/**
 * @file
 * In-circuit Keccak-f[1600] on fused multi-table lookups.
 *
 * Every 64-bit lane is held as `64 / limb_bits` table-width limbs (LSB
 * first); the round functions then reduce to per-limb table lookups and
 * copy wiring (DESIGN.md Section 9):
 *
 *   theta / iota  XOR via the xor(limb_bits) table — one lookup per
 *                 limb, which also range-checks both operands for free;
 *   chi           out = a ^ (~b & c): a chi(limb_bits) table row
 *                 (b, c, ~b & c) followed by one XOR lookup;
 *   rho / pi      rotation by a limb multiple is pure relabelling (zero
 *                 gates); a sub-limb residue s splits each limb at the
 *                 rotation cut (hi = top s bits, lo = rest) with two
 *                 range-table lookups and recombines with one linear
 *                 gate per limb.
 *
 * One KeccakGadget registers its whole table bank — xor, chi and the
 * sub-limb range widths — through CircuitBuilder::add_table, so a
 * single tagged LogUp argument proves every lookup the permutation
 * makes. The gate_based mode is the benchmark baseline: 1-bit limbs,
 * logic gates instead of lookups (rotations stay free), the circuit
 * bench_lookup's keccak case measures the lookup path against.
 *
 * The permutation is round-parameterised (ZKSPEED_KECCAK_ROUNDS in CI):
 * tests compare reduced-round circuits against the reduced-round native
 * reference hash::keccak_f1600(state, rounds), and full 24-round
 * witnesses against the real SHA3/Keccak digests.
 */
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hyperplonk/circuit.hpp"

namespace zkspeed::keccak {

using ff::Fr;
using hyperplonk::CircuitBuilder;
using hyperplonk::Var;

/** Shape of an in-circuit keccak instance. */
struct KeccakParams {
    /** Permutation rounds (1..24; 24 is the real Keccak-f[1600]). */
    unsigned rounds = 24;
    /** Table width: lanes decompose into 64/limb_bits limbs. Must
     * divide 64 and stay <= 8 (the xor/chi tables have 2^{2b} rows). */
    unsigned limb_bits = 4;
    /** Benchmark baseline: 1-bit lanes on boolean logic gates, no
     * lookup tables (rho/pi still free). */
    bool gate_based = false;

    static KeccakParams
    lookup(unsigned rounds_ = 24, unsigned limb_bits_ = 4)
    {
        return KeccakParams{rounds_, limb_bits_, false};
    }
    static KeccakParams
    gates(unsigned rounds_ = 24)
    {
        return KeccakParams{rounds_, 1, true};
    }
};

/** One 64-bit lane as limb variables, least-significant limb first. */
struct Lane {
    std::vector<Var> limbs;
};

/**
 * Builds Keccak-f[1600] circuitry on a CircuitBuilder. Constructing the
 * gadget registers its lookup tables (lookup mode); all lane ops and
 * the permutation then append gates. One gadget may be reused for any
 * number of permutations in the same circuit — the tables are shared.
 */
class KeccakGadget
{
  public:
    KeccakGadget(CircuitBuilder &cb, const KeccakParams &params);

    const KeccakParams &params() const { return params_; }
    unsigned limb_bits() const { return width_; }
    unsigned limbs_per_lane() const { return 64 / width_; }
    CircuitBuilder &builder() { return cb_; }

    /** Decompose an existing variable into a range-checked lane and
     * constrain the weighted limb sum to reconstruct it (so the value
     * is also proved < 2^64). */
    Lane from_var(Var v);

    /** Recompose a lane into one variable holding its 64-bit value. */
    Var to_var(const Lane &lane);

    /** Lane of pinned constants (cached per limb value). */
    Lane constant_lane(uint64_t value);

    /** Native value currently assigned to a lane (witness side). */
    uint64_t value(const Lane &lane) const;

    Lane lane_xor(const Lane &a, const Lane &b);
    /** Keccak chi nonlinearity: a ^ (~b & c). */
    Lane lane_chi(const Lane &a, const Lane &b, const Lane &c);
    /** Cyclic left rotation by r bits (0 gates when r is a limb
     * multiple; otherwise a split/recombine per limb). */
    Lane rotl(const Lane &a, unsigned r);
    Lane xor_constant(const Lane &a, uint64_t c);
    /** Conditional swap: {sel ? a : b, sel ? b : a} for boolean sel.
     * The second output reuses the first's sel*(a-b) product (4 gates
     * per limb instead of two 3-gate muxes), which is what every
     * Merkle level's (left, right) ordering needs. */
    std::pair<Lane, Lane> mux_swap(Var sel, const Lane &a,
                                   const Lane &b);

    /** The round-parameterised permutation over the 5x5 state
     * (index x + 5y, matching hash::keccak_f1600). */
    std::array<Lane, 25> permute(std::array<Lane, 25> state);

  private:
    Var constant_var(uint64_t v);
    Var zero_var() { return constant_var(0); }
    uint64_t value64(Var v) const;
    /** One range-table lookup asserting v < 2^w (w < limb_bits). */
    void assert_width(Var v, unsigned w);

    CircuitBuilder &cb_;
    KeccakParams params_;
    unsigned width_;  ///< limb width (1 in gate_based mode)
    size_t xor_tag_ = 0;
    size_t chi_tag_ = 0;
    /** range_tag_[w] proves values < 2^w, w in 1..width_-1. */
    std::array<size_t, 8> range_tag_{};
    std::unordered_map<uint64_t, Var> const_cache_;
};

}  // namespace zkspeed::keccak
