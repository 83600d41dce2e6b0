/**
 * @file
 * Plonk-encoded circuits: selectors, witness wires and the wiring
 * permutation.
 *
 * Every operation of the proved program maps to a gate satisfying
 *   f = qL w1 + qR w2 + qM w1 w2 - qO w3 + qC = 0        (paper Eq. 1)
 * and gates are connected by copy constraints encoded as a permutation
 * over the 3 * 2^mu wire slots (paper Section 3.1 / 3.3.3). The
 * CircuitBuilder assembles gates over named variables and derives the
 * sigma MLEs from the variable-usage cycles.
 */
#pragma once

#include <array>
#include <cstdint>
#include <random>
#include <vector>

#include "lookup/table.hpp"
#include "mle/mle.hpp"

namespace zkspeed::hyperplonk {

using ff::Fr;
using mle::Mle;

/** The preprocessed (witness-independent) part of a circuit. */
struct CircuitIndex {
    size_t num_vars = 0;  ///< mu: the circuit has 2^mu gates
    Mle q_l, q_r, q_m, q_o, q_c;
    /**
     * High-degree custom-gate selector (the Jellyfish-style extension
     * discussed in the paper's Section 8): when enabled, the gate
     * constraint gains a term q_H * w1^5, so one gate implements the
     * x^5 S-box that costs three plain gates. Raises the Gate-Identity
     * ZeroCheck degree from 4 to 7.
     */
    Mle q_h;
    /** Whether any q_H gate exists (changes proof shape: 23 claims). */
    bool custom_gates = false;
    /** sigma_j[i] = global index of the wire slot that slot (j, i) is
     * copy-constrained to (identity for free slots). Global index of slot
     * (j, i) is j * 2^mu + i. */
    std::array<Mle, 3> sigma;
    /** Number of public inputs, stored in w1 of the first gates. */
    size_t num_public = 0;

    /**
     * Lookup argument (src/lookup, DESIGN.md Section 8). When enabled,
     * rows with q_lookup = k != 0 assert their wire triple (w1, w2, w3)
     * equals some row of the table with tag k. All registered tables
     * are concatenated into one bank: `table_tag[j]` names the table
     * owning bank row j and `table_row_counts` records each table's
     * height in registration order (tag k owns the k-th slice). The
     * bank occupies the same hypercube index space as the gates but
     * consumes no gate slots; rows past `table_rows` are padding
     * (copies of row 0, tag included). Changes the proof shape: 3
     * extra commitments, a degree-3 LookupCheck sumcheck, a 7th
     * opening point and 11 extra claims.
     */
    bool has_lookup = false;
    Mle q_lookup;
    /** Bank tag column: tag of the table owning each bank row. */
    Mle table_tag;
    std::array<Mle, 3> table;
    /** Real bank rows before padding (0 when has_lookup is false). */
    size_t table_rows = 0;
    /** Per-table heights in tag order (empty when has_lookup false). */
    std::vector<uint64_t> table_row_counts;

    size_t num_tables() const { return table_row_counts.size(); }

    size_t num_gates() const { return size_t(1) << num_vars; }

    /** Active lookup rows (0 when the circuit has no lookup argument). */
    size_t
    num_lookup_gates() const
    {
        if (!has_lookup) return 0;
        size_t n = 0;
        for (size_t i = 0; i < q_lookup.size(); ++i) {
            if (!q_lookup[i].is_zero()) ++n;
        }
        return n;
    }

    /** Identity MLE for wire set j: id_j[i] = j * 2^mu + i. */
    Mle identity_mle(size_t j) const;

    /** Every field equal. Field elements are stored in canonical
     * Montgomery form, so equal circuits compare equal limb for limb. */
    bool operator==(const CircuitIndex &) const = default;
};

/** The witness: one MLE per wire set (w1, w2, w3). */
struct Witness {
    std::array<Mle, 3> w;

    /** Check Eq. 1 at every gate (debugging / test helper). */
    bool satisfies_gates(const CircuitIndex &index) const;

    /** Check the copy constraints directly (test helper). */
    bool satisfies_wiring(const CircuitIndex &index) const;

    /** Check every active lookup row's triple is in the table (true
     * when the circuit has no lookup argument). */
    bool satisfies_lookups(const CircuitIndex &index) const;

    /** The public-input values (first entries of w1). */
    std::vector<Fr> public_inputs(const CircuitIndex &index) const;
};

/** Variable handle returned by the builder. */
using Var = size_t;

/**
 * Assembles a Plonk circuit gate by gate over named variables and
 * produces the CircuitIndex plus a satisfying Witness.
 */
class CircuitBuilder
{
  public:
    /** Create a fresh variable carrying `value`. */
    Var add_variable(const Fr &value);

    /** Create a public-input variable (exposed to the verifier). */
    Var add_public_input(const Fr &value);

    /** Gate out = a + b. Returns the output variable. */
    Var add_addition(Var a, Var b);

    /** Gate out = a * b. */
    Var add_multiplication(Var a, Var b);

    /** Gate out = a - b. */
    Var add_subtraction(Var a, Var b);

    /** Gate out = a + c for a constant c. */
    Var add_constant_addition(Var a, const Fr &c);

    /** High-degree custom gate out = a^5 (one gate instead of three;
     * enables the Jellyfish-style extension, see CircuitIndex::q_h). */
    Var add_pow5_gate(Var a);

    /** Gate pinning a variable to a constant: a == c. */
    void assert_constant(Var a, const Fr &c);

    /** Gate asserting a == b. */
    void assert_equal(Var a, Var b);

    /** Gate asserting a is boolean: a * a - a == 0. */
    void assert_boolean(Var a);

    /**
     * Fully general gate: qL wa + qR wb + qM wa wb - qO wc + qC must be 0
     * for the provided variables. The caller is responsible for supplying
     * a satisfying assignment.
     */
    void add_custom_gate(const Fr &ql, const Fr &qr, const Fr &qm,
                         const Fr &qo, const Fr &qc, Var a, Var b, Var c);

    /**
     * Register a lookup table and return its 1-based tag. A circuit
     * may register several tables; they are fused into one bank with a
     * tag column, so one LogUp argument proves every one of them. The
     * built circuit's size covers the bank: 2^mu >= max(gates, total
     * rows). Throws lookup::TableSizeError when the fused bank cannot
     * fit under the builder's height bound (set_max_vars).
     */
    size_t add_table(lookup::Table table);

    /**
     * Thin alias over add_table for the common one-table circuit:
     * installs the first (tag-1) table. Must be the first registration.
     */
    void set_table(lookup::Table table);

    /** Raise/lower the 2^max_vars circuit-height bound enforced against
     * the fused table bank (default 20, the wire-format cap). Lowering
     * it below an already-registered bank throws the same structured
     * lookup::TableSizeError add_table would have. */
    void
    set_max_vars(size_t max_vars)
    {
        max_vars_ = max_vars;
        size_t total = 0;
        const lookup::Table *tallest = nullptr;
        for (const auto &t : tables_) {
            total += t.size();
            if (tallest == nullptr || t.size() > tallest->size()) {
                tallest = &t;
            }
        }
        if (tallest != nullptr && total > (size_t(1) << max_vars_)) {
            throw lookup::TableSizeError(tallest->name, tallest->size(),
                                         total, max_vars_);
        }
    }

    /**
     * Lookup gate against the table with tag `tag`: assert the triple
     * (a, b, c) equals some row of that table. All arithmetic selectors
     * stay zero; the row is claimed by the tag-valued q_lookup selector
     * and proved by the fused LogUp argument.
     */
    void add_lookup_gate(size_t tag, Var a, Var b, Var c);

    /** Lookup gate against the first registered table (tag 1). */
    void add_lookup_gate(Var a, Var b, Var c)
    {
        add_lookup_gate(1, a, b, c);
    }

    /** Registered table with tag `tag` (1-based; default the first). */
    const lookup::Table &table(size_t tag = 1) const
    {
        return tables_.at(tag - 1);
    }

    size_t num_tables() const { return tables_.size(); }

    /** Value currently assigned to a variable. */
    const Fr &value(Var v) const { return values_[v]; }

    size_t num_gates() const { return gates_.size(); }

    /**
     * Pad to the next power of two (at least 2^min_vars gates) and emit
     * the index + witness. Public-input gates are placed first.
     */
    std::pair<CircuitIndex, Witness> build(size_t min_vars = 2) const;

  private:
    struct Gate {
        Fr ql, qr, qm, qo, qc;
        Var a, b, c;
        /** Custom-gate selector (kept last so plain-gate aggregate
         * initialisation leaves it zero). */
        Fr qh{};
        /** Lookup gate: 0 = none, k = triple must be in table k. */
        uint32_t lookup_tag = 0;
    };

    /** Default circuit-height bound (matches wire::kMaxRequestVars). */
    static constexpr size_t kDefaultMaxVars = 20;

    Var new_gate_output(const Fr &ql, const Fr &qr, const Fr &qm,
                        const Fr &qc, Var a, Var b, const Fr &out_value);

    std::vector<Fr> values_;
    std::vector<Gate> gates_;
    std::vector<Var> public_inputs_;    ///< variables exposed publicly
    std::vector<lookup::Table> tables_; ///< fused bank, tag = index + 1
    size_t max_vars_ = kDefaultMaxVars;
};

/**
 * Generate a random satisfying circuit with the paper's witness-sparsity
 * statistics (Section 6.2: ~10% dense scalars, ~45% zeros, ~45% ones)
 * used by the mock workloads.
 *
 * @param num_vars mu (2^mu gates).
 * @param dense_fraction fraction of full-width witness values.
 */
std::pair<CircuitIndex, Witness> random_circuit(size_t num_vars,
                                                std::mt19937_64 &rng,
                                                double dense_fraction = 0.1);

}  // namespace zkspeed::hyperplonk
