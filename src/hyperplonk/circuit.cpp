#include "hyperplonk/circuit.hpp"

#include <cassert>
#include <stdexcept>
#include <unordered_map>

#include "hyperplonk/protocol_common.hpp"
#include "lookup/logup.hpp"

namespace zkspeed::hyperplonk {

Mle
CircuitIndex::identity_mle(size_t j) const
{
    const size_t n = num_gates();
    Mle id(num_vars);
    for (size_t i = 0; i < n; ++i) {
        id[i] = Fr::from_uint(j * n + i);
    }
    return id;
}

bool
Witness::satisfies_gates(const CircuitIndex &index) const
{
    using namespace detail;
    const Identity gate = gate_identity(index.custom_gates);
    const SlotMles cols = index_slots(index, *this);
    SlotValues row{};
    for (size_t i = 0; i < index.num_gates(); ++i) {
        for (const Term &t : gate.weighted) {
            for (size_t s : t.factors) row[s] = (*cols[s])[i];
        }
        if (!VirtualPolynomial::evaluate_terms(gate.weighted, row).is_zero()) {
            return false;
        }
    }
    return true;
}

bool
Witness::satisfies_wiring(const CircuitIndex &index) const
{
    const size_t n = index.num_gates();
    for (size_t j = 0; j < 3; ++j) {
        for (size_t i = 0; i < n; ++i) {
            // sigma values are small integers by construction.
            uint64_t target = index.sigma[j][i].to_repr().limbs[0];
            size_t tj = target / n, ti = target % n;
            if (!(w[j][i] == w[tj][ti])) return false;
        }
    }
    return true;
}

bool
Witness::satisfies_lookups(const CircuitIndex &index) const
{
    if (!index.has_lookup) return true;
    return lookup::rows_satisfy(index.q_lookup, index.table_tag,
                                index.table, index.table_rows,
                                {&w[0], &w[1], &w[2]});
}

std::vector<Fr>
Witness::public_inputs(const CircuitIndex &index) const
{
    std::vector<Fr> out(index.num_public);
    for (size_t i = 0; i < index.num_public; ++i) out[i] = w[0][i];
    return out;
}

Var
CircuitBuilder::add_variable(const Fr &value)
{
    values_.push_back(value);
    return values_.size() - 1;
}

Var
CircuitBuilder::add_public_input(const Fr &value)
{
    Var v = add_variable(value);
    public_inputs_.push_back(v);
    return v;
}

Var
CircuitBuilder::new_gate_output(const Fr &ql, const Fr &qr, const Fr &qm,
                                const Fr &qc, Var a, Var b,
                                const Fr &out_value)
{
    Var c = add_variable(out_value);
    gates_.push_back(Gate{ql, qr, qm, Fr::one(), qc, a, b, c});
    return c;
}

Var
CircuitBuilder::add_addition(Var a, Var b)
{
    return new_gate_output(Fr::one(), Fr::one(), Fr::zero(), Fr::zero(),
                           a, b, values_[a] + values_[b]);
}

Var
CircuitBuilder::add_subtraction(Var a, Var b)
{
    return new_gate_output(Fr::one(), -Fr::one(), Fr::zero(), Fr::zero(),
                           a, b, values_[a] - values_[b]);
}

Var
CircuitBuilder::add_multiplication(Var a, Var b)
{
    return new_gate_output(Fr::zero(), Fr::zero(), Fr::one(), Fr::zero(),
                           a, b, values_[a] * values_[b]);
}

Var
CircuitBuilder::add_constant_addition(Var a, const Fr &c)
{
    return new_gate_output(Fr::one(), Fr::zero(), Fr::zero(), c,
                           a, a, values_[a] + c);
}

Var
CircuitBuilder::add_pow5_gate(Var a)
{
    // q_H w1^5 - q_O w3 == 0 with q_H = q_O = 1.
    Fr v = values_[a];
    Fr v2 = v * v;
    Var out = add_variable(v2 * v2 * v);
    gates_.push_back(Gate{Fr::zero(), Fr::zero(), Fr::zero(), Fr::one(),
                          Fr::zero(), a, a, out, Fr::one()});
    return out;
}

void
CircuitBuilder::assert_constant(Var a, const Fr &c)
{
    // qL w1 + qC == 0 with qL = 1, qC = -c.
    gates_.push_back(Gate{Fr::one(), Fr::zero(), Fr::zero(), Fr::zero(),
                          -c, a, a, a});
}

void
CircuitBuilder::assert_equal(Var a, Var b)
{
    // w1 - w2 == 0.
    gates_.push_back(Gate{Fr::one(), -Fr::one(), Fr::zero(), Fr::zero(),
                          Fr::zero(), a, b, a});
}

void
CircuitBuilder::assert_boolean(Var a)
{
    // a*a - a == 0.
    gates_.push_back(Gate{-Fr::one(), Fr::zero(), Fr::one(), Fr::zero(),
                          Fr::zero(), a, a, a});
}

void
CircuitBuilder::add_custom_gate(const Fr &ql, const Fr &qr, const Fr &qm,
                                const Fr &qo, const Fr &qc, Var a, Var b,
                                Var c)
{
    gates_.push_back(Gate{ql, qr, qm, qo, qc, a, b, c});
}

size_t
CircuitBuilder::add_table(lookup::Table table)
{
    if (table.empty()) {
        throw std::logic_error("CircuitBuilder: empty lookup table");
    }
    if (tables_.size() >= lookup::kMaxTablesPerCircuit) {
        throw std::logic_error(
            "CircuitBuilder: at most " +
            std::to_string(lookup::kMaxTablesPerCircuit) +
            " fused tables per circuit (wire-format tag bound)");
    }
    // Check the fused bank against the height bound at registration so
    // the failure names the table that broke the budget, not a later
    // build() call.
    size_t total = table.size();
    for (const auto &t : tables_) total += t.size();
    if (total > (size_t(1) << max_vars_)) {
        throw lookup::TableSizeError(table.name, table.size(), total,
                                     max_vars_);
    }
    tables_.push_back(std::move(table));
    return tables_.size();
}

void
CircuitBuilder::set_table(lookup::Table table)
{
    if (!tables_.empty()) {
        throw std::logic_error(
            "CircuitBuilder::set_table: a table is already registered — "
            "use add_table to fuse more tables into the bank");
    }
    add_table(std::move(table));
}

void
CircuitBuilder::add_lookup_gate(size_t tag, Var a, Var b, Var c)
{
    if (tag == 0 || tag > tables_.size()) {
        throw std::logic_error(
            "CircuitBuilder: lookup gate against unregistered table tag " +
            std::to_string(tag) + " (" + std::to_string(tables_.size()) +
            " tables registered; add_table first)");
    }
    Gate g{Fr::zero(), Fr::zero(), Fr::zero(), Fr::zero(), Fr::zero(),
           a, b, c};
    g.lookup_tag = uint32_t(tag);
    gates_.push_back(g);
}

namespace {

/** Build sigma from the slot -> variable map (SIZE_MAX marks a free
 * slot): the slots sharing a variable form one cycle. */
void
build_sigma(CircuitIndex &index,
            const std::vector<std::array<size_t, 3>> &slot_var)
{
    const size_t n = index.num_gates();
    std::unordered_map<size_t, std::vector<size_t>> uses;  // var -> slots
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < 3; ++j) {
            if (slot_var[i][j] != SIZE_MAX) {
                uses[slot_var[i][j]].push_back(j * n + i);
            }
        }
    }
    for (size_t j = 0; j < 3; ++j) index.sigma[j] = index.identity_mle(j);
    for (auto &[var, slots] : uses) {
        for (size_t k = 0; k < slots.size(); ++k) {
            size_t from = slots[k];
            size_t to = slots[(k + 1) % slots.size()];
            index.sigma[from / n][from % n] = Fr::from_uint(to);
        }
    }
}

}  // namespace

std::pair<CircuitIndex, Witness>
CircuitBuilder::build(size_t min_vars) const
{
    // Public-input gates (zero selectors, value in w1) come first so the
    // verifier can evaluate w1 over the public prefix.
    std::vector<Gate> all;
    all.reserve(public_inputs_.size() + gates_.size());
    for (Var v : public_inputs_) {
        all.push_back(Gate{Fr::zero(), Fr::zero(), Fr::zero(), Fr::zero(),
                           Fr::zero(), v, v, v});
    }
    all.insert(all.end(), gates_.begin(), gates_.end());

    // The fused table bank shares the hypercube index space with the
    // gates, so the circuit must be at least as tall as the bank.
    size_t bank_rows = 0;
    for (const auto &t : tables_) bank_rows += t.size();
    size_t mu = min_vars;
    while ((size_t(1) << mu) < all.size() ||
           (size_t(1) << mu) < bank_rows) {
        ++mu;
    }
    // (Bank height vs. 2^max_vars is enforced at add_table time — the
    // single point that can name the table that broke the budget.)
    const size_t n = size_t(1) << mu;

    CircuitIndex index;
    index.num_vars = mu;
    index.num_public = public_inputs_.size();
    index.q_l = Mle(mu);
    index.q_r = Mle(mu);
    index.q_m = Mle(mu);
    index.q_o = Mle(mu);
    index.q_c = Mle(mu);
    index.q_h = Mle(mu);
    if (!tables_.empty()) {
        index.has_lookup = true;
        index.table_rows = bank_rows;
        index.q_lookup = Mle(mu);
        for (auto &t : index.table) t = Mle(mu);
        index.table_row_counts.reserve(tables_.size());
        // Concatenate the tables in tag order; padding rows repeat bank
        // row 0 (tag included): duplicates only add poles the
        // multiplicity MLE can leave at zero. The tag column itself has
        // one shared definition (lookup::build_tag_column) so the wire
        // decoder's reconstruction can never diverge from it.
        size_t j = 0;
        for (size_t ti = 0; ti < tables_.size(); ++ti) {
            index.table_row_counts.push_back(tables_[ti].size());
            for (const auto &row : tables_[ti].rows) {
                for (size_t k = 0; k < 3; ++k) index.table[k][j] = row[k];
                ++j;
            }
        }
        for (; j < n; ++j) {
            for (size_t k = 0; k < 3; ++k) {
                index.table[k][j] = index.table[k][0];
            }
        }
        index.table_tag =
            lookup::build_tag_column(index.table_row_counts, mu);
    }
    Witness wit;
    for (auto &w : wit.w) w = Mle(mu);

    // Slot -> variable map (SIZE_MAX marks an unconstrained slot).
    std::vector<std::array<size_t, 3>> slot_var(
        n, {SIZE_MAX, SIZE_MAX, SIZE_MAX});
    for (size_t i = 0; i < all.size(); ++i) {
        const Gate &g = all[i];
        index.q_l[i] = g.ql;
        index.q_r[i] = g.qr;
        index.q_m[i] = g.qm;
        index.q_o[i] = g.qo;
        index.q_c[i] = g.qc;
        index.q_h[i] = g.qh;
        if (!g.qh.is_zero()) index.custom_gates = true;
        if (g.lookup_tag != 0) {
            index.q_lookup[i] = Fr::from_uint(g.lookup_tag);
        }
        wit.w[0][i] = values_[g.a];
        wit.w[1][i] = values_[g.b];
        wit.w[2][i] = values_[g.c];
        slot_var[i] = {g.a, g.b, g.c};
    }
    // Padding gates stay all-zero; their slots are free.

    build_sigma(index, slot_var);
    return {std::move(index), std::move(wit)};
}

std::pair<CircuitIndex, Witness>
random_circuit(size_t num_vars, std::mt19937_64 &rng, double dense_fraction)
{
    const size_t n = size_t(1) << num_vars;
    std::uniform_real_distribution<double> uni(0.0, 1.0);

    CircuitIndex index;
    index.num_vars = num_vars;
    index.num_public = std::min<size_t>(4, n / 4);
    if (index.num_public == 0) index.num_public = 1;
    index.q_l = Mle(num_vars);
    index.q_r = Mle(num_vars);
    index.q_m = Mle(num_vars);
    index.q_o = Mle(num_vars);
    index.q_c = Mle(num_vars);
    index.q_h = Mle(num_vars);
    Witness wit;
    for (auto &w : wit.w) w = Mle(num_vars);

    // Sample witness inputs with the paper's sparsity statistics: the
    // non-dense mass splits evenly between 0s and 1s (Section 6.2).
    auto sparse_value = [&]() -> Fr {
        double u = uni(rng);
        if (u < dense_fraction) return Fr::random(rng);
        return (u < dense_fraction + (1.0 - dense_fraction) / 2)
                   ? Fr::zero()
                   : Fr::one();
    };

    // Slot variable ids for copy-constraint construction.
    std::vector<std::array<size_t, 3>> slot_var(
        n, {SIZE_MAX, SIZE_MAX, SIZE_MAX});
    size_t next_var = 0;

    for (size_t i = 0; i < n; ++i) {
        if (i < index.num_public) {
            // Public-input gate: zero selectors, value in w1.
            wit.w[0][i] = sparse_value();
            slot_var[i][0] = next_var++;
            continue;
        }
        // Inputs: fresh sparse values, or copies of earlier outputs.
        for (size_t j = 0; j < 2; ++j) {
            if (i > index.num_public + 1 && uni(rng) < 0.3) {
                size_t src =
                    index.num_public +
                    size_t(uni(rng) * double(i - index.num_public));
                wit.w[j][i] = wit.w[2][src];
                slot_var[i][j] = slot_var[src][2];
            } else {
                wit.w[j][i] = sparse_value();
                slot_var[i][j] = next_var++;
            }
        }
        // Gate type mix: add / mul / affine-with-constant.
        double t = uni(rng);
        if (t < 0.4) {
            index.q_l[i] = Fr::one();
            index.q_r[i] = Fr::one();
        } else if (t < 0.8) {
            index.q_m[i] = Fr::one();
        } else {
            index.q_l[i] = Fr::one();
            index.q_c[i] = sparse_value();
        }
        index.q_o[i] = Fr::one();
        wit.w[2][i] = index.q_l[i] * wit.w[0][i] +
                      index.q_r[i] * wit.w[1][i] +
                      index.q_m[i] * wit.w[0][i] * wit.w[1][i] +
                      index.q_c[i];
        slot_var[i][2] = next_var++;
    }

    build_sigma(index, slot_var);
    return {std::move(index), std::move(wit)};
}

}  // namespace zkspeed::hyperplonk
