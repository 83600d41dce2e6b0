#include "lookup/logup.hpp"

#include <mutex>
#include <string>
#include <unordered_map>

#include "ff/batch_inverse.hpp"
#include "ff/parallel.hpp"

namespace zkspeed::lookup {

using ff::Fr;

Table
Table::range(unsigned bits)
{
    Table t;
    t.name = "range" + std::to_string(bits);
    uint64_t n = uint64_t(1) << bits;
    t.rows.reserve(n);
    for (uint64_t v = 0; v < n; ++v) {
        t.rows.push_back({Fr::from_uint(v), Fr::zero(), Fr::zero()});
    }
    return t;
}

Table
Table::xor_table(unsigned bits)
{
    Table t;
    t.name = "xor" + std::to_string(bits);
    uint64_t n = uint64_t(1) << bits;
    t.rows.reserve(n * n);
    for (uint64_t a = 0; a < n; ++a) {
        for (uint64_t b = 0; b < n; ++b) {
            t.rows.push_back({Fr::from_uint(a), Fr::from_uint(b),
                              Fr::from_uint(a ^ b)});
        }
    }
    return t;
}

Table
Table::chi_table(unsigned bits)
{
    Table t;
    t.name = "chi" + std::to_string(bits);
    uint64_t n = uint64_t(1) << bits;
    uint64_t mask = n - 1;
    t.rows.reserve(n * n);
    for (uint64_t a = 0; a < n; ++a) {
        for (uint64_t b = 0; b < n; ++b) {
            t.rows.push_back({Fr::from_uint(a), Fr::from_uint(b),
                              Fr::from_uint(~a & b & mask)});
        }
    }
    return t;
}

namespace {

/** Canonical byte key of a tagged wire/table row (hash-map lookup). */
std::string
quad_key(const Fr &tag, const Fr &a, const Fr &b, const Fr &c)
{
    std::string key(4 * Fr::kByteSize, '\0');
    auto *p = reinterpret_cast<uint8_t *>(key.data());
    tag.to_bytes(p);
    a.to_bytes(p + Fr::kByteSize);
    b.to_bytes(p + 2 * Fr::kByteSize);
    c.to_bytes(p + 3 * Fr::kByteSize);
    return key;
}

/** First-occurrence index of every distinct (tag, row) bank entry. */
std::unordered_map<std::string, size_t>
row_index(const Mle &table_tag, const std::array<Mle, 3> &table,
          size_t table_rows)
{
    std::unordered_map<std::string, size_t> idx;
    idx.reserve(table_rows);
    for (size_t j = 0; j < table_rows; ++j) {
        idx.emplace(quad_key(table_tag[j], table[0][j], table[1][j],
                             table[2][j]),
                    j);
    }
    return idx;
}

}  // namespace

Mle
build_tag_column(const std::vector<uint64_t> &table_row_counts,
                 size_t num_vars)
{
    Mle tag_col(num_vars);
    size_t j = 0;
    for (size_t ti = 0; ti < table_row_counts.size(); ++ti) {
        Fr tag = Fr::from_uint(ti + 1);
        for (uint64_t k = 0; k < table_row_counts[ti]; ++k) {
            tag_col[j++] = tag;
        }
    }
    // Padding copies bank row 0: tag 1 (the first table has >= 1 row).
    for (; j < tag_col.size(); ++j) tag_col[j] = Fr::one();
    return tag_col;
}

Mle
multiplicities(const Mle &q_lookup, const Mle &table_tag,
               const std::array<Mle, 3> &table, size_t table_rows,
               const std::array<const Mle *, 3> &wires)
{
    auto idx = row_index(table_tag, table, table_rows);
    // Parallel counting pass: each worker range scans its share of the
    // hypercube into a local bank histogram (read-only probes of the
    // shared index), then folds it into the global counts under a lock.
    // Per-bank-row addition is commutative, so the merged counts are
    // identical to a serial scan regardless of chunking.
    std::vector<uint64_t> counts(table_rows, 0);
    std::mutex merge_mu;
    // One hash probe per row, about two modmuls' time.
    ff::parallel_for(q_lookup.size(), 2, [&](size_t begin, size_t end) {
        std::vector<uint64_t> local(table_rows, 0);
        bool any = false;
        for (size_t i = begin; i < end; ++i) {
            if (q_lookup[i].is_zero()) continue;
            auto it = idx.find(quad_key(q_lookup[i], (*wires[0])[i],
                                        (*wires[1])[i], (*wires[2])[i]));
            if (it != idx.end()) {
                ++local[it->second];
                any = true;
            }
        }
        if (!any) return;
        std::lock_guard<std::mutex> lock(merge_mu);
        for (size_t j = 0; j < table_rows; ++j) counts[j] += local[j];
    });
    Mle m(q_lookup.num_vars());
    for (size_t j = 0; j < table_rows; ++j) {
        if (counts[j] == 0) continue;
        // Tag-weighted: residues on the table side must match the
        // gate side, whose numerators are the tag-valued selector.
        m[j] = table_tag[j] * Fr::from_uint(counts[j]);
    }
    return m;
}

LookupOracles
build_helper_oracles(const Mle &q_lookup, const Mle &table_tag,
                     const std::array<Mle, 3> &table,
                     const std::array<const Mle *, 3> &wires, const Mle &m,
                     const Fr &lambda, const Fr &gamma)
{
    const size_t mu = q_lookup.num_vars();
    const size_t n = q_lookup.size();
    LookupOracles o;
    o.h_f = std::make_shared<Mle>(mu);
    o.h_t = std::make_shared<Mle>(mu);
    // Denominators for both helpers, inverted chunk-batched in parallel
    // (a zero denominator — probability ~n/r over lambda — stays zero,
    // yielding an invalid proof rather than a crash). All three passes
    // are elementwise, so any chunking gives identical results; the
    // inversion runs on parallel_batch_inverse's fixed grid so the
    // modmul counts are identical across thread counts too.
    std::vector<Fr> den_f(n), den_t(n);
    ff::parallel_for(n, 6, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
            den_f[i] = lambda + fold_tagged(q_lookup[i], (*wires[0])[i],
                                            (*wires[1])[i], (*wires[2])[i],
                                            gamma);
            den_t[i] = lambda + fold_tagged(table_tag[i], table[0][i],
                                            table[1][i], table[2][i],
                                            gamma);
        }
    });
    ff::parallel_batch_inverse(den_f);
    ff::parallel_batch_inverse(den_t);
    ff::parallel_for(n, 2, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
            if (!q_lookup[i].is_zero()) {
                (*o.h_f)[i] = q_lookup[i] * den_f[i];
            }
            if (!m[i].is_zero()) {
                (*o.h_t)[i] = m[i] * den_t[i];
            }
        }
    });
    return o;
}

bool
rows_satisfy(const Mle &q_lookup, const Mle &table_tag,
             const std::array<Mle, 3> &table, size_t table_rows,
             const std::array<const Mle *, 3> &wires)
{
    auto idx = row_index(table_tag, table, table_rows);
    for (size_t i = 0; i < q_lookup.size(); ++i) {
        if (q_lookup[i].is_zero()) continue;
        if (idx.find(quad_key(q_lookup[i], (*wires[0])[i], (*wires[1])[i],
                              (*wires[2])[i])) == idx.end()) {
            return false;
        }
    }
    return true;
}

}  // namespace zkspeed::lookup
