#include "hyperplonk/serialize.hpp"

#include "hyperplonk/serde_bytes.hpp"

namespace zkspeed::hyperplonk::serde {

namespace {

using ff::Fq;
using ff::Fr;

// Layout v3 (fused multi-table lookups: tag column joins the bank, the
// lookup claim block grows 10 -> 11 and vks carry 5 lookup
// commitments): new magics so a v2 peer rejects the frame outright
// instead of misparsing it.
constexpr uint64_t kProofMagic = 0x7a6b737065656405ULL;  // "zkspeed",5
constexpr uint64_t kVkMagic = 0x7a6b737065656406ULL;
/** Proof flags byte. */
constexpr uint8_t kFlagCustomGates = 1u << 0;
constexpr uint8_t kFlagLookup = 1u << 1;

template <typename W>
void
write_sumcheck(W &w, const SumcheckProof &sc)
{
    w.u64(sc.num_vars);
    w.u64(sc.degree);
    w.u64(sc.round_evals.size());
    for (const auto &r : sc.round_evals) w.frs(r);
}

SumcheckProof
read_sumcheck(ByteReader &r)
{
    SumcheckProof sc;
    sc.num_vars = r.u64();
    sc.degree = r.u64();
    uint64_t rounds = r.u64();
    if (sc.num_vars > kMaxVars || sc.degree > kMaxDegree ||
        rounds > kMaxVars) {
        return sc;  // reader flagged below via size mismatch
    }
    for (uint64_t i = 0; i < rounds; ++i) {
        sc.round_evals.push_back(r.frs(kMaxDegree + 1));
    }
    return sc;
}

/** The proof layout, for a ByteWriter or a ByteCounter. */
template <typename W>
void
write_proof(W &w, const Proof &proof)
{
    w.u64(kProofMagic);
    uint8_t flags = 0;
    if (proof.evals.custom) flags |= kFlagCustomGates;
    if (proof.evals.lookup) flags |= kFlagLookup;
    w.u8(flags);
    for (const auto &c : proof.witness_comms) w.g1(c);
    if (proof.evals.lookup) w.g1(proof.m_comm);
    write_sumcheck(w, proof.zerocheck);
    w.g1(proof.phi_comm);
    w.g1(proof.pi_comm);
    write_sumcheck(w, proof.permcheck);
    if (proof.evals.lookup) {
        w.g1(proof.hf_comm);
        w.g1(proof.ht_comm);
        write_sumcheck(w, proof.lookupcheck);
    }
    auto flat = proof.evals.flatten();
    w.frs(flat);
    write_sumcheck(w, proof.opencheck);
    w.fr(proof.gprime_value);
    w.u64(proof.gprime_proof.quotients.size());
    for (const auto &q : proof.gprime_proof.quotients) w.g1(q);
}

}  // namespace

std::vector<uint8_t>
serialize_proof(const Proof &proof)
{
    // Sized exactly up front: a buffer grown by doubling carries spare
    // capacity, and service responses keep these bytes.
    ByteCounter count;
    write_proof(count, proof);
    ByteWriter w;
    w.buf.reserve(count.size);
    write_proof(w, proof);
    return std::move(w.buf);
}

std::optional<Proof>
deserialize_proof(std::span<const uint8_t> bytes)
{
    ByteReader r(bytes);
    if (r.u64() != kProofMagic) return std::nullopt;
    uint8_t flags = r.u8();
    if ((flags & ~(kFlagCustomGates | kFlagLookup)) != 0) {
        return std::nullopt;
    }
    Proof p;
    p.evals.custom = (flags & kFlagCustomGates) != 0;
    p.evals.lookup = (flags & kFlagLookup) != 0;
    for (auto &c : p.witness_comms) c = r.g1();
    if (p.evals.lookup) p.m_comm = r.g1();
    p.zerocheck = read_sumcheck(r);
    p.phi_comm = r.g1();
    p.pi_comm = r.g1();
    p.permcheck = read_sumcheck(r);
    if (p.evals.lookup) {
        p.hf_comm = r.g1();
        p.ht_comm = r.g1();
        p.lookupcheck = read_sumcheck(r);
    }
    const size_t expected_evals = p.evals.count();
    auto flat = r.frs(expected_evals);
    if (flat.size() != expected_evals) return std::nullopt;
    size_t off = 8;
    for (size_t i = 0; i < 8; ++i) p.evals.at_gate[i] = flat[i];
    if (p.evals.custom) p.evals.qh_at_gate = flat[off++];
    for (size_t i = 0; i < 8; ++i) p.evals.at_perm[i] = flat[off + i];
    off += 8;
    p.evals.at_u0 = {flat[off], flat[off + 1]};
    p.evals.at_u1 = {flat[off + 2], flat[off + 3]};
    p.evals.pi_at_root = flat[off + 4];
    p.evals.w1_at_pub = flat[off + 5];
    off += 6;
    if (p.evals.lookup) {
        for (size_t i = 0; i < BatchEvaluations::kLookupCount; ++i) {
            p.evals.at_lookup[i] = flat[off + i];
        }
    }
    p.opencheck = read_sumcheck(r);
    p.gprime_value = r.fr();
    uint64_t nq = r.u64();
    if (nq > kMaxVars) return std::nullopt;
    for (uint64_t i = 0; i < nq && !r.failed(); ++i) {
        p.gprime_proof.quotients.push_back(r.g1());
    }
    if (!r.fully_consumed()) return std::nullopt;
    return p;
}

std::vector<uint8_t>
serialize_verifying_key(const VerifyingKey &vk)
{
    ByteWriter w;
    w.u64(kVkMagic);
    w.u64(vk.num_vars);
    w.u64(vk.num_public);
    w.u8(vk.custom_gates ? 1 : 0);
    w.u8(vk.has_lookup ? 1 : 0);
    for (const auto &c : vk.selector_comms) w.g1(c);
    for (const auto &c : vk.sigma_comms) w.g1(c);
    if (vk.has_lookup) {
        for (const auto &c : vk.lookup_comms) w.g1(c);
    }
    // Verifier SRS subset: g, h and h^{tau_i} (G2 points as 4 Fq each).
    w.g1(vk.srs->g);
    auto write_g2 = [&](const curve::G2Affine &p) {
        w.u8(p.infinity ? 1 : 0);
        w.fq(p.x.c0);
        w.fq(p.x.c1);
        w.fq(p.y.c0);
        w.fq(p.y.c1);
    };
    write_g2(vk.srs->h);
    w.u64(vk.srs->tau_h.size());
    for (const auto &p : vk.srs->tau_h) write_g2(p);
    return std::move(w.buf);
}

std::optional<VerifyingKey>
deserialize_verifying_key(std::span<const uint8_t> bytes)
{
    ByteReader r(bytes);
    if (r.u64() != kVkMagic) return std::nullopt;
    VerifyingKey vk;
    vk.num_vars = r.u64();
    vk.num_public = r.u64();
    uint8_t custom = r.u8();
    uint8_t has_lookup = r.u8();
    if (custom > 1 || has_lookup > 1) return std::nullopt;
    vk.custom_gates = custom == 1;
    vk.has_lookup = has_lookup == 1;
    if (vk.num_vars > kMaxVars ||
        vk.num_public > (uint64_t(1) << std::min<uint64_t>(vk.num_vars,
                                                           30))) {
        return std::nullopt;
    }
    for (auto &c : vk.selector_comms) c = r.g1();
    for (auto &c : vk.sigma_comms) c = r.g1();
    if (vk.has_lookup) {
        for (auto &c : vk.lookup_comms) c = r.g1();
    }
    auto srs = std::make_shared<pcs::Srs>();
    srs->num_vars = vk.num_vars;
    srs->g = r.g1();
    auto read_g2 = [&]() {
        // Sequence the reads explicitly: function-argument evaluation
        // order is unspecified in C++.
        uint8_t inf = r.u8();
        Fq xc0 = r.field<Fq>();
        Fq xc1 = r.field<Fq>();
        Fq yc0 = r.field<Fq>();
        Fq yc1 = r.field<Fq>();
        if (inf == 1) return curve::G2Affine::identity();
        return curve::G2Affine(curve::Fq2(xc0, xc1),
                               curve::Fq2(yc0, yc1));
    };
    srs->h = read_g2();
    if (!r.failed() && !srs->h.is_on_curve()) return std::nullopt;
    uint64_t nt = r.u64();
    if (nt != vk.num_vars) return std::nullopt;
    for (uint64_t i = 0; i < nt && !r.failed(); ++i) {
        auto p = read_g2();
        if (!p.is_on_curve()) return std::nullopt;
        srs->tau_h.push_back(p);
    }
    if (!r.fully_consumed()) return std::nullopt;
    vk.srs = std::move(srs);
    return vk;
}

}  // namespace zkspeed::hyperplonk::serde
