/**
 * @file
 * Strict little-endian byte codecs shared by every wire format in the
 * repository (proofs, verifying keys, runtime job requests/responses).
 *
 * ByteWriter appends fixed-width primitives; ByteReader consumes them
 * with fail-closed semantics: any out-of-range read, non-canonical
 * field element or off-curve point latches the failed() flag and every
 * subsequent read returns a zero value. Callers check failed() /
 * fully_consumed() once at the end instead of after every read, which
 * keeps decoders linear and makes "reject, never crash" the default.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "curve/g1.hpp"

namespace zkspeed::hyperplonk::serde {

class ByteWriter
{
  public:
    std::vector<uint8_t> buf;

    void
    u8(uint8_t v)
    {
        buf.push_back(v);
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) buf.push_back(uint8_t(v >> (8 * i)));
    }

    void
    fr(const ff::Fr &x)
    {
        size_t off = buf.size();
        buf.resize(off + ff::Fr::kByteSize);
        x.to_bytes(buf.data() + off);
    }

    void
    fq(const ff::Fq &x)
    {
        size_t off = buf.size();
        buf.resize(off + ff::Fq::kByteSize);
        x.to_bytes(buf.data() + off);
    }

    void
    g1(const curve::G1Affine &p)
    {
        u8(p.infinity ? 1 : 0);
        fq(p.infinity ? ff::Fq::zero() : p.x);
        fq(p.infinity ? ff::Fq::zero() : p.y);
    }

    /** Length-prefixed Fr vector. */
    void
    frs(std::span<const ff::Fr> xs)
    {
        u64(xs.size());
        for (const auto &x : xs) fr(x);
    }

    /** Length-prefixed opaque byte blob (nested encodings). */
    void
    bytes(std::span<const uint8_t> data)
    {
        u64(data.size());
        buf.insert(buf.end(), data.begin(), data.end());
    }
};

/** ByteWriter's calls, counting bytes instead of writing them: runs
 * an encoder once to size its buffer exactly. */
class ByteCounter
{
  public:
    size_t size = 0;

    void u8(uint8_t) { size += 1; }
    void u64(uint64_t) { size += 8; }
    void fr(const ff::Fr &) { size += ff::Fr::kByteSize; }
    void g1(const curve::G1Affine &) { size += 1 + 2 * ff::Fq::kByteSize; }

    void
    frs(std::span<const ff::Fr> xs)
    {
        size += 8 + xs.size() * ff::Fr::kByteSize;
    }
};

class ByteReader
{
  public:
    explicit ByteReader(std::span<const uint8_t> bytes) : data_(bytes) {}

    bool failed() const { return failed_; }
    bool fully_consumed() const { return !failed_ && pos_ == data_.size(); }

    uint8_t
    u8()
    {
        if (pos_ + 1 > data_.size()) {
            failed_ = true;
            return 0;
        }
        return data_[pos_++];
    }

    uint64_t
    u64()
    {
        if (pos_ + 8 > data_.size()) {
            failed_ = true;
            return 0;
        }
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i) {
            v |= uint64_t(data_[pos_ + i]) << (8 * i);
        }
        pos_ += 8;
        return v;
    }

    /** Strict field decode: value must be canonical (< modulus). */
    template <typename F>
    F
    field()
    {
        if (pos_ + F::kByteSize > data_.size()) {
            failed_ = true;
            return F::zero();
        }
        typename F::Repr r;
        for (size_t i = 0; i < F::kLimbs; ++i) {
            uint64_t limb = 0;
            for (size_t b = 0; b < 8; ++b) {
                limb |= uint64_t(data_[pos_ + i * 8 + b]) << (8 * b);
            }
            r.limbs[i] = limb;
        }
        pos_ += F::kByteSize;
        if (!(r < F::kModulus)) {
            failed_ = true;
            return F::zero();
        }
        return F::from_repr(r);
    }

    ff::Fr fr() { return field<ff::Fr>(); }

    /** Strict point decode: must be on the curve. */
    curve::G1Affine
    g1()
    {
        uint8_t inf = u8();
        ff::Fq x = field<ff::Fq>();
        ff::Fq y = field<ff::Fq>();
        if (failed_) return curve::G1Affine::identity();
        if (inf == 1) {
            if (!x.is_zero() || !y.is_zero()) failed_ = true;
            return curve::G1Affine::identity();
        }
        if (inf != 0) {
            failed_ = true;
            return curve::G1Affine::identity();
        }
        curve::G1Affine p(x, y);
        if (!p.is_on_curve()) {
            failed_ = true;
            return curve::G1Affine::identity();
        }
        return p;
    }

    std::vector<ff::Fr>
    frs(uint64_t max_len)
    {
        uint64_t n = u64();
        if (n > max_len) {
            failed_ = true;
            return {};
        }
        std::vector<ff::Fr> out;
        out.reserve(n);
        for (uint64_t i = 0; i < n && !failed_; ++i) out.push_back(fr());
        return out;
    }

    /** Length-prefixed opaque byte blob, bounded by max_len. */
    std::vector<uint8_t>
    bytes(uint64_t max_len)
    {
        uint64_t n = u64();
        if (n > max_len || pos_ + n > data_.size()) {
            failed_ = true;
            return {};
        }
        std::vector<uint8_t> out(data_.begin() + pos_,
                                 data_.begin() + pos_ + n);
        pos_ += n;
        return out;
    }

  private:
    std::span<const uint8_t> data_;
    size_t pos_ = 0;
    bool failed_ = false;
};

/** Upper bound on accepted round counts / variable counts (DoS hygiene). */
constexpr uint64_t kMaxVars = 40;
/** Upper bound on accepted sumcheck degrees. */
constexpr uint64_t kMaxDegree = 16;

}  // namespace zkspeed::hyperplonk::serde
