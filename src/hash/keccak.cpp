#include "hash/keccak.hpp"

#include <cstring>
#include <string>

namespace zkspeed::hash {

namespace {

const std::array<uint64_t, 24> kRoundConstants = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
    0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL,
};

/** Rotation offsets r[x][y] of the rho step. */
const std::array<std::array<int, 5>, 5> kRho = {{
    {0, 36, 3, 41, 18},
    {1, 44, 10, 45, 2},
    {62, 6, 43, 15, 61},
    {28, 55, 25, 21, 56},
    {27, 20, 39, 8, 14},
}};

thread_local uint64_t t_permutations = 0;

inline uint64_t
rotl(uint64_t v, int s)
{
    return s == 0 ? v : (v << s) | (v >> (64 - s));
}

}  // namespace

const std::array<uint64_t, 24> &
keccak_round_constants()
{
    return kRoundConstants;
}

const std::array<std::array<int, 5>, 5> &
keccak_rho_offsets()
{
    return kRho;
}

uint64_t
keccak_permutations()
{
    return t_permutations;
}

void
keccak_f1600(std::array<uint64_t, 25> &st)
{
    keccak_f1600(st, 24);
}

void
keccak_f1600(std::array<uint64_t, 25> &st, unsigned rounds)
{
    ++t_permutations;
    // State indexing: st[x + 5*y].
    for (unsigned round = 0; round < rounds && round < 24; ++round) {
        // Theta
        uint64_t c[5], d[5];
        for (int x = 0; x < 5; ++x) {
            c[x] = st[x] ^ st[x + 5] ^ st[x + 10] ^ st[x + 15] ^ st[x + 20];
        }
        for (int x = 0; x < 5; ++x) {
            d[x] = c[(x + 4) % 5] ^ rotl(c[(x + 1) % 5], 1);
            for (int y = 0; y < 5; ++y) st[x + 5 * y] ^= d[x];
        }
        // Rho + Pi
        uint64_t b[25];
        for (int x = 0; x < 5; ++x) {
            for (int y = 0; y < 5; ++y) {
                b[y + 5 * ((2 * x + 3 * y) % 5)] =
                    rotl(st[x + 5 * y], kRho[x][y]);
            }
        }
        // Chi
        for (int x = 0; x < 5; ++x) {
            for (int y = 0; y < 5; ++y) {
                st[x + 5 * y] = b[x + 5 * y] ^
                    (~b[(x + 1) % 5 + 5 * y] & b[(x + 2) % 5 + 5 * y]);
            }
        }
        // Iota
        st[0] ^= kRoundConstants[round];
    }
}

void
Sponge256::absorb_block(const uint8_t *block)
{
    for (size_t i = 0; i < kRate / 8; ++i) {
        uint64_t lane = 0;
        for (size_t b = 0; b < 8; ++b) {
            lane |= (uint64_t)block[i * 8 + b] << (8 * b);
        }
        state_[i] ^= lane;
    }
    keccak_f1600(state_);
}

void
Sponge256::absorb(std::span<const uint8_t> data)
{
    size_t off = 0;
    while (off < data.size()) {
        size_t take = std::min(kRate - buf_len_, data.size() - off);
        std::memcpy(buf_.data() + buf_len_, data.data() + off, take);
        buf_len_ += take;
        off += take;
        if (buf_len_ == kRate) {
            absorb_block(buf_.data());
            buf_len_ = 0;
        }
    }
}

Digest
Sponge256::finalize()
{
    // Multi-rate padding: domain byte then 0..0 then 0x80 (may coincide).
    std::memset(buf_.data() + buf_len_, 0, kRate - buf_len_);
    buf_[buf_len_] = domain_;
    buf_[kRate - 1] |= 0x80;
    absorb_block(buf_.data());
    Digest out;
    for (size_t i = 0; i < 4; ++i) {
        for (size_t b = 0; b < 8; ++b) {
            out[i * 8 + b] = (uint8_t)(state_[i] >> (8 * b));
        }
    }
    return out;
}

Digest
sha3_256(std::span<const uint8_t> data)
{
    Sponge256 s(0x06);
    s.absorb(data);
    return s.finalize();
}

Digest
sha3_256(std::string_view s)
{
    Sponge256 sp(0x06);
    sp.absorb(s);
    return sp.finalize();
}

Digest
keccak_256(std::span<const uint8_t> data)
{
    Sponge256 s(0x01);
    s.absorb(data);
    return s.finalize();
}

Digest
keccak_256(std::string_view s)
{
    Sponge256 sp(0x01);
    sp.absorb(s);
    return sp.finalize();
}

std::string
digest_hex(const Digest &d)
{
    static const char digits[] = "0123456789abcdef";
    std::string s;
    s.reserve(64);
    for (uint8_t b : d) {
        s.push_back(digits[b >> 4]);
        s.push_back(digits[b & 0xf]);
    }
    return s;
}

}  // namespace zkspeed::hash
