#include "ff/lanes8.hpp"

#include <stdexcept>

namespace zkspeed::ff {

namespace {

template <typename Lanes>
[[gnu::always_inline]] inline void
mul_on(Fq *out, const Fq *a, const Fq *b)
{
    Lanes::store(out,
                 Lanes::mul(Lanes::load(a, kLanes), Lanes::load(b, kLanes),
                            kLanes),
                 kLanes);
}

#if ZKSPEED_IFMA_KERNEL
ZKSPEED_IFMA_TARGET void
mul_ifma(Fq *out, const Fq *a, const Fq *b)
{
    mul_on<IfmaLanes>(out, a, b);
}
#endif

}  // namespace

void
mul_lanes8(LaneKernel k, Fq *out, const Fq *a, const Fq *b)
{
    if (k == LaneKernel::portable8) {
        mul_on<PortableLanes>(out, a, b);
        return;
    }
#if ZKSPEED_IFMA_KERNEL
    if (detail::g_use_ifma_lanes) {
        mul_ifma(out, a, b);
        return;
    }
#endif
    throw std::logic_error("mul_lanes8: this CPU has no AVX-512 IFMA");
}

}  // namespace zkspeed::ff
