#include "obs/build_info.hpp"

#include "ff/lanes8.hpp"
#include "ff/mont_adx.hpp"

namespace zkspeed::obs {

namespace {

#ifndef ZKSPEED_GIT_DESCRIBE
#define ZKSPEED_GIT_DESCRIBE "unknown"
#endif
#ifndef ZKSPEED_BUILD_FLAGS
#define ZKSPEED_BUILD_FLAGS "unknown"
#endif

#if defined(__VERSION__)
#if defined(__clang__)
#define ZKSPEED_COMPILER "clang " __VERSION__
#else
#define ZKSPEED_COMPILER "gcc " __VERSION__
#endif
#else
#define ZKSPEED_COMPILER "unknown"
#endif

}  // namespace

const BuildInfo &
build_info()
{
    static const BuildInfo info = [] {
        BuildInfo b;
        b.git = ZKSPEED_GIT_DESCRIBE;
        b.compiler = ZKSPEED_COMPILER;
        b.flags = ZKSPEED_BUILD_FLAGS;
        // Keep these two in lockstep with register_build_info(): the
        // gauge's label payload and the artifact envelopes must agree
        // on what the build is.
        b.format = "v3";
        // srs=simulated: every SRS is derived from a seed, not a
        // ceremony. fq-batch= names the lane kernel of the batch-affine
        // adds, and the last entry the Montgomery multiply this process
        // selected, so a silent fallback to a portable path shows.
        b.features = std::string("lookup,keccak,loadgen,attrib,http,log,"
                                 "flight,srs=simulated,fq-batch=") +
                     ff::lane_kernel_name() + "," + ff::mont_mul_kernel();
        return b;
    }();
    return info;
}

jsonv::Value
build_info_json()
{
    const BuildInfo &b = build_info();
    jsonv::Value o = jsonv::Value::object();
    o.set("git", jsonv::Value::of(b.git));
    o.set("compiler", jsonv::Value::of(b.compiler));
    o.set("flags", jsonv::Value::of(b.flags));
    o.set("format", jsonv::Value::of(b.format));
    o.set("features", jsonv::Value::of(b.features));
    return o;
}

}  // namespace zkspeed::obs
