/**
 * @file
 * Build identity shared by every artifact envelope: the same payload
 * the `zkspeed_build_info` info-gauge carries (DESIGN.md §10), plus the
 * toolchain facts CI archaeology needs to tell two builds apart — git
 * describe, compiler banner and the compile flags. SLO_report.json,
 * ATTRIB_report.json, BENCH_*.json / BENCH_summary.json and the flight
 * recorder's FLIGHT_report.json all embed `build_info_json()` under a
 * top-level `"build"` key, so any artifact can be traced back to the
 * exact binary that produced it.
 *
 * The git / flags strings are baked in at compile time through the
 * `ZKSPEED_GIT_DESCRIBE` / `ZKSPEED_BUILD_FLAGS` definitions CMake
 * passes to zkspeed_obs ("unknown" when absent, e.g. non-CMake builds).
 */
#pragma once

#include <string>

#include "obs/jsonv.hpp"

namespace zkspeed::obs {

struct BuildInfo {
    std::string git;       ///< `git describe --always --dirty` at configure
    std::string compiler;  ///< compiler banner (__VERSION__)
    std::string flags;     ///< CMAKE_CXX_FLAGS + build-type flags
    std::string format;    ///< wire/serialization format version
    std::string features;  ///< enabled feature list
};

/** The process-wide build identity (computed once). */
const BuildInfo &build_info();

/** Ordered `{git, compiler, flags, format, features}` object. */
jsonv::Value build_info_json();

}  // namespace zkspeed::obs
