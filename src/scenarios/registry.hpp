/**
 * @file
 * The scenario registry: every workload family the conformance harness
 * knows how to generate, honest and adversarial, behind one
 * name-indexed factory.
 *
 * A Family couples a builder with its declared expected Outcome; the
 * conformance suite (tests/test_scenarios.cpp) enumerates the registry
 * and drives every family end to end through prove -> wire ->
 * ProofService -> BatchVerifier -> sim replay, so adding a Family here
 * is all it takes to put a new workload under cross-layer test. See
 * DESIGN.md Section 7 for the how-to.
 */
#pragma once

#include <vector>

#include "scenarios/scenario.hpp"

namespace zkspeed::scenarios {

/** One registered workload family. */
struct Family {
    std::string name;
    std::string description;
    Outcome expected = Outcome::accept;
    /** Expand a Spec (whose name must match) into concrete material. */
    std::function<Instance(const Spec &)> build;

    bool adversarial() const { return expected != Outcome::accept; }
};

class Registry
{
  public:
    /** The process-wide registry holding every built-in family. */
    static const Registry &global();

    const std::vector<Family> &families() const { return families_; }
    size_t size() const { return families_.size(); }

    /** @return nullptr when no family carries that name. */
    const Family *find(const std::string &name) const;

    /**
     * Expand a Spec through its family builder.
     * @throws std::out_of_range on an unregistered name.
     */
    Instance build(const Spec &spec) const;

    /**
     * One Spec per family at its default knobs, every seed derived from
     * `seed`: the canonical conformance sweep. `log_size` floors each
     * circuit (families may exceed it).
     */
    std::vector<Spec> default_suite(uint64_t seed,
                                    size_t log_size = 4) const;

  private:
    Registry();

    std::vector<Family> families_;
};

}  // namespace zkspeed::scenarios
