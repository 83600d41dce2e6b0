/**
 * @file
 * Quickstart: prove and verify a tiny statement with HyperPlonk.
 *
 * The statement: "I know secret x, y such that (x + y) * y == 35 and
 * x is the public value 2". The circuit is built gate by gate, keys are
 * generated against a locally-simulated universal SRS, and the proof is
 * checked with the pairing-based verifier.
 */
#include <cstdio>
#include <random>

#include "hyperplonk/prover.hpp"

int
main()
{
    using namespace zkspeed;
    using namespace zkspeed::hyperplonk;
    using ff::Fr;

    // 1. Build the circuit (x = 2 public; y = 5 secret).
    CircuitBuilder cb;
    Var x = cb.add_public_input(Fr::from_uint(2));
    Var y = cb.add_variable(Fr::from_uint(5));
    Var s = cb.add_addition(x, y);        // s = x + y = 7
    Var p = cb.add_multiplication(s, y);  // p = s * y = 35
    cb.assert_constant(p, Fr::from_uint(35));
    auto [index, witness] = cb.build(/*min_vars=*/3);
    std::printf("Circuit: %zu gates (2^%zu), %zu public input(s)\n",
                index.num_gates(), index.num_vars, index.num_public);
    std::printf("Gate identity satisfied: %s; wiring satisfied: %s\n",
                witness.satisfies_gates(index) ? "yes" : "no",
                witness.satisfies_wiring(index) ? "yes" : "no");

    // 2. Universal setup (simulated locally; in production this is a
    // one-time ceremony reusable by every circuit of this size).
    std::mt19937_64 rng(std::random_device{}());
    auto srs = std::make_shared<pcs::Srs>(
        pcs::Srs::generate(index.num_vars, rng));

    // 3. Key generation: commit to the circuit's preprocessed index.
    auto [pk, vk] = keygen(std::move(index), srs);

    // 4. Prove.
    Proof proof = prove(pk, witness);
    std::printf("Proof generated: %zu bytes\n", proof.size_bytes());

    // 5. Verify.
    auto publics = witness.public_inputs(pk.index);
    bool ok = verify(vk, publics, proof);
    std::printf("Verification (pairing):  %s\n", ok ? "ACCEPT" : "REJECT");

    // 6. A wrong public input must be rejected.
    std::vector<Fr> wrong = publics;
    wrong[0] = Fr::from_uint(3);
    bool wrong_ok = verify(vk, wrong, proof);
    std::printf("Wrong public input:      %s (expected REJECT)\n",
                wrong_ok ? "ACCEPT" : "REJECT");
    return ok && !wrong_ok ? 0 : 1;
}
