/**
 * @file
 * Circuit builder, gate/wiring satisfaction, permutation-oracle and
 * identity-table tests.
 */
#include <gtest/gtest.h>

#include <functional>
#include <random>

#include "hyperplonk/circuit.hpp"
#include "hyperplonk/permutation.hpp"
#include "hyperplonk/protocol_common.hpp"

namespace {

using namespace zkspeed::hyperplonk;
using zkspeed::ff::Fr;

TEST(CircuitBuilder, ArithmeticGatesSatisfy)
{
    CircuitBuilder cb;
    Var x = cb.add_public_input(Fr::from_uint(3));
    Var y = cb.add_variable(Fr::from_uint(5));
    Var s = cb.add_addition(x, y);        // 8
    Var p = cb.add_multiplication(s, y);  // 40
    Var d = cb.add_subtraction(p, x);     // 37
    Var e = cb.add_constant_addition(d, Fr::from_uint(5));  // 42
    cb.assert_constant(e, Fr::from_uint(42));
    EXPECT_EQ(cb.value(e), Fr::from_uint(42));

    auto [index, wit] = cb.build();
    EXPECT_TRUE(wit.satisfies_gates(index));
    EXPECT_TRUE(wit.satisfies_wiring(index));
    EXPECT_EQ(index.num_public, 1u);
    EXPECT_EQ(wit.public_inputs(index)[0], Fr::from_uint(3));
}

TEST(CircuitBuilder, BooleanAndEqualityGates)
{
    CircuitBuilder cb;
    Var b0 = cb.add_variable(Fr::zero());
    Var b1 = cb.add_variable(Fr::one());
    cb.assert_boolean(b0);
    cb.assert_boolean(b1);
    Var s = cb.add_addition(b0, b1);
    cb.assert_equal(s, b1);
    auto [index, wit] = cb.build();
    EXPECT_TRUE(wit.satisfies_gates(index));
    EXPECT_TRUE(wit.satisfies_wiring(index));
}

TEST(CircuitBuilder, UnsatisfiedGateDetected)
{
    CircuitBuilder cb;
    Var x = cb.add_variable(Fr::from_uint(2));
    cb.assert_constant(x, Fr::from_uint(3));  // false on purpose
    auto [index, wit] = cb.build();
    EXPECT_FALSE(wit.satisfies_gates(index));
}

TEST(CircuitBuilder, PadsToPowerOfTwo)
{
    CircuitBuilder cb;
    Var x = cb.add_variable(Fr::one());
    for (int i = 0; i < 5; ++i) x = cb.add_addition(x, x);
    auto [index, wit] = cb.build(2);
    EXPECT_EQ(index.num_gates(), 8u);  // 5 gates -> 2^3
    EXPECT_TRUE(wit.satisfies_gates(index));
    EXPECT_TRUE(wit.satisfies_wiring(index));
}

TEST(CircuitIndex, IdentityMleValues)
{
    std::mt19937_64 rng(51);
    auto [index, wit] = random_circuit(4, rng);
    for (size_t j = 0; j < 3; ++j) {
        Mle id = index.identity_mle(j);
        for (size_t i = 0; i < 16; ++i) {
            EXPECT_EQ(id[i], Fr::from_uint(j * 16 + i));
        }
    }
}

class RandomCircuitTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(RandomCircuitTest, SatisfiesGatesAndWiring)
{
    std::mt19937_64 rng(60 + GetParam());
    auto [index, wit] = random_circuit(GetParam(), rng);
    EXPECT_TRUE(wit.satisfies_gates(index));
    EXPECT_TRUE(wit.satisfies_wiring(index));
    // The permutation must not be trivial (copy constraints exist).
    bool nontrivial = false;
    for (size_t j = 0; j < 3 && !nontrivial; ++j) {
        Mle id = index.identity_mle(j);
        nontrivial = !(index.sigma[j] == id);
    }
    EXPECT_TRUE(nontrivial);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomCircuitTest,
                         ::testing::Values(3, 4, 6, 8, 10));

TEST(RandomCircuit, WitnessSparsityStatistics)
{
    std::mt19937_64 rng(52);
    auto [index, wit] = random_circuit(12, rng, 0.1);
    size_t zeros = 0, ones = 0, dense = 0, total = 0;
    for (size_t j = 0; j < 2; ++j) {  // inputs follow the distribution
        for (size_t i = 0; i < index.num_gates(); ++i) {
            const Fr &v = wit.w[j][i];
            if (v.is_zero()) ++zeros;
            else if (v.is_one()) ++ones;
            else ++dense;
            ++total;
        }
    }
    // Paper Section 6.2: ~90% of witness scalars are 0/1.
    double sparse_frac = double(zeros + ones) / double(total);
    EXPECT_GT(sparse_frac, 0.80);
    EXPECT_LT(double(dense) / double(total), 0.25);
}

TEST(PermutationOracles, FractionAndProductIdentities)
{
    std::mt19937_64 rng(53);
    auto [index, wit] = random_circuit(5, rng);
    Fr beta = Fr::random(rng), gamma = Fr::random(rng);
    auto o = build_permutation_oracles(index, wit, beta, gamma);
    const size_t n = index.num_gates();

    // phi * D1 D2 D3 == N1 N2 N3 elementwise.
    for (size_t i = 0; i < n; ++i) {
        Fr d = (*o.d_parts[0])[i] * (*o.d_parts[1])[i] * (*o.d_parts[2])[i];
        Fr nn = (*o.n_parts[0])[i] * (*o.n_parts[1])[i] *
                (*o.n_parts[2])[i];
        EXPECT_EQ((*o.phi)[i] * d, nn) << i;
    }
    // Tree consistency: pi == p1 * p2 everywhere (including the root
    // slot, which encodes grand-product == 1).
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ((*o.pi)[i], (*o.p1)[i] * (*o.p2)[i]) << i;
    }
    // Grand product of phi over the hypercube is 1 for a valid wiring.
    Fr prod = Fr::one();
    for (size_t i = 0; i < n; ++i) prod *= (*o.phi)[i];
    EXPECT_TRUE(prod.is_one());
    // The tree root holds the grand product.
    EXPECT_TRUE((*o.pi)[n - 2].is_one());
}

TEST(PermutationOracles, BrokenWiringBreaksProduct)
{
    std::mt19937_64 rng(54);
    auto [index, wit] = random_circuit(5, rng);
    // Corrupt one witness value that participates in a copy constraint.
    Mle id = index.identity_mle(0);
    size_t victim = SIZE_MAX;
    for (size_t i = 0; i < index.num_gates(); ++i) {
        if (!(index.sigma[0][i] == id[i])) {
            victim = i;
            break;
        }
    }
    ASSERT_NE(victim, SIZE_MAX);
    wit.w[0][victim] += Fr::one();
    Fr beta = Fr::random(rng), gamma = Fr::random(rng);
    auto o = build_permutation_oracles(index, wit, beta, gamma);
    Fr prod = Fr::one();
    for (size_t i = 0; i < index.num_gates(); ++i) prod *= (*o.phi)[i];
    EXPECT_FALSE(prod.is_one());
    EXPECT_FALSE((*o.pi)[index.num_gates() - 2].is_one());
}

TEST(PermutationOracles, ChildEvaluationIdentity)
{
    // p1/p2 evaluations derive from phi/pi at the child points.
    std::mt19937_64 rng(55);
    auto [index, wit] = random_circuit(4, rng);
    auto o = build_permutation_oracles(index, wit, Fr::random(rng),
                                       Fr::random(rng));
    const size_t mu = 4;
    std::vector<Fr> x(mu);
    for (auto &v : x) v = Fr::random(rng);
    std::vector<Fr> u0(mu), u1(mu);
    u0[0] = Fr::zero();
    u1[0] = Fr::one();
    for (size_t k = 1; k < mu; ++k) u0[k] = u1[k] = x[k - 1];
    Fr p1 = eval_p1_from_children(x[mu - 1], o.phi->evaluate(u0),
                                  o.pi->evaluate(u0));
    Fr p2 = eval_p1_from_children(x[mu - 1], o.phi->evaluate(u1),
                                  o.pi->evaluate(u1));
    EXPECT_EQ(p1, o.p1->evaluate(x));
    EXPECT_EQ(p2, o.p2->evaluate(x));
}

/** Each identity table against an independent closed form of the same
 * constraint, at seeded random slot values: the product form of the
 * gate, the N/D form of the wiring identity and the Horner folds of the
 * lookup. */
TEST(IdentityTables, MatchClosedForms)
{
    using namespace detail;
    std::mt19937_64 rng(56);
    const Fr alpha = Fr::random(rng), lambda = Fr::random(rng),
             gamma = Fr::random(rng);
    using ClosedForm = std::function<Fr(const SlotValues &, const Fr &)>;
    auto gate = [](const SlotValues &v) {
        return v[kQl] * v[kW1] + v[kQr] * v[kW2] + v[kQm] * v[kW1] * v[kW2] -
               v[kQo] * v[kW3] + v[kQc];
    };
    const struct {
        const char *name;
        Identity id;
        size_t degree;
        ClosedForm closed;
    } cases[] = {
        {"gate", gate_identity(false), 4,
         [&](const SlotValues &v, const Fr &eq) { return eq * gate(v); }},
        {"custom gate", gate_identity(true), 7,
         [&](const SlotValues &v, const Fr &eq) {
             Fr w1sq = v[kW1] * v[kW1];
             return eq * (gate(v) + v[kQh] * w1sq * w1sq * v[kW1]);
         }},
        {"wiring", wiring_identity(alpha), 5,
         [&](const SlotValues &v, const Fr &eq) {
             Fr nd_n = v[kN1] * v[kN2] * v[kN3];
             Fr nd_d = v[kD1] * v[kD2] * v[kD3];
             return eq * (v[kPi] - v[kP1] * v[kP2] +
                          alpha * (v[kPhi] * nd_d - nd_n));
         }},
        {"lookup", lookup_identity(lambda, gamma, alpha), 3,
         [&](const SlotValues &v, const Fr &eq) {
             Fr f = lambda + v[kQLookup] +
                    gamma * (v[kW1] + gamma * (v[kW2] + gamma * v[kW3]));
             Fr t = lambda + v[kTTag] +
                    gamma * (v[kT1] + gamma * (v[kT2] + gamma * v[kT3]));
             return v[kHf] - v[kHt] +
                    alpha * (v[kHf] * f - v[kQLookup]) * eq +
                    alpha * alpha * (v[kHt] * t - v[kM]) * eq;
         }},
    };
    for (const auto &c : cases) {
        EXPECT_EQ(c.id.degree(), c.degree) << c.name;
        for (int trial = 0; trial < 8; ++trial) {
            SlotValues v;
            for (Fr &x : v) x = Fr::random(rng);
            const Fr eq = Fr::random(rng);
            EXPECT_EQ(evaluate(c.id, v, eq), c.closed(v, eq)) << c.name;
        }
    }
}

/** The prover's reading (MLEs, eq appended to each weighted term) and
 * the verifier's reading (values, times eq) of one table agree at a
 * random point. */
TEST(IdentityTables, ProverAndVerifierReadingsAgree)
{
    using namespace detail;
    std::mt19937_64 rng(57);
    const size_t mu = 3;
    std::vector<Mle> mles;
    for (size_t s = 0; s < kNumSlots; ++s) {
        mles.push_back(Mle::random(mu, rng));
    }
    SlotMles slots;
    for (size_t s = 0; s < kNumSlots; ++s) slots[s] = &mles[s];
    std::vector<Fr> r(mu), x(mu);
    for (Fr &c : r) c = Fr::random(rng);
    for (Fr &c : x) c = Fr::random(rng);
    const Mle eq = Mle::eq_table(r);
    SlotValues at_x;
    for (size_t s = 0; s < kNumSlots; ++s) at_x[s] = mles[s].evaluate(x);
    const Fr a = Fr::random(rng), b = Fr::random(rng), c = Fr::random(rng);
    for (const Identity &id : {gate_identity(false), gate_identity(true),
                               wiring_identity(a), lookup_identity(a, b, c)}) {
        const auto vp = bind_mles(id, slots, eq);
        EXPECT_EQ(vp.max_degree(), id.degree());
        EXPECT_EQ(vp.evaluate(x), evaluate(id, at_x, Mle::eq_eval(x, r)));
    }
}

/** The witness check reads the gate table with no multiply by a +-1
 * coefficient: 5 Fr muls per row. */
TEST(IdentityTables, WitnessCheckCostsFiveMulsPerRow)
{
    for (size_t mu : {5, 8}) {
        std::mt19937_64 rng(58);
        auto [index, wit] = random_circuit(mu, rng);
        zkspeed::ff::ModmulScope scope;
        ASSERT_TRUE(wit.satisfies_gates(index));
        EXPECT_EQ(scope.fr_delta(), 5 * index.num_gates()) << "mu " << mu;
    }
}

}  // namespace
