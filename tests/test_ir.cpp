/**
 * @file
 * Unit tests for the IR: gate kinds, gate semantics (inverse,
 * commutation), circuit editing, statistics, and remapping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "ir/circuit.hpp"
#include "ir/random_circuit.hpp"

using namespace qsyn;

TEST(GateKindTest, Properties)
{
    EXPECT_EQ(baseArity(GateKind::Swap), 2);
    EXPECT_EQ(baseArity(GateKind::H), 1);
    EXPECT_TRUE(isParameterized(GateKind::Rz));
    EXPECT_FALSE(isParameterized(GateKind::T));
    EXPECT_TRUE(isDiagonal(GateKind::T));
    EXPECT_FALSE(isDiagonal(GateKind::H));
    EXPECT_TRUE(isSelfInverse(GateKind::H));
    EXPECT_EQ(inverseKind(GateKind::S), GateKind::Sdg);
    EXPECT_EQ(inverseKind(GateKind::Tdg), GateKind::T);
    EXPECT_EQ(kindName(GateKind::Sdg), "sdg");
}

TEST(GateTest, Classification)
{
    EXPECT_TRUE(Gate::t(0).isTGate());
    EXPECT_TRUE(Gate::tdg(0).isTGate());
    EXPECT_FALSE(Gate::s(0).isTGate());
    EXPECT_FALSE(Gate(GateKind::T, {1}, {0}).isTGate()); // controlled-T
    EXPECT_TRUE(Gate::cnot(0, 1).isCnot());
    EXPECT_FALSE(Gate::x(0).isCnot());
    EXPECT_TRUE(Gate::ccx(0, 1, 2).isToffoli());
    EXPECT_TRUE(Gate::mcx({0, 1, 2}, 3).isGeneralizedToffoli());
}

TEST(GateTest, WireValidation)
{
    EXPECT_THROW(Gate::cnot(1, 1), InternalError);
    EXPECT_THROW(Gate::ccx(0, 0, 1), InternalError);
}

TEST(GateTest, ControlsAreCanonicallySorted)
{
    Gate a = Gate::mcx({3, 1, 2}, 0);
    Gate b = Gate::mcx({1, 2, 3}, 0);
    EXPECT_EQ(a, b);
}

TEST(GateTest, Inverse)
{
    EXPECT_EQ(Gate::h(0).inverse(), Gate::h(0));
    EXPECT_EQ(Gate::s(0).inverse(), Gate::sdg(0));
    EXPECT_EQ(Gate::rz(0, 0.5).inverse(), Gate::rz(0, -0.5));
    EXPECT_TRUE(Gate::t(0).isInverseOf(Gate::tdg(0)));
    EXPECT_TRUE(Gate::cnot(0, 1).isInverseOf(Gate::cnot(0, 1)));
    EXPECT_FALSE(Gate::cnot(0, 1).isInverseOf(Gate::cnot(1, 0)));
}

TEST(GateTest, SwapTargetsAreUnordered)
{
    EXPECT_EQ(Gate::swap(0, 1), Gate::swap(1, 0));
    EXPECT_TRUE(Gate::swap(0, 1).isInverseOf(Gate::swap(1, 0)));
}

TEST(GateTest, Commutation)
{
    // Disjoint wires always commute.
    EXPECT_TRUE(Gate::h(0).commutesWith(Gate::x(1)));
    // Diagonal gates commute with each other.
    EXPECT_TRUE(Gate::t(0).commutesWith(Gate::z(0)));
    EXPECT_TRUE(Gate::cz(0, 1).commutesWith(Gate::t(0)));
    // Diagonal on a control wire commutes with the controlled gate.
    EXPECT_TRUE(Gate::cnot(0, 1).commutesWith(Gate::z(0)));
    EXPECT_TRUE(Gate::cnot(0, 1).commutesWith(Gate::s(0)));
    // X on the target of a CNOT commutes.
    EXPECT_TRUE(Gate::cnot(0, 1).commutesWith(Gate::x(1)));
    EXPECT_TRUE(Gate::cnot(0, 1).commutesWith(Gate::cnot(2, 1)));
    // Non-commuting cases.
    EXPECT_FALSE(Gate::cnot(0, 1).commutesWith(Gate::x(0)));
    EXPECT_FALSE(Gate::cnot(0, 1).commutesWith(Gate::z(1)));
    EXPECT_FALSE(Gate::cnot(0, 1).commutesWith(Gate::cnot(1, 2)));
    EXPECT_FALSE(Gate::h(0).commutesWith(Gate::x(0)));
    // Mixed X/Z type on different shared wires must not commute.
    EXPECT_FALSE(Gate::cnot(0, 1).commutesWith(Gate::cnot(1, 0)));
}

namespace {

/** How a gate acts on one of its wires, as the commutation rule sees
 *  it. */
enum class RefAction
{
    Control,
    DiagTarget,
    XTarget,
    Other
};

RefAction
refClassify(const Gate &g, Qubit w)
{
    for (Qubit c : g.controls()) {
        if (c == w)
            return RefAction::Control;
    }
    if (!g.isUnitary())
        return RefAction::Other;
    if (isDiagonal(g.kind()))
        return RefAction::DiagTarget;
    if (g.kind() == GateKind::X || g.kind() == GateKind::Rx)
        return RefAction::XTarget;
    return RefAction::Other;
}

/** Reference commutation rule: walks a qubits() copy of `a`, one
 *  shared wire at a time. */
bool
referenceCommutes(const Gate &a, const Gate &b)
{
    if (!a.isUnitary() || !b.isUnitary())
        return false;
    for (Qubit w : a.qubits()) {
        if (!b.usesQubit(w))
            continue;
        RefAction x = refClassify(a, w), y = refClassify(b, w);
        bool z_like = (x == RefAction::Control ||
                       x == RefAction::DiagTarget) &&
                      (y == RefAction::Control ||
                       y == RefAction::DiagTarget);
        bool x_like = x == RefAction::XTarget && y == RefAction::XTarget;
        if (!z_like && !x_like)
            return false;
    }
    return true;
}

/**
 * Every unitary kind on 4 wires: each target (both orders for Swap),
 * 0-2 controls from the remaining wires, and for angle kinds the
 * angles t, -t, -t + 5e-11 (inside kEps of -t) and -t + 1e-9
 * (outside it).
 */
std::vector<Gate>
predicateGates()
{
    constexpr Qubit kWires = 4;
    const double t = 0.7;
    const double angles[] = {t, -t, -t + 5e-11, -t + 1e-9};
    std::vector<Gate> gates;
    auto add_controlled = [&](GateKind kind,
                              const std::vector<Qubit> &targets) {
        std::vector<Qubit> free;
        for (Qubit q = 0; q < kWires; ++q) {
            if (std::find(targets.begin(), targets.end(), q) ==
                targets.end())
                free.push_back(q);
        }
        std::vector<std::vector<Qubit>> control_sets = {{}};
        for (size_t i = 0; i < free.size(); ++i) {
            control_sets.push_back({free[i]});
            for (size_t j = i + 1; j < free.size(); ++j)
                control_sets.push_back({free[i], free[j]});
        }
        for (const auto &controls : control_sets) {
            if (!isParameterized(kind)) {
                gates.emplace_back(kind, controls, targets);
                continue;
            }
            for (double a : angles)
                gates.emplace_back(kind, controls, targets, a);
        }
    };
    for (int k = 0; k < kNumGateKinds; ++k) {
        auto kind = static_cast<GateKind>(k);
        if (!isUnitary(kind))
            continue;
        for (Qubit a = 0; a < kWires; ++a) {
            if (baseArity(kind) == 1) {
                add_controlled(kind, {a});
                continue;
            }
            for (Qubit b = 0; b < kWires; ++b) {
                if (b != a)
                    add_controlled(kind, {a, b});
            }
        }
    }
    return gates;
}

} // namespace

TEST(GateTest, PredicatesMatchTheirDefinitions)
{
    const std::vector<Gate> gates = predicateGates();
    ASSERT_GT(gates.size(), 700u);
    size_t inverse_pairs = 0, commuting_pairs = 0;
    for (const Gate &a : gates) {
        for (const Gate &b : gates) {
            bool inverse = a == b.inverse();
            inverse_pairs += inverse;
            ASSERT_EQ(a.isInverseOf(b), inverse)
                << a.toString() << " vs " << b.toString();
            bool commutes = referenceCommutes(a, b);
            commuting_pairs += commutes;
            ASSERT_EQ(a.commutesWith(b), commutes)
                << a.toString() << " vs " << b.toString();
        }
    }
    // Both predicates must have been exercised on both outcomes.
    EXPECT_GT(inverse_pairs, gates.size() / 2);
    EXPECT_GT(commuting_pairs, gates.size());
    EXPECT_LT(commuting_pairs, gates.size() * gates.size());
}

TEST(GateTest, ToString)
{
    EXPECT_EQ(Gate::cnot(2, 5).toString(), "cx q2 -> q5");
    EXPECT_EQ(Gate::ccx(0, 1, 2).toString(), "ccx q0, q1 -> q2");
    EXPECT_EQ(Gate::h(3).toString(), "h q3");
}

TEST(CircuitTest, AddValidatesWires)
{
    Circuit c(2);
    EXPECT_THROW(c.addH(2), InternalError);
    c.addH(1);
    EXPECT_EQ(c.size(), 1u);
}

TEST(CircuitTest, InverseReversesAndInverts)
{
    Circuit c(2);
    c.addH(0);
    c.addT(1);
    c.addCnot(0, 1);
    Circuit inv = c.inverse();
    ASSERT_EQ(inv.size(), 3u);
    EXPECT_TRUE(inv[0].isCnot());
    EXPECT_EQ(inv[1].kind(), GateKind::Tdg);
    EXPECT_EQ(inv[2].kind(), GateKind::H);
}

TEST(CircuitTest, EraseMany)
{
    Circuit c(1);
    for (int i = 0; i < 5; ++i)
        c.addT(0);
    c.eraseMany({0, 2, 4});
    EXPECT_EQ(c.size(), 2u);
    EXPECT_THROW(c.eraseMany({5}), InternalError);
}

TEST(CircuitTest, Stats)
{
    Circuit c(3);
    c.addT(0);
    c.addTdg(1);
    c.addCnot(0, 1);
    c.addCcx(0, 1, 2);
    c.add(Gate::barrier({0, 1, 2}));
    c.addH(2);
    CircuitStats s = computeStats(c);
    EXPECT_EQ(s.volume, 5u); // barrier excluded
    EXPECT_EQ(s.tCount, 2u);
    EXPECT_EQ(s.cnotCount, 1u);
    EXPECT_EQ(s.twoQubit, 1u);
    EXPECT_EQ(s.multiQubit, 1u);
}

TEST(CircuitTest, Remapped)
{
    Circuit c(2);
    c.addCnot(0, 1);
    Circuit r = c.remapped({5, 3}, 8);
    EXPECT_EQ(r.numQubits(), 8u);
    EXPECT_EQ(r[0].controls()[0], 5u);
    EXPECT_EQ(r[0].target(), 3u);
}

TEST(CircuitTest, NctPredicate)
{
    Circuit c(3);
    c.addX(0);
    c.addCnot(0, 1);
    c.addMcx({0, 1}, 2);
    EXPECT_TRUE(c.isNctCascade());
    c.addH(0);
    EXPECT_FALSE(c.isNctCascade());
}

TEST(RandomCircuitTest, RespectsOptions)
{
    Rng rng(1);
    RandomCircuitOptions opts;
    opts.numQubits = 3;
    opts.numGates = 50;
    opts.maxControls = 2;
    Circuit c = randomCircuit(rng, opts);
    EXPECT_EQ(c.size(), 50u);
    for (const Gate &g : c) {
        EXPECT_LE(g.numControls(), 2u);
        EXPECT_TRUE(g.isUnitary());
    }
}

TEST(RandomCircuitTest, NctCascadeIsNct)
{
    Rng rng(2);
    Circuit c = randomNctCascade(rng, 5, 30, 3);
    EXPECT_TRUE(c.isNctCascade());
    EXPECT_EQ(c.size(), 30u);
}

TEST(RandomCircuitTest, IdenticalSeedsYieldIdenticalCircuits)
{
    RandomCircuitOptions opts;
    opts.numQubits = 5;
    opts.numGates = 40;
    opts.maxControls = 2;
    opts.allowRotations = true;
    opts.seed = 0xfeedbeef;
    Circuit a = randomCircuit(opts);
    Circuit b = randomCircuit(opts);
    EXPECT_EQ(a, b);

    opts.seed = 0xfeedbef0;
    Circuit c = randomCircuit(opts);
    EXPECT_NE(a, c);
}

TEST(RandomCircuitTest, GateSetRestrictionIsHonored)
{
    RandomCircuitOptions opts;
    opts.numQubits = 4;
    opts.numGates = 30;
    opts.maxControls = 2;
    opts.seed = 99;

    opts.gateSet = RandomGateSet::Nct;
    Circuit nct = randomCircuit(opts);
    EXPECT_TRUE(nct.isNctCascade());

    opts.gateSet = RandomGateSet::CnotOnly;
    Circuit cnots = randomCircuit(opts);
    for (const Gate &g : cnots)
        EXPECT_TRUE(g.isCnot()) << g.toString();

    EXPECT_STREQ(randomGateSetName(RandomGateSet::CliffordT),
                 "clifford_t");
    EXPECT_STREQ(randomGateSetName(RandomGateSet::Nct), "nct");
    EXPECT_STREQ(randomGateSetName(RandomGateSet::CnotOnly), "cnot");
}
