/**
 * @file
 * Unit tests for the IR: gate kinds, gate semantics (inverse,
 * commutation), circuit editing, statistics, and remapping.
 */

#include <gtest/gtest.h>

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
