/**
 * @file
 * Tests for the optimizer: every pass must preserve the exact unitary
 * (QMDD-checked), never increase cost, and fire on its target
 * patterns; the driver must reach a fixed point.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "device/registry.hpp"
#include "ir/random_circuit.hpp"
#include "opt/pipeline.hpp"
#include "qmdd/equivalence.hpp"
#include "route/ctr.hpp"

using namespace qsyn;
using namespace qsyn::opt;

namespace {

bool
sameUnitary(const Circuit &a, const Circuit &b)
{
    dd::Package pkg;
    return pkg.buildCircuit(a) == pkg.buildCircuit(b);
}

} // namespace

TEST(CostModel, PaperEquation2)
{
    // #1's technology-independent metrics: 7 T, 7 CNOT, 17 gates
    // -> 0.5*7 + 0.25*7 + 17 = 22.25 (Table 3).
    Circuit c(3);
    for (int i = 0; i < 7; ++i)
        c.addT(0);
    for (int i = 0; i < 7; ++i)
        c.addCnot(0, 1);
    for (int i = 0; i < 3; ++i)
        c.addH(2);
    CostModel model;
    EXPECT_DOUBLE_EQ(model.cost(c), 22.25);
}

TEST(CostModel, CustomWeights)
{
    Circuit c(2);
    c.addT(0);
    c.addCnot(0, 1);
    CostWeights w;
    w.tWeight = 10.0;
    w.cnotWeight = 5.0;
    w.gateWeight = 2.0;
    CostModel model(w);
    EXPECT_DOUBLE_EQ(model.cost(c), 10.0 + 5.0 + 2.0 * 2);
}

TEST(Cancellation, AdjacentInversePairs)
{
    Circuit c(2);
    c.addH(0);
    c.addH(0);
    c.addCnot(0, 1);
    c.addCnot(0, 1);
    c.addT(1);
    c.addTdg(1);
    EXPECT_TRUE(cancelInversePairs(c));
    EXPECT_EQ(c.size(), 0u);
}

TEST(Cancellation, CommutesThroughDiagonalOnControl)
{
    // CNOT(0,1) Z(0) CNOT(0,1): the Z commutes with the control, so
    // the CNOTs cancel.
    Circuit c(2);
    c.addCnot(0, 1);
    c.addZ(0);
    c.addCnot(0, 1);
    Circuit before = c;
    EXPECT_TRUE(cancelInversePairs(c));
    EXPECT_EQ(c.size(), 1u);
    EXPECT_EQ(c[0].kind(), GateKind::Z);
    EXPECT_TRUE(sameUnitary(before, c));
}

TEST(Cancellation, CommutesThroughXOnTarget)
{
    Circuit c(2);
    c.addCnot(0, 1);
    c.addX(1);
    c.addCnot(0, 1);
    Circuit before = c;
    EXPECT_TRUE(cancelInversePairs(c));
    EXPECT_EQ(c.size(), 1u);
    EXPECT_TRUE(sameUnitary(before, c));
}

TEST(Cancellation, BlockedByNonCommutingGate)
{
    // H on the target does not commute with CNOT; nothing cancels.
    Circuit c(2);
    c.addCnot(0, 1);
    c.addH(1);
    c.addCnot(0, 1);
    EXPECT_FALSE(cancelInversePairs(c));
    EXPECT_EQ(c.size(), 3u);
}

TEST(Cancellation, BarrierBlocksCancellation)
{
    Circuit c(1);
    c.addH(0);
    c.add(Gate::barrier({0}));
    c.addH(0);
    EXPECT_FALSE(cancelInversePairs(c));
}

TEST(RotationMerge, PhaseFamilyComposes)
{
    // T T = S; S S = Z; T S T = Z.
    Circuit c(1);
    c.addT(0);
    c.addT(0);
    Circuit before = c;
    EXPECT_TRUE(mergeRotations(c));
    ASSERT_EQ(c.size(), 1u);
    EXPECT_EQ(c[0].kind(), GateKind::S);
    EXPECT_TRUE(sameUnitary(before, c));
}

TEST(RotationMerge, TSdgCancels)
{
    Circuit c(1);
    c.addT(0);
    c.addT(0);
    c.addS(0);
    c.addZ(0);
    // total phase: pi/4+pi/4+pi/2+pi = 2pi -> identity.
    EXPECT_TRUE(mergeRotations(c));
    EXPECT_EQ(c.size(), 0u);
}

TEST(RotationMerge, RotationAnglesAdd)
{
    Circuit c(1);
    c.add(Gate::rz(0, 0.4));
    c.add(Gate::rz(0, 0.5));
    Circuit before = c;
    EXPECT_TRUE(mergeRotations(c));
    ASSERT_EQ(c.size(), 1u);
    EXPECT_NEAR(c[0].param(), 0.9, 1e-12);
    EXPECT_TRUE(sameUnitary(before, c));
}

TEST(RotationMerge, RzFullTurnIsNotIdentity)
{
    // Rz(2pi) = -I: merging two Rz(pi) must NOT delete the gate.
    Circuit c(1);
    c.add(Gate::rz(0, M_PI));
    c.add(Gate::rz(0, M_PI));
    Circuit before = c;
    mergeRotations(c);
    EXPECT_TRUE(sameUnitary(before, c));
    EXPECT_EQ(c.size(), 1u); // merged but kept
}

TEST(RotationMerge, ControlledPhasesComposeToo)
{
    Circuit c(2);
    c.add(Gate(GateKind::S, {0}, {1}));
    c.add(Gate(GateKind::S, {0}, {1}));
    Circuit before = c;
    EXPECT_TRUE(mergeRotations(c));
    ASSERT_EQ(c.size(), 1u);
    EXPECT_EQ(c[0].kind(), GateKind::Z);
    EXPECT_EQ(c[0].numControls(), 1u);
    EXPECT_TRUE(sameUnitary(before, c));
}

TEST(HadamardRules, HXHBecomesZ)
{
    Circuit c(1);
    c.addH(0);
    c.addX(0);
    c.addH(0);
    Circuit before = c;
    EXPECT_TRUE(applyHadamardRules(c, nullptr));
    ASSERT_EQ(c.size(), 1u);
    EXPECT_EQ(c[0].kind(), GateKind::Z);
    EXPECT_TRUE(sameUnitary(before, c));
}

TEST(HadamardRules, CnotReversalCollapses)
{
    Circuit c(2);
    c.addH(0);
    c.addH(1);
    c.addCnot(1, 0);
    c.addH(0);
    c.addH(1);
    Circuit before = c;
    EXPECT_TRUE(applyHadamardRules(c, nullptr));
    ASSERT_EQ(c.size(), 1u);
    EXPECT_TRUE(c[0].isCnot());
    EXPECT_EQ(c[0].controls()[0], 0u);
    EXPECT_EQ(c[0].target(), 1u);
    EXPECT_TRUE(sameUnitary(before, c));
}

TEST(HadamardRules, CnotReversalRespectsCouplingMap)
{
    // On ibmqx4 the edge 0 -> 1 does NOT exist (only 1 -> 0, 2 -> 0/1),
    // so the rewrite toward CNOT(0,1) must not fire.
    Device dev = makeIbmqx4();
    ASSERT_FALSE(dev.coupling().hasEdge(0, 1));
    Circuit c(5);
    c.addH(0);
    c.addH(1);
    c.addCnot(1, 0);
    c.addH(0);
    c.addH(1);
    EXPECT_FALSE(applyHadamardRules(c, &dev));
    EXPECT_EQ(c.size(), 5u);
}

TEST(WindowIdentity, RemovesSwapSwapSequence)
{
    // Two back-to-back 3-CNOT swaps form a 6-gate identity window that
    // pairwise cancellation alone also finds; the window pass must too.
    Circuit c(2);
    for (int rep = 0; rep < 2; ++rep) {
        c.addCnot(0, 1);
        c.addCnot(1, 0);
        c.addCnot(0, 1);
    }
    // Not a simple inverse pair at the seam? It is; so hand the window
    // pass a harder shape: conjugated identity.
    Circuit d(2);
    d.addH(0);
    d.addCnot(0, 1);
    d.addCnot(0, 1);
    d.addH(0);
    EXPECT_TRUE(removeIdentityWindows(d, 2, 8));
    EXPECT_EQ(d.size(), 0u);
    EXPECT_TRUE(removeIdentityWindows(c, 2, 8));
    EXPECT_EQ(c.size(), 0u);
}

TEST(WindowIdentity, LeavesNonIdentityAlone)
{
    Circuit c(2);
    c.addH(0);
    c.addCnot(0, 1);
    c.addT(1);
    EXPECT_FALSE(removeIdentityWindows(c, 2, 8));
    EXPECT_EQ(c.size(), 3u);
}

TEST(WindowIdentity, SkipsDisjointInterleavedGates)
{
    // X(2) interleaves a window on {0,1}; it must survive.
    Circuit c(3);
    c.addH(0);
    c.addX(2);
    c.addH(0);
    Circuit before = c;
    EXPECT_TRUE(removeIdentityWindows(c, 2, 8));
    EXPECT_EQ(c.size(), 1u);
    EXPECT_EQ(c[0].kind(), GateKind::X);
    EXPECT_TRUE(sameUnitary(before, c));
}

TEST(Pipeline, ReachesFixedPointAndReports)
{
    Circuit c(2);
    c.addH(0);
    c.addH(0);
    c.addT(1);
    c.addT(1);
    c.addCnot(0, 1);

    OptimizerOptions opts;
    OptimizeReport report;
    Circuit out = optimizeCircuit(c, opts, &report);
    EXPECT_LT(report.finalCost, report.initialCost);
    EXPECT_GT(report.percentCostDecrease(), 0.0);
    EXPECT_TRUE(sameUnitary(c, out));
    // H H gone; T T -> S; CNOT remains: 2 gates.
    EXPECT_EQ(out.size(), 2u);
}

TEST(Pipeline, RandomCircuitsPreserveUnitary)
{
    Rng rng(77);
    RandomCircuitOptions ropts;
    ropts.numQubits = 4;
    ropts.numGates = 60;
    ropts.allowRotations = true;
    for (int trial = 0; trial < 8; ++trial) {
        Circuit c = randomCircuit(rng, ropts);
        OptimizerOptions opts;
        OptimizeReport report;
        Circuit out = optimizeCircuit(c, opts, &report);
        EXPECT_LE(report.finalCost, report.initialCost);
        EXPECT_TRUE(sameUnitary(c, out)) << "trial " << trial;
    }
}

TEST(Pipeline, RoutedCircuitStaysLegalAfterOptimization)
{
    Device dev = makeIbmqx3();
    Circuit c(16);
    c.addCnot(5, 10);
    c.addCnot(5, 10); // the pair should largely cancel post-routing
    Circuit routed = route::routeCircuit(c, dev);

    OptimizerOptions opts;
    opts.device = &dev;
    OptimizeReport report;
    Circuit out = optimizeCircuit(routed, opts, &report);
    EXPECT_LT(report.finalCost, report.initialCost);
    for (const Gate &g : out) {
        if (g.isCnot()) {
            EXPECT_TRUE(dev.coupling().hasEdge(g.controls()[0],
                                               g.target()));
        }
    }
    dd::Package pkg;
    dd::EquivalenceChecker checker(pkg);
    EXPECT_TRUE(dd::isEquivalent(checker.check(routed, out)));
}
