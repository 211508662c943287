/**
 * @file
 * Tests for placement and routing (CTR and the sabre lookahead
 * router): routed circuits must use only native CNOT directions and
 * stay exactly equivalent to their inputs, and the two strategies
 * must agree with each other on every device in the registry.
 */

#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "device/registry.hpp"
#include "ir/random_circuit.hpp"
#include "qmdd/equivalence.hpp"
#include "route/placement.hpp"
#include "route/router.hpp"

using namespace qsyn;
using namespace qsyn::route;

namespace {

/** Every CNOT must sit on a native directed edge. */
void
expectLegal(const Circuit &circuit, const Device &device)
{
    for (const Gate &g : circuit) {
        if (g.isCnot()) {
            EXPECT_TRUE(
                device.coupling().hasEdge(g.controls()[0], g.target()))
                << g.toString() << " illegal on " << device.name();
        } else if (g.kind() != GateKind::Barrier) {
            EXPECT_LE(g.numQubits(), 1u) << g.toString();
        }
    }
}

bool
sameUnitary(const Circuit &a, const Circuit &b)
{
    dd::Package pkg;
    dd::EquivalenceChecker checker(pkg);
    return dd::isEquivalent(checker.check(a, b));
}

} // namespace

TEST(Ctr, NativeCnotPassesThrough)
{
    Device dev = makeIbmqx2(); // 0 -> 1 available
    Circuit c(5);
    c.addCnot(0, 1);
    RouteStats stats;
    Circuit routed = routeCircuit(c, dev, &stats);
    EXPECT_EQ(routed.size(), 1u);
    EXPECT_EQ(stats.nativeCnots, 1u);
    EXPECT_EQ(stats.reroutedCnots, 0u);
}

TEST(Ctr, ReversedCnotGetsFourHadamards)
{
    Device dev = makeIbmqx2(); // 1 -> 0 NOT available, 0 -> 1 is
    Circuit c(5);
    c.addCnot(1, 0);
    RouteStats stats;
    Circuit routed = routeCircuit(c, dev, &stats);
    EXPECT_EQ(routed.size(), 5u); // Fig. 6: 4 H + 1 CNOT
    EXPECT_EQ(stats.reversedCnots, 1u);
    expectLegal(routed, dev);
    EXPECT_TRUE(sameUnitary(c, routed));
}

TEST(Ctr, PaperFigure5Example)
{
    // Fig. 5: CNOT with q5 control, q10 target on ibmqx3 needs
    // rerouting; the paper's shortest route uses two SWAPs
    // (q5<->q12, q12<->q11), then CNOT q11 -> q10, then swap back.
    Device dev = makeIbmqx3();
    EXPECT_FALSE(dev.coupling().hasUndirectedEdge(5, 10));
    auto path = dev.coupling().shortestPathToNeighbor(5, 10);
    ASSERT_EQ(path.size(), 3u); // q5 -> q12 -> q11: two SWAPs
    EXPECT_EQ(path[0], 5u);

    Circuit c(16);
    c.addCnot(5, 10);
    RouteStats stats;
    Circuit routed = routeCircuit(c, dev, &stats);
    EXPECT_EQ(stats.reroutedCnots, 1u);
    EXPECT_EQ(stats.swapsInserted, 4u); // 2 out + 2 back
    expectLegal(routed, dev);
    EXPECT_TRUE(sameUnitary(c, routed));
}

TEST(Ctr, DisconnectedQubitsThrow)
{
    // A custom map with an unreachable island.
    CouplingMap map(4);
    map.addEdge(0, 1);
    map.addEdge(2, 3);
    Device dev("island", 4, map);
    Circuit c(4);
    c.addCnot(0, 3);
    EXPECT_THROW(routeCircuit(c, dev), MappingError);
}

TEST(Ctr, TooWideCircuitThrows)
{
    Device dev = makeIbmqx2();
    Circuit c(6);
    c.addCnot(0, 5);
    EXPECT_THROW(routeCircuit(c, dev), MappingError);
}

TEST(Ctr, RandomCircuitsStayEquivalentOnEveryIbmDevice)
{
    Rng rng(42);
    for (const Device &dev : ibmTableDevices()) {
        RandomCircuitOptions opts;
        opts.numQubits = std::min<Qubit>(5, dev.numQubits());
        opts.numGates = 25;
        Circuit c = randomCircuit(rng, opts);
        RouteStats stats;
        Circuit routed = routeCircuit(c, dev, &stats);
        expectLegal(routed, dev);
        EXPECT_TRUE(sameUnitary(c, routed)) << dev.name();
    }
}

TEST(Ctr, SimulatorNeedsNoRouting)
{
    Device dev = Device::simulator(8);
    Rng rng(5);
    RandomCircuitOptions opts;
    opts.numQubits = 8;
    opts.numGates = 30;
    Circuit c = randomCircuit(rng, opts);
    RouteStats stats;
    Circuit routed = routeCircuit(c, dev, &stats);
    EXPECT_EQ(routed.size(), c.size());
    EXPECT_EQ(stats.reroutedCnots, 0u);
    EXPECT_EQ(stats.reversedCnots, 0u);
}

namespace {

/** Directed 3-qubit line with both arrows pointing at q1: the
 *  smallest device where a reroute must land its CNOT against the
 *  coupling direction (q1 couples *into* nothing). */
Device
makeInwardV()
{
    CouplingMap map(3);
    map.addEdge(0, 1);
    map.addEdge(2, 1);
    return Device("inward_v", 3, map);
}

} // namespace

TEST(Ctr, ExactCountersOnReversedReroute)
{
    // CNOT(0, 2) on the inward V: one SWAP walks the control from q0
    // to q1, the CNOT must then run q1 -> q2 against the only edge
    // (2 -> 1), and one SWAP walks back. The far-end reversal must
    // show up in reversedCnots, not just hInserted.
    Device dev = makeInwardV();
    Circuit c(3);
    c.addCnot(0, 2);
    RouteStats stats;
    Circuit routed = routeCircuit(c, dev, &stats);
    EXPECT_EQ(stats.nativeCnots, 0u);
    EXPECT_EQ(stats.reroutedCnots, 1u);
    EXPECT_EQ(stats.swapsInserted, 2u); // 1 out + 1 back
    EXPECT_EQ(stats.reversedCnots, 1u); // the far-end reversal
    EXPECT_EQ(stats.hInserted, 4u);
    expectLegal(routed, dev);
    EXPECT_TRUE(sameUnitary(c, routed));
}

TEST(Sabre, ExactCountersOnReversedReroute)
{
    // Same far-end reversal under the lookahead router: one heuristic
    // SWAP brings q0's wire next to q2, the CNOT runs against the only
    // edge (2 -> 1), and the epilogue spends one SWAP restoring the
    // identity layout. Nothing needs the forced reroute.
    Device dev = makeInwardV();
    Circuit c(3);
    c.addCnot(0, 2);
    RouteOptions opts;
    opts.router = RouterKind::Sabre;
    RouteStats stats;
    Circuit routed = routeCircuit(c, dev, &stats, opts);
    EXPECT_EQ(stats.reroutedCnots, 0u);
    EXPECT_EQ(stats.reversedCnots, 1u);
    EXPECT_EQ(stats.hInserted, 4u);
    EXPECT_EQ(stats.swapsInserted, 2u); // 1 lookahead + 1 restore
    EXPECT_EQ(stats.lookaheadSwaps, 1u);
    EXPECT_EQ(stats.restoreSwaps, 1u);
    expectLegal(routed, dev);
    EXPECT_TRUE(sameUnitary(c, routed));
}

TEST(Placement, IdentityIsIdentity)
{
    Device dev = makeIbmqx5();
    auto p = identityPlacement(10, dev);
    for (Qubit i = 0; i < 10; ++i)
        EXPECT_EQ(p[i], i);
}

TEST(Placement, GreedyIsAPermutationIntoDevice)
{
    Device dev = makeIbmqx5();
    Rng rng(9);
    RandomCircuitOptions opts;
    opts.numQubits = 8;
    opts.numGates = 40;
    Circuit c = randomCircuit(rng, opts);
    auto p = greedyPlacement(c, dev);
    ASSERT_EQ(p.size(), 8u);
    std::vector<bool> seen(dev.numQubits(), false);
    for (Qubit phys : p) {
        ASSERT_LT(phys, dev.numQubits());
        EXPECT_FALSE(seen[phys]);
        seen[phys] = true;
    }
}

TEST(Placement, GreedyPlacementReducesOrMatchesRoutedSize)
{
    // A chain-shaped circuit on ibmqx3 should route with no more
    // gates under greedy placement than under identity.
    Device dev = makeIbmqx3();
    Circuit c(4);
    c.addCnot(0, 1);
    c.addCnot(1, 2);
    c.addCnot(2, 3);
    c.addCnot(0, 3);

    Circuit id_placed =
        applyPlacement(c, identityPlacement(4, dev), dev);
    Circuit gr_placed = applyPlacement(c, greedyPlacement(c, dev), dev);
    Circuit id_routed = routeCircuit(id_placed, dev);
    Circuit gr_routed = routeCircuit(gr_placed, dev);
    EXPECT_LE(gr_routed.size(), id_routed.size());
}

TEST(Placement, ApplyPlacementRemapsWires)
{
    Device dev = makeIbmqx5();
    Circuit c(2);
    c.addCnot(0, 1);
    std::vector<Qubit> p{6, 11};
    Circuit placed = applyPlacement(c, p, dev);
    EXPECT_EQ(placed.numQubits(), dev.numQubits());
    EXPECT_EQ(placed[0].controls()[0], 6u);
    EXPECT_EQ(placed[0].target(), 11u);
}

TEST(Sabre, SingleQubitGatesFollowTheLayout)
{
    // SWAPs move wires; a later gate on a moved wire must land on the
    // wire's *current* physical home, and the epilogue must still
    // restore the overall unitary. H does not commute with the CNOT's
    // control and T does not commute with its target, so both run
    // after the SWAPs rather than as roots through the identity
    // layout.
    Device dev = makeIbmqx3();
    Circuit c(16, "follow");
    c.addCnot(5, 10); // not adjacent on ibmqx3: needs swaps
    c.addH(5);
    c.addT(10);
    RouteOptions opts;
    opts.router = RouterKind::Sabre;
    RouteStats stats;
    Circuit routed = routeCircuit(c, dev, &stats, opts);
    expectLegal(routed, dev);
    EXPECT_GT(stats.swapsInserted, 0u);
    EXPECT_TRUE(sameUnitary(c, routed));
}

TEST(Sabre, WideCircuitWithManySingleQubitGates)
{
    // The 96-qubit machine with thousands of single-qubit gates: the
    // case a per-gate remap through a temporary circuit makes
    // quadratic. Every 1q gate must land on its wire's current
    // physical home and survive the SWAPs around it.
    Device dev = makeProposed96();
    Rng rng(77);
    Circuit c(96, "wide");
    size_t t_gates = 0;
    for (int round = 0; round < 40; ++round) {
        for (Qubit q = 0; q < 96; ++q) {
            if (rng.chance(0.5)) {
                c.addT(q);
                ++t_gates;
            }
        }
        Qubit a = static_cast<Qubit>(rng.below(96));
        Qubit b = static_cast<Qubit>(rng.below(96));
        if (a != b)
            c.addCnot(a, b);
    }
    RouteOptions opts;
    opts.router = RouterKind::Sabre;
    RouteStats stats;
    Circuit routed = routeCircuit(c, dev, &stats, opts);
    expectLegal(routed, dev);
    size_t routed_t = 0;
    for (const Gate &g : routed) {
        if (g.isTGate())
            ++routed_t;
    }
    EXPECT_EQ(routed_t, t_gates);
    EXPECT_GT(stats.swapsInserted, 0u);
}

namespace {

Circuit
seededCnotHeavy(std::uint64_t seed, Qubit num_qubits, size_t num_gates)
{
    RandomCircuitOptions opts;
    opts.numQubits = num_qubits;
    opts.numGates = num_gates;
    opts.cnotFraction = 0.7;
    opts.seed = seed;
    return randomCircuit(opts);
}

} // namespace

TEST(Sabre, EquivalentToCtrAcrossTheDeviceRegistry)
{
    // The acceptance sweep: >= 50 seeded circuits across every device
    // in the registry; sabre must be legal and QMDD-equivalent to ctr
    // on each (both restore the identity layout, so the two routed
    // circuits must agree as full unitaries).
    size_t cases = 0;
    for (const Device &dev : allBuiltinDevices()) {
        for (std::uint64_t seed = 1; seed <= 7; ++seed) {
            Circuit c = seededCnotHeavy(
                seed * 1031, std::min<Qubit>(6, dev.numQubits()), 24);
            Circuit placed =
                applyPlacement(c, greedyPlacement(c, dev), dev);

            RouteOptions ctr_opts;
            Circuit by_ctr = routeCircuit(placed, dev, nullptr, ctr_opts);
            RouteOptions sabre_opts;
            sabre_opts.router = RouterKind::Sabre;
            RouteStats stats;
            Circuit by_sabre =
                routeCircuit(placed, dev, &stats, sabre_opts);

            expectLegal(by_sabre, dev);
            EXPECT_TRUE(sameUnitary(by_ctr, by_sabre))
                << dev.name() << " seed " << seed;
            ++cases;
        }
    }
    EXPECT_GE(cases, 50u);
}

TEST(Sabre, ReducesSwapsOnSparseTopologies)
{
    // The lookahead heuristic's reason to exist: fewer SWAPs than
    // per-CNOT swap-back routing on line and grid couplings.
    for (const char *name : {"line_16", "grid_16"}) {
        Device dev = builtinDevice(name);
        Circuit c = seededCnotHeavy(0xabcd, 16, 120);
        Circuit placed = applyPlacement(c, greedyPlacement(c, dev), dev);

        RouteStats ctr_stats;
        routeCircuit(placed, dev, &ctr_stats, {});
        RouteOptions opts;
        opts.router = RouterKind::Sabre;
        RouteStats sabre_stats;
        routeCircuit(placed, dev, &sabre_stats, opts);
        EXPECT_LT(sabre_stats.swapsInserted, ctr_stats.swapsInserted)
            << name;
    }
}

TEST(Sabre, MeasuresAndBarriersSurviveRouting)
{
    Device dev = makeIbmqx4();
    Circuit c(5, "mixed");
    c.addCnot(0, 4); // distant on qx4
    c.add(Gate::barrier({0, 1, 2, 3, 4}));
    c.addT(0);
    c.add(Gate::measure(0, 0));
    RouteOptions opts;
    opts.router = RouterKind::Sabre;
    Circuit routed = routeCircuit(c, dev, nullptr, opts);
    expectLegal(routed, dev);
    size_t measures = 0, barriers = 0;
    for (const Gate &g : routed) {
        if (g.kind() == GateKind::Measure)
            ++measures;
        if (g.kind() == GateKind::Barrier)
            ++barriers;
    }
    EXPECT_EQ(measures, 1u);
    EXPECT_EQ(barriers, 1u);
}

TEST(Sabre, FidelityAwareStaysEquivalent)
{
    Device dev = makeIbmqx5();
    dev.attachSyntheticCalibration(0xfeed);
    Circuit c = seededCnotHeavy(99, 6, 30);
    Circuit placed = applyPlacement(c, greedyPlacement(c, dev), dev);
    Circuit by_ctr = routeCircuit(placed, dev, nullptr, {});
    RouteOptions opts;
    opts.router = RouterKind::Sabre;
    opts.fidelityAware = true;
    Circuit by_sabre = routeCircuit(placed, dev, nullptr, opts);
    expectLegal(by_sabre, dev);
    EXPECT_TRUE(sameUnitary(by_ctr, by_sabre));
}

TEST(Sabre, DisconnectedQubitsThrow)
{
    CouplingMap map(4);
    map.addEdge(0, 1);
    map.addEdge(2, 3);
    Device dev("island", 4, map);
    Circuit c(4);
    c.addCnot(0, 3);
    RouteOptions opts;
    opts.router = RouterKind::Sabre;
    EXPECT_THROW(routeCircuit(c, dev, nullptr, opts), MappingError);
}

TEST(Router, NamesRoundTrip)
{
    EXPECT_STREQ(routerName(RouterKind::Ctr), "ctr");
    EXPECT_STREQ(routerName(RouterKind::Sabre), "sabre");
    RouterKind kind = RouterKind::Ctr;
    EXPECT_TRUE(parseRouterName("sabre", &kind));
    EXPECT_EQ(kind, RouterKind::Sabre);
    EXPECT_TRUE(parseRouterName("ctr", &kind));
    EXPECT_EQ(kind, RouterKind::Ctr);
    EXPECT_FALSE(parseRouterName("astar", &kind));
    EXPECT_EQ(kind, RouterKind::Ctr); // untouched on failure
}
