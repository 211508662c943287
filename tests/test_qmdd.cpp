/**
 * @file
 * Unit tests for the QMDD package: gate construction against dense
 * matrices, algebra (multiply/add/adjoint), canonicity, identity
 * skipping, projectors, and garbage collection.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ir/random_circuit.hpp"
#include "qmdd/package.hpp"
#include "sim/statevector.hpp"

using namespace qsyn;
using dd::Edge;
using dd::Package;

namespace {

/** Dense unitary of a circuit via DenseMatrix (small circuits only). */
DenseMatrix
denseOf(const Circuit &c)
{
    DenseMatrix m(static_cast<int>(c.numQubits()));
    for (const Gate &g : c) {
        std::vector<int> controls;
        for (Qubit q : g.controls())
            controls.push_back(static_cast<int>(q));
        if (g.kind() == GateKind::Swap) {
            m.applySwap(controls, static_cast<int>(g.targets()[0]),
                        static_cast<int>(g.targets()[1]));
        } else if (g.kind() == GateKind::Barrier) {
            continue;
        } else {
            m.applyGate(g.baseMatrix(), controls,
                        static_cast<int>(g.target()));
        }
    }
    return m;
}

/** Compare a DD edge against a dense matrix entrywise. */
void
expectMatchesDense(Package &pkg, const Edge &e, const DenseMatrix &m,
                   int n)
{
    for (size_t r = 0; r < m.dim(); ++r) {
        for (size_t c = 0; c < m.dim(); ++c) {
            Cplx got = pkg.getEntry(e, r, c, n);
            ASSERT_TRUE(approxEqual(got, m.at(r, c), 1e-9))
                << "entry (" << r << "," << c << ") got " << got
                << " want " << m.at(r, c);
        }
    }
}

} // namespace

TEST(Qmdd, IdentityEdgeIsIdentityMatrix)
{
    Package pkg;
    Edge id = pkg.identityEdge();
    for (int n = 1; n <= 3; ++n) {
        DenseMatrix m(n);
        expectMatchesDense(pkg, id, m, n);
    }
}

TEST(Qmdd, SingleQubitGateEntries)
{
    Package pkg;
    for (GateKind kind : {GateKind::X, GateKind::Y, GateKind::Z,
                          GateKind::H, GateKind::S, GateKind::T}) {
        Edge e = pkg.gateDD(Gate(kind, {}, {0}));
        Mat2 u = baseMatrix(kind);
        for (int r = 0; r < 2; ++r) {
            for (int c = 0; c < 2; ++c) {
                EXPECT_TRUE(approxEqual(pkg.getEntry(e, r, c, 1),
                                        u.at(r, c)))
                    << kindName(kind);
            }
        }
    }
}

TEST(Qmdd, CnotMatchesPaperFigure1)
{
    // Fig. 1: CNOT with control x0 (top) and target x1.
    Package pkg;
    Edge e = pkg.gateDD(Gate::cnot(0, 1));
    Circuit c(2);
    c.addCnot(0, 1);
    expectMatchesDense(pkg, e, denseOf(c), 2);
    // The canonical DD has 2 nonterminal nodes (x0 root + one x1 node:
    // the identity quadrant is skipped by the reduction).
    EXPECT_EQ(pkg.countNodes(e), 2u);
}

TEST(Qmdd, GateOnWiderRegisterViaIdentitySkipping)
{
    // A CNOT DD does not depend on the register width.
    Package pkg;
    Edge e = pkg.gateDD(Gate::cnot(1, 3));
    Circuit c(5);
    c.addCnot(1, 3);
    expectMatchesDense(pkg, e, denseOf(c), 5);
}

TEST(Qmdd, ToffoliAndControlsBelowTarget)
{
    Package pkg;
    // Controls straddling the target exercise both makeGateDD branches.
    Circuit c(4);
    c.add(Gate(GateKind::X, {0, 3}, {1}));
    Edge e = pkg.buildCircuit(c);
    expectMatchesDense(pkg, e, denseOf(c), 4);
}

TEST(Qmdd, SwapAndFredkin)
{
    Package pkg;
    {
        Circuit c(3);
        c.addSwap(0, 2);
        expectMatchesDense(pkg, pkg.buildCircuit(c), denseOf(c), 3);
    }
    {
        Circuit c(3);
        c.add(Gate::fredkin(1, 0, 2));
        expectMatchesDense(pkg, pkg.buildCircuit(c), denseOf(c), 3);
    }
}

TEST(Qmdd, MultiplyMatchesDense)
{
    Package pkg;
    Rng rng(7);
    RandomCircuitOptions opts;
    opts.numQubits = 4;
    opts.numGates = 30;
    opts.maxControls = 3;
    opts.allowRotations = true;
    for (int trial = 0; trial < 10; ++trial) {
        Circuit c = randomCircuit(rng, opts);
        Edge e = pkg.buildCircuit(c);
        expectMatchesDense(pkg, e, denseOf(c), 4);
    }
}

TEST(Qmdd, CanonicityTwoRoutesSameEdge)
{
    // X = H Z H must produce the *same* canonical edge.
    Package pkg;
    Circuit a(2);
    a.addX(1);
    Circuit b(2);
    b.addH(1);
    b.addZ(1);
    b.addH(1);
    Edge ea = pkg.buildCircuit(a);
    Edge eb = pkg.buildCircuit(b);
    EXPECT_EQ(ea, eb);
}

TEST(Qmdd, CanonicityCnotFromHczh)
{
    // CNOT(c,t) = (I (+) H) CZ (I (+) H).
    Package pkg;
    Circuit a(2);
    a.addCnot(0, 1);
    Circuit b(2);
    b.addH(1);
    b.addCz(0, 1);
    b.addH(1);
    EXPECT_EQ(pkg.buildCircuit(a), pkg.buildCircuit(b));
}

TEST(Qmdd, AddIsMatrixAddition)
{
    Package pkg;
    Edge x = pkg.gateDD(Gate::x(0));
    Edge z = pkg.gateDD(Gate::z(0));
    Edge sum = pkg.add(x, z);
    // X + Z = [[1,1],[1,-1]] = sqrt(2) H.
    EXPECT_TRUE(approxEqual(pkg.getEntry(sum, 0, 0, 1), Cplx(1, 0)));
    EXPECT_TRUE(approxEqual(pkg.getEntry(sum, 0, 1, 1), Cplx(1, 0)));
    EXPECT_TRUE(approxEqual(pkg.getEntry(sum, 1, 0, 1), Cplx(1, 0)));
    EXPECT_TRUE(approxEqual(pkg.getEntry(sum, 1, 1, 1), Cplx(-1, 0)));
}

TEST(Qmdd, AddCancellationGivesZero)
{
    Package pkg;
    Edge x = pkg.gateDD(Gate::x(0));
    Edge minus_x = pkg.scaled(x, Cplx(-1, 0));
    Edge sum = pkg.add(x, minus_x);
    EXPECT_EQ(sum, pkg.zeroEdge());
}

TEST(Qmdd, ConjugateTransposeInvertsUnitary)
{
    Package pkg;
    Rng rng(11);
    RandomCircuitOptions opts;
    opts.numQubits = 3;
    opts.numGates = 20;
    opts.allowRotations = true;
    Circuit c = randomCircuit(rng, opts);
    Edge u = pkg.buildCircuit(c);
    Edge udag = pkg.conjugateTranspose(u);
    Edge prod = pkg.multiply(udag, u);
    EXPECT_EQ(prod, pkg.identityEdge());
}

TEST(Qmdd, ProjectorStructure)
{
    Package pkg;
    Edge p = pkg.makeProjector({1});
    // On 2 qubits: diag(1, 0, 1, 0) with qubit 0 as MSB... qubit 1
    // projected: entries with row==col and bit of qubit 1 == 0.
    for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 4; ++c) {
            bool q1_zero = (r & 1) == 0; // qubit 1 = LSB of 2-qubit idx
            Cplx want = (r == c && q1_zero) ? Cplx(1, 0) : Cplx(0, 0);
            EXPECT_TRUE(approxEqual(pkg.getEntry(p, r, c, 2), want));
        }
    }
    // Idempotent.
    EXPECT_EQ(pkg.multiply(p, p), p);
}

TEST(Qmdd, MaxMagnitude)
{
    Package pkg;
    Edge h = pkg.gateDD(Gate::h(0));
    EXPECT_NEAR(pkg.maxMagnitude(h), 1.0 / std::sqrt(2.0), 1e-12);
    EXPECT_NEAR(pkg.maxMagnitude(pkg.identityEdge()), 1.0, 1e-12);
    EXPECT_NEAR(pkg.maxMagnitude(pkg.zeroEdge()), 0.0, 1e-12);
}

TEST(Qmdd, ApproxEqualEdges)
{
    Package pkg;
    Edge a = pkg.gateDD(Gate::t(0));
    Edge b = pkg.gateDD(Gate::tdg(0));
    EXPECT_TRUE(pkg.approxEqualEdges(a, a));
    EXPECT_FALSE(pkg.approxEqualEdges(a, b));
}

TEST(Qmdd, GarbageCollectionKeepsRoots)
{
    Package pkg;
    Rng rng(3);
    RandomCircuitOptions opts;
    opts.numQubits = 5;
    opts.numGates = 60;
    Circuit c = randomCircuit(rng, opts);
    Edge e = pkg.buildCircuit(c);
    DenseMatrix before = denseOf(c);

    size_t live_before = pkg.activeNodes();
    pkg.collectGarbage({&e, 1});
    EXPECT_LE(pkg.activeNodes(), live_before);
    // The root must still decode to the same matrix after the sweep.
    expectMatchesDense(pkg, e, before, 5);
    // And canonicity must survive: rebuilding gives the same edge.
    Edge rebuilt = pkg.buildCircuit(c);
    EXPECT_EQ(rebuilt, e);
}

TEST(Qmdd, StatsCountOperations)
{
    Package pkg;
    Circuit c(3);
    c.addH(0);
    c.addCnot(0, 1);
    c.addCnot(1, 2);
    (void)pkg.buildCircuit(c);
    EXPECT_GT(pkg.stats().multiplies, 0u);
    EXPECT_GT(pkg.stats().uniqueLookups, 0u);
}

TEST(Qmdd, DefaultComputeCachesStaySmall)
{
    // compile() verifies on a fresh package, which zeroes its caches
    // when it is created (allocating them unless an earlier package on
    // the thread left its slots): the default geometry is paid per
    // compile, so it must stay within the 1 MiB per package that
    // PackageConfig and docs/performance.md budget.
    Package pkg;
    const size_t bytes = pkg.computeCacheBytes();
    EXPECT_GT(bytes, 0u);
    EXPECT_LE(bytes, size_t{1} << 20);
    Circuit c(2);
    c.addH(0);
    c.addCnot(0, 1);
    (void)pkg.buildCircuit(c);
    ASSERT_GT(pkg.stats().multiplies, 0u);
    EXPECT_EQ(pkg.computeCacheBytes(), bytes);
}

TEST(Qmdd, DdAgreesWithSimulatorOnRandomStates)
{
    // The 120-gate input overflows the 2-way mul and add caches, so
    // their eviction path must keep the products right as well.
    for (size_t gates : {40, 120}) {
        Package pkg;
        Rng rng(23);
        RandomCircuitOptions opts;
        opts.numQubits = 5;
        opts.numGates = gates;
        opts.maxControls = 3;
        Circuit c = randomCircuit(rng, opts);
        Edge e = pkg.buildCircuit(c);

        sim::StateVector sv(5);
        sv.setBasisState(13);
        sv.apply(c);
        // Column 13 of the DD must equal the evolved basis state.
        for (size_t r = 0; r < 32; ++r) {
            EXPECT_TRUE(approxEqual(pkg.getEntry(e, r, 13, 5),
                                    sv.amp(r), 1e-9))
                << gates << " gates, row " << r;
        }
        if (gates == 120) {
            EXPECT_GT(pkg.stats().mulEvictions, 0u);
            EXPECT_GT(pkg.stats().addEvictions, 0u);
        }
    }
}

TEST(ComplexTableTest, SnapsValuesWithinTolerance)
{
    dd::ComplexTable table;
    const Cplx *a = table.lookup(Cplx(0.5, -0.25));
    const Cplx *b = table.lookup(Cplx(0.5 + 1e-12, -0.25 - 1e-12));
    EXPECT_EQ(a, b); // same canonical representative
    const Cplx *c = table.lookup(Cplx(0.5 + 1e-6, -0.25));
    EXPECT_NE(a, c); // outside the tolerance
}

TEST(ComplexTableTest, BucketBoundaryValuesStillMatch)
{
    // Values straddling a bucket boundary must still intern together:
    // the bucket width is 4 * kWeightEps, so v and v +/- eps/2 can land
    // in adjacent buckets for adversarial v.
    dd::ComplexTable table;
    const double w = 4 * dd::kWeightEps;
    for (int k = 1; k < 50; ++k) {
        double boundary = k * w;
        // The pair is eps/2 apart (well inside the tolerance) but can
        // straddle a bucket boundary; the neighbor probe must find it.
        const Cplx *lo =
            table.lookup(Cplx(boundary - dd::kWeightEps / 4, 0));
        const Cplx *hi =
            table.lookup(Cplx(boundary + dd::kWeightEps / 4, 0));
        EXPECT_EQ(lo, hi) << "boundary " << k;
    }
}

TEST(ComplexTableTest, ZeroAndOneAreCanonical)
{
    dd::ComplexTable table;
    EXPECT_EQ(table.lookup(Cplx(0, 0)), table.zero());
    EXPECT_EQ(table.lookup(Cplx(1e-12, -1e-12)), table.zero());
    EXPECT_EQ(table.lookup(Cplx(1.0, 0)), table.one());
}

TEST(Qmdd, LongProductHasNoDrift)
{
    // 1000 alternating T / Tdg pairs must collapse to the exact
    // canonical identity - the interning table absorbs round-off.
    Package pkg;
    Circuit c(1);
    for (int i = 0; i < 1000; ++i) {
        c.addT(0);
        c.addTdg(0);
    }
    EXPECT_EQ(pkg.buildCircuit(c), pkg.identityEdge());
}

TEST(Qmdd, RepeatedGateEighthPowerIsIdentity)
{
    // T^8 = I exactly under canonical interning.
    Package pkg;
    Circuit c(1);
    for (int i = 0; i < 8; ++i)
        c.addT(0);
    EXPECT_EQ(pkg.buildCircuit(c), pkg.identityEdge());
}

TEST(Qmdd, UniqueTableRehashPreservesCanonicity)
{
    // Start tiny so the table must grow several times mid-build. Nodes
    // never move on rehash (only the slot array does), so pointers
    // handed out before a growth stay canonical after it.
    dd::PackageConfig cfg;
    cfg.initialUniqueCapacity = 16;
    Package pkg(cfg);
    Rng rng(5);
    RandomCircuitOptions opts;
    opts.numQubits = 5;
    opts.numGates = 60;
    opts.maxControls = 2;
    Circuit c = randomCircuit(rng, opts);
    Edge e = pkg.buildCircuit(c);
    EXPECT_GT(pkg.stats().uniqueRehashes, 0u);
    // 16 is floored to 64 slots; the build must still outgrow that.
    EXPECT_GT(pkg.uniqueCapacity(), 64u);
    // Rebuilding the same circuit must hit the (rehashed) table and
    // return the identical edge...
    EXPECT_EQ(pkg.buildCircuit(c), e);
    // ...and a fresh default-capacity package agrees on the matrix.
    expectMatchesDense(pkg, e, denseOf(c), 5);
}

TEST(Qmdd, PeakNodesIsLiveHighWaterMark)
{
    Package pkg;
    Rng rng(9);
    RandomCircuitOptions opts;
    opts.numQubits = 5;
    opts.numGates = 50;
    Circuit c = randomCircuit(rng, opts);
    (void)pkg.buildCircuit(c);
    const dd::PackageStats &s = pkg.stats();
    // Every live node was inserted exactly once, so the live
    // high-water mark cannot exceed total inserts (= lookup misses).
    EXPECT_GT(s.peakNodes, 0u);
    EXPECT_LE(s.peakNodes, s.uniqueLookups - s.uniqueHits);
    EXPECT_GE(s.peakNodes, pkg.activeNodes());
}

TEST(Qmdd, SetGcThresholdClampsToFloor)
{
    Package pkg;
    pkg.setGcThreshold(10);
    EXPECT_EQ(pkg.gcThreshold(), 1024u);
    pkg.setGcThreshold(size_t{1} << 16);
    EXPECT_EQ(pkg.gcThreshold(), size_t{1} << 16);
}

TEST(Qmdd, GcThresholdGrowsUnderPressureAndDecaysBack)
{
    dd::PackageConfig cfg;
    cfg.gcThreshold = 1024; // the minimum: GC early and often
    Package pkg(cfg);
    ASSERT_EQ(pkg.gcThreshold(), 1024u);
    Rng rng(17);
    RandomCircuitOptions opts;
    opts.numQubits = 8;
    opts.numGates = 120;
    opts.maxControls = 2;
    Circuit c = randomCircuit(rng, opts);
    (void)pkg.buildCircuit(c);
    EXPECT_GT(pkg.stats().gcRuns, 0u);
    // Survivors exceeded half the threshold, so it backed off...
    EXPECT_GT(pkg.gcThreshold(), 1024u);
    // ...and once the pressure is gone it decays to the configured
    // floor (and not past it), re-arming GC for the next circuit.
    for (int i = 0; i < 64 && pkg.gcThreshold() > 1024u; ++i)
        pkg.collectGarbage({});
    EXPECT_EQ(pkg.gcThreshold(), 1024u);
}

TEST(Qmdd, GcShrinksUniqueCapacityToConfiguredMinimum)
{
    dd::PackageConfig cfg;
    cfg.initialUniqueCapacity = 64;
    Package pkg(cfg);
    Rng rng(21);
    RandomCircuitOptions opts;
    opts.numQubits = 6;
    opts.numGates = 80;
    Circuit c = randomCircuit(rng, opts);
    (void)pkg.buildCircuit(c);
    size_t grown = pkg.uniqueCapacity();
    EXPECT_GT(grown, 64u);
    // Dropping every root lets the sweep reclaim (nearly) everything;
    // the slot array halves down to its configured minimum.
    pkg.collectGarbage({});
    EXPECT_LT(pkg.uniqueCapacity(), grown);
    EXPECT_GE(pkg.uniqueCapacity(), 64u);
    EXPECT_GE(pkg.freeListLength(), 0u);
}

TEST(Qmdd, GcRecyclesNodesWithoutGrowingArena)
{
    Package pkg;
    Rng rng(29);
    RandomCircuitOptions opts;
    opts.numQubits = 5;
    opts.numGates = 60;
    Circuit c = randomCircuit(rng, opts);
    Edge e = pkg.buildCircuit(c);
    DenseMatrix dense = denseOf(c);

    pkg.collectGarbage({}); // drop everything
    size_t arena_after_gc = pkg.arenaNodes();
    size_t free_after_gc = pkg.freeListLength();
    EXPECT_GT(free_after_gc, 0u);

    // The rebuild must be served from the free list: same matrix, and
    // the arena (total nodes ever allocated) does not grow.
    Edge rebuilt = pkg.buildCircuit(c);
    EXPECT_EQ(pkg.arenaNodes(), arena_after_gc);
    EXPECT_LT(pkg.freeListLength(), free_after_gc);
    expectMatchesDense(pkg, rebuilt, dense, 5);
    (void)e; // dangling after the sweep; never dereferenced
}

TEST(Qmdd, ComputeCachesAreNotStaleAfterGc)
{
    // A sweep recycles nodes, so any cache keyed by Node* must be
    // cleared: a stale hit would silently return a recycled pointer.
    Package pkg;
    Rng rng(31);
    RandomCircuitOptions opts;
    opts.numQubits = 4;
    opts.numGates = 40;
    Circuit first = randomCircuit(rng, opts);
    (void)pkg.buildCircuit(first);
    pkg.collectGarbage({});

    // Different circuit, same package: results must match both a
    // fresh package and the dense reference entry-for-entry.
    opts.numGates = 30;
    Circuit second = randomCircuit(rng, opts);
    Edge e = pkg.buildCircuit(second);
    expectMatchesDense(pkg, e, denseOf(second), 4);
    Package fresh;
    Edge fresh_e = fresh.buildCircuit(second);
    EXPECT_NEAR(pkg.maxMagnitude(e), fresh.maxMagnitude(fresh_e),
                1e-12);
}

TEST(Qmdd, RecycledCacheSlotsStartEmpty)
{
    // A destroyed package leaves its cache slots and its unique
    // table's slot array to the thread's next package. They hold node
    // addresses the next package may reuse, so it must find them
    // empty: the same build then makes the same lookups and hits as
    // the first, and gives the same matrix.
    Rng rng(37);
    RandomCircuitOptions opts;
    opts.numQubits = 3;
    opts.numGates = 16;
    Circuit c = randomCircuit(rng, opts);
    dd::PackageStats first_stats;
    size_t first_bytes = 0;
    {
        Package first;
        (void)first.buildCircuit(c);
        first_stats = first.stats();
        first_bytes = first.computeCacheBytes();
    }
    Package second;
    // A sweep of the still empty package finds no node to free.
    second.collectGarbage({});
    EXPECT_EQ(second.freeListLength(), 0u);
    Edge e = second.buildCircuit(c);
    EXPECT_EQ(second.computeCacheBytes(), first_bytes);
    EXPECT_EQ(second.stats().computeLookups, first_stats.computeLookups);
    EXPECT_EQ(second.stats().computeHits, first_stats.computeHits);
    EXPECT_EQ(second.stats().uniqueHits, first_stats.uniqueHits);
    expectMatchesDense(second, e, denseOf(c), 3);
}
