/**
 * @file
 * Tests for the decomposition module: every lowering must be exactly
 * (including global phase) equivalent to the gate it replaces, checked
 * with canonical QMDDs; borrowed-ancilla networks must hold for
 * arbitrary ancilla states (full unitary equality), clean-ancilla
 * networks on the |0> subspace (projected equality).
 */

#include <gtest/gtest.h>

#include <numbers>

#include "decompose/barenco.hpp"
#include "decompose/controlled.hpp"
#include "decompose/pass.hpp"
#include "decompose/toffoli.hpp"
#include "decompose/zyz.hpp"
#include "qmdd/equivalence.hpp"

using namespace qsyn;
using namespace qsyn::decompose;

namespace {

/** Strict full-unitary equivalence via canonical QMDDs. */
bool
sameUnitary(const Circuit &a, const Circuit &b)
{
    dd::Package pkg;
    return pkg.buildCircuit(a) == pkg.buildCircuit(b);
}

/** Equality on the subspace where `zeros` wires are |0>. */
bool
sameOnCleanAncillas(const Circuit &a, const Circuit &b,
                    const std::vector<Qubit> &zeros)
{
    dd::Package pkg;
    dd::Edge p = pkg.makeProjector(zeros);
    dd::Edge ea = pkg.multiply(pkg.buildCircuit(a), p);
    dd::Edge eb = pkg.multiply(pkg.buildCircuit(b), p);
    return ea == eb;
}

} // namespace

TEST(Zyz, RoundTripsLibraryGates)
{
    for (GateKind kind : {GateKind::X, GateKind::Y, GateKind::Z,
                          GateKind::H, GateKind::S, GateKind::T,
                          GateKind::Tdg}) {
        Mat2 u = baseMatrix(kind);
        ZyzAngles a = zyzDecompose(u);
        EXPECT_TRUE(approxEqual(zyzCompose(a), u, 1e-9))
            << kindName(kind);
    }
}

TEST(Zyz, RoundTripsRotations)
{
    for (double theta : {0.3, 1.0, -2.2, 3.1}) {
        for (GateKind kind : {GateKind::Rx, GateKind::Ry, GateKind::Rz,
                              GateKind::P}) {
            Mat2 u = baseMatrix(kind, theta);
            EXPECT_TRUE(approxEqual(zyzCompose(zyzDecompose(u)), u, 1e-9))
                << kindName(kind) << "(" << theta << ")";
        }
    }
}

TEST(Toffoli, FifteenGateNetworkIsExact)
{
    Circuit ref(3);
    ref.addCcx(0, 1, 2);
    Circuit dec(3);
    appendToffoli(dec, 0, 1, 2);
    EXPECT_EQ(dec.size(), 15u);
    CircuitStats stats = computeStats(dec);
    EXPECT_EQ(stats.tCount, 7u);
    EXPECT_EQ(stats.cnotCount, 6u);
    EXPECT_TRUE(sameUnitary(ref, dec));
}

TEST(Toffoli, ReversedCnotIsExact)
{
    Circuit ref(2);
    ref.addCnot(0, 1);
    Circuit dec(2);
    appendReversedCnot(dec, 0, 1);
    EXPECT_EQ(dec.size(), 5u);
    EXPECT_TRUE(sameUnitary(ref, dec));
}

TEST(Toffoli, SwapCostsAtMostSevenGates)
{
    // Unidirectional coupling 0 -> 1 (the transmon case).
    CouplingMap map(2);
    map.addEdge(0, 1);
    Circuit dec(2);
    appendSwap(dec, &map, 0, 1);
    EXPECT_LE(dec.size(), 7u); // paper: max 7 (3 CNOT + 4 H)
    Circuit ref(2);
    ref.addSwap(0, 1);
    EXPECT_TRUE(sameUnitary(ref, dec));
    // Every CNOT must respect the map direction.
    for (const Gate &g : dec) {
        if (g.isCnot()) {
            EXPECT_TRUE(map.hasEdge(g.controls()[0], g.target()));
        }
    }
}

TEST(Barenco, CleanVChainMatchesOnZeroAncillas)
{
    for (size_t k = 3; k <= 6; ++k) {
        auto n = static_cast<Qubit>(k + 1);
        std::vector<Qubit> controls;
        for (Qubit i = 0; i < k; ++i)
            controls.push_back(i);
        Qubit target = static_cast<Qubit>(k);

        Circuit ref(n + static_cast<Qubit>(k - 2));
        ref.add(Gate::mcx(controls, target));

        AncillaPool pool;
        std::vector<Qubit> zeros;
        for (size_t i = 0; i < k - 2; ++i) {
            pool.clean.push_back(n + static_cast<Qubit>(i));
            zeros.push_back(n + static_cast<Qubit>(i));
        }
        Circuit dec(n + static_cast<Qubit>(k - 2));
        appendMcx(dec, controls, target, pool, McxStrategy::CleanVChain);
        EXPECT_EQ(dec.size(), 2 * k - 3) << "k=" << k;
        EXPECT_TRUE(sameOnCleanAncillas(ref, dec, zeros)) << "k=" << k;
    }
}

TEST(Barenco, DirtyVChainIsExactForAnyAncillaState)
{
    for (size_t k = 3; k <= 6; ++k) {
        auto n = static_cast<Qubit>(2 * k - 1); // controls+target+k-2
        std::vector<Qubit> controls;
        for (Qubit i = 0; i < k; ++i)
            controls.push_back(i);
        Qubit target = static_cast<Qubit>(k);

        Circuit ref(n);
        ref.add(Gate::mcx(controls, target));

        AncillaPool pool;
        for (size_t i = 0; i < k - 2; ++i)
            pool.dirty.push_back(static_cast<Qubit>(k + 1 + i));
        Circuit dec(n);
        appendMcx(dec, controls, target, pool, McxStrategy::DirtyVChain);
        EXPECT_EQ(dec.size(), 4 * (k - 2)) << "k=" << k;
        // Full unitary equality: valid for every ancilla state.
        EXPECT_TRUE(sameUnitary(ref, dec)) << "k=" << k;
    }
}

TEST(Barenco, SplitNeedsOnlyOneBorrowedWire)
{
    for (size_t k : {3u, 4u, 5u, 6u, 7u}) {
        auto n = static_cast<Qubit>(k + 2); // controls+target+1 ancilla
        std::vector<Qubit> controls;
        for (Qubit i = 0; i < k; ++i)
            controls.push_back(i);
        Qubit target = static_cast<Qubit>(k);

        Circuit ref(n);
        ref.add(Gate::mcx(controls, target));

        AncillaPool pool;
        pool.dirty.push_back(static_cast<Qubit>(k + 1));
        Circuit dec(n);
        appendMcx(dec, controls, target, pool, McxStrategy::Split);
        EXPECT_TRUE(sameUnitary(ref, dec)) << "k=" << k;
    }
}

TEST(Barenco, RootsNeedsNoAncillaAtAll)
{
    for (size_t k : {3u, 4u, 5u}) {
        auto n = static_cast<Qubit>(k + 1); // full width, zero slack
        std::vector<Qubit> controls;
        for (Qubit i = 0; i < k; ++i)
            controls.push_back(i);
        Qubit target = static_cast<Qubit>(k);

        Circuit ref(n);
        ref.add(Gate::mcx(controls, target));

        Circuit raw(n);
        appendMcx(raw, controls, target, AncillaPool{},
                  McxStrategy::Roots);
        // The roots network emits controlled rotations; lower them.
        DecomposeOptions opts;
        opts.lowerToffoli = false;
        opts.maxQubits = raw.numQubits();
        Circuit dec = decomposeToPrimitives(raw, opts).circuit;
        EXPECT_EQ(dec.numQubits(), n);
        EXPECT_TRUE(sameUnitary(ref, dec)) << "k=" << k;
    }
}

TEST(Controlled, SingleControlLibraryGates)
{
    std::vector<Gate> gates = {
        Gate(GateKind::Z, {0}, {1}),
        Gate(GateKind::Y, {0}, {1}),
        Gate(GateKind::H, {0}, {1}),
        Gate(GateKind::S, {0}, {1}),
        Gate(GateKind::Sdg, {0}, {1}),
        Gate(GateKind::T, {0}, {1}),
        Gate(GateKind::Tdg, {0}, {1}),
        Gate(GateKind::P, {0}, {1}, 0.7),
        Gate(GateKind::Rz, {0}, {1}, 1.3),
        Gate(GateKind::Rx, {0}, {1}, -0.9),
        Gate(GateKind::Ry, {0}, {1}, 2.1),
    };
    for (const Gate &g : gates) {
        Circuit ref(2);
        ref.add(g);
        Circuit dec(2);
        appendControlledUnitary(dec, g);
        for (const Gate &d : dec) {
            EXPECT_LE(d.numControls(), 1u);
            bool primitive =
                d.numControls() == 0 || d.kind() == GateKind::X;
            EXPECT_TRUE(primitive) << d.toString();
        }
        EXPECT_TRUE(sameUnitary(ref, dec)) << g.toString();
    }
}

TEST(Controlled, MultiControlledGatesViaPass)
{
    std::vector<Gate> gates = {
        Gate(GateKind::Z, {0, 1}, {2}),
        Gate(GateKind::Z, {0, 1, 3}, {2}),
        Gate(GateKind::Y, {0, 2}, {1}),
        Gate(GateKind::H, {1, 2}, {0}),
        Gate(GateKind::S, {0, 1}, {2}),
        Gate(GateKind::T, {0, 1, 2}, {3}),
        Gate(GateKind::P, {0, 1}, {2}, 0.4),
        Gate(GateKind::Rz, {0, 1}, {2}, -1.1),
        Gate(GateKind::Rx, {0, 1}, {2}, 0.8),
        Gate(GateKind::Ry, {0, 1}, {2}, 1.9),
    };
    for (const Gate &g : gates) {
        Qubit n = 0;
        for (Qubit q : g.qubits())
            n = std::max(n, q + 1);
        Circuit ref(n);
        ref.add(g);
        DecomposeOptions opts;
        opts.lowerToffoli = false;
        opts.maxQubits = ref.numQubits();
        Circuit dec = decomposeToPrimitives(ref, opts).circuit;
        for (const Gate &d : dec) {
            EXPECT_TRUE(d.numControls() == 0 ||
                        (d.kind() == GateKind::X && d.numControls() <= 2))
                << d.toString();
        }
        EXPECT_TRUE(sameUnitary(ref, dec)) << g.toString();
    }
}

TEST(Controlled, McPhaseMatchesDiagonal)
{
    // MC-phase on 3 wires: e^{i theta} exactly on |111>.
    double theta = 0.9;
    Circuit dec(3);
    appendMcPhase(dec, {0, 1, 2}, theta);
    DecomposeOptions opts;
    opts.lowerToffoli = false;
    opts.maxQubits = dec.numQubits();
    Circuit lowered = decomposeToPrimitives(dec, opts).circuit;

    dd::Package pkg;
    dd::Edge e = pkg.buildCircuit(lowered);
    for (int i = 0; i < 8; ++i) {
        Cplx want = i == 7 ? std::polar(1.0, theta) : Cplx(1, 0);
        EXPECT_TRUE(approxEqual(pkg.getEntry(e, i, i, 3), want))
            << "diag " << i;
    }
}

TEST(Pass, FredkinLowering)
{
    Circuit ref(3);
    ref.add(Gate::fredkin(0, 1, 2));
    DecomposeOptions opts;
    opts.lowerToffoli = false;
    Circuit dec = decomposeToPrimitives(ref, opts).circuit;
    EXPECT_TRUE(sameUnitary(ref, dec));
}

TEST(Pass, ProducesPrimitiveLibraryOnly)
{
    Circuit in(6);
    in.addMcx({0, 1, 2, 3}, 4);
    in.add(Gate(GateKind::Z, {0, 1}, {5}));
    in.addSwap(2, 5);
    in.addH(0);

    DecomposeOptions opts;
    DecomposeResult res = decomposeToPrimitives(in, opts);
    for (const Gate &g : res.circuit) {
        bool ok = (g.numControls() == 0 && g.isUnitary() &&
                   g.kind() != GateKind::Swap) ||
                  g.isCnot();
        EXPECT_TRUE(ok) << g.toString();
    }
}

TEST(Pass, CleanAncillaAllocationRespectsCap)
{
    Circuit in(6);
    in.addMcx({0, 1, 2, 3, 4}, 5); // k=5 wants 3 clean ancillas

    DecomposeOptions opts;
    opts.lowerToffoli = false;
    opts.maxQubits = 6; // no room: must fall back to borrowed wires
    DecomposeResult res = decomposeToPrimitives(in, opts);
    EXPECT_EQ(res.circuit.numQubits(), 6u);
    EXPECT_TRUE(res.ancillas.empty());
    EXPECT_TRUE(sameUnitary(in, res.circuit));
}

TEST(Pass, CleanAncillaAllocationGrowsRegister)
{
    Circuit in(6);
    in.addMcx({0, 1, 2, 3, 4}, 5);

    DecomposeOptions opts;
    opts.lowerToffoli = false;
    opts.maxQubits = 16;
    DecomposeResult res = decomposeToPrimitives(in, opts);
    EXPECT_EQ(res.ancillas.size(), 3u);
    EXPECT_TRUE(sameOnCleanAncillas(in, res.circuit, res.ancillas));
}

TEST(Pass, EndToEndCliffordTEquivalence)
{
    Circuit in(5);
    in.addMcx({0, 1, 2}, 3);
    in.addCnot(3, 4);
    in.addMcx({1, 2, 3}, 0);

    DecomposeOptions opts;
    opts.maxQubits = 8;
    DecomposeResult res = decomposeToPrimitives(in, opts);
    // Only 1q + CNOT remain.
    for (const Gate &g : res.circuit) {
        EXPECT_TRUE(g.numControls() == 0 || g.isCnot()) << g.toString();
    }
    EXPECT_TRUE(sameOnCleanAncillas(in, res.circuit, res.ancillas));
}
