/**
 * @file
 * Tests for the extensions beyond the paper's prototype: the ASCII
 * circuit drawer, the .real/.qc writers (round-trip through the
 * parsers), the QMDD DOT export, the JSON compile report, and the
 * phase-polynomial T-count reduction pass.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "core/report.hpp"
#include "core/qsyn.hpp"
#include "decompose/rebase.hpp"
#include "frontend/circuit_drawer.hpp"
#include "frontend/circuit_writers.hpp"
#include "frontend/qc_parser.hpp"
#include "frontend/real_parser.hpp"
#include "ir/random_circuit.hpp"
#include "qmdd/dot_export.hpp"

using namespace qsyn;

// ---------------------------------------------------------------------
// Circuit drawer.
// ---------------------------------------------------------------------

TEST(Drawer, RendersWiresAndGates)
{
    Circuit c(3);
    c.addH(0);
    c.addCnot(0, 1);
    c.addCcx(0, 1, 2);
    std::string art = frontend::drawCircuit(c);
    EXPECT_NE(art.find("q0:"), std::string::npos);
    EXPECT_NE(art.find("q2:"), std::string::npos);
    EXPECT_NE(art.find("H"), std::string::npos);
    EXPECT_NE(art.find("*"), std::string::npos);
    EXPECT_NE(art.find("X"), std::string::npos);
    EXPECT_NE(art.find("|"), std::string::npos); // vertical connector
}

TEST(Drawer, CompactPacksIndependentGates)
{
    Circuit c(2);
    c.addH(0);
    c.addH(1); // parallel: should share a column
    std::istringstream art(frontend::drawCircuit(c));
    std::string wire0, gap, wire1;
    std::getline(art, wire0);
    std::getline(art, gap);
    std::getline(art, wire1);
    ASSERT_NE(wire0.find('H'), std::string::npos) << wire0;
    EXPECT_EQ(wire0.find('H'), wire1.find('H')) << wire0 << "\n" << wire1;
}

TEST(Drawer, TruncatesLongCircuits)
{
    Circuit c(1);
    for (int i = 0; i < 50; ++i)
        c.addT(0);
    frontend::DrawOptions opts;
    opts.maxColumns = 10;
    std::string art = frontend::drawCircuit(c, opts);
    EXPECT_NE(art.find("truncated"), std::string::npos);
}

// ---------------------------------------------------------------------
// Writers round-trip.
// ---------------------------------------------------------------------

TEST(Writers, RealRoundTripsNctCascade)
{
    Rng rng(5);
    Circuit c = randomNctCascade(rng, 5, 25, 3);
    std::string text = frontend::writeReal(c);
    Circuit round = frontend::parseReal(text);
    dd::Package pkg;
    EXPECT_EQ(pkg.buildCircuit(c), pkg.buildCircuit(round));
}

TEST(Writers, RealRejectsCliffordT)
{
    Circuit c(1);
    c.addH(0);
    EXPECT_THROW(frontend::writeReal(c), UserError);
}

TEST(Writers, QcRoundTripsCliffordT)
{
    Circuit c(3);
    c.addH(0);
    c.addT(1);
    c.addTdg(1);
    c.addSdg(2);
    c.addCnot(0, 1);
    c.addCcx(0, 1, 2);
    c.addSwap(0, 2);
    c.add(Gate::fredkin(0, 1, 2));
    c.add(Gate(GateKind::Z, {0, 1}, {2}));
    std::string text = frontend::writeQc(c);
    Circuit round = frontend::parseQc(text);
    dd::Package pkg;
    EXPECT_EQ(pkg.buildCircuit(c), pkg.buildCircuit(round));
}

TEST(Writers, QcRejectsRotations)
{
    Circuit c(1);
    c.add(Gate::rz(0, 0.3));
    EXPECT_THROW(frontend::writeQc(c), UserError);
}

// ---------------------------------------------------------------------
// DOT export.
// ---------------------------------------------------------------------

TEST(DotExport, CnotGraphShape)
{
    dd::Package pkg;
    dd::Edge e = pkg.gateDD(Gate::cnot(0, 1));
    dd::DotOptions opts;
    opts.title = "Fig. 1";
    std::string dot = dd::toDot(pkg, e, opts);
    EXPECT_NE(dot.find("digraph qmdd"), std::string::npos);
    EXPECT_NE(dot.find("x0"), std::string::npos);
    EXPECT_NE(dot.find("x1"), std::string::npos);
    EXPECT_NE(dot.find("U11"), std::string::npos);
    EXPECT_NE(dot.find("Fig. 1"), std::string::npos);
    // The root (x0) contributes U00/U11 edges, the X child (x1)
    // contributes U01/U10 - the zero quadrants of each are elided, so
    // each label appears exactly once.
    EXPECT_EQ(dot.find("U00"), dot.rfind("U00"));
    EXPECT_EQ(dot.find("U10"), dot.rfind("U10"));
}

// ---------------------------------------------------------------------
// JSON report.
// ---------------------------------------------------------------------

TEST(Report, ContainsAllSections)
{
    Device dev = makeIbmqx4();
    Compiler compiler(dev);
    Circuit c(2, "json_demo");
    c.addH(0);
    c.addCnot(0, 1);
    CompileResult res = compiler.compile(c);
    std::string json = compileReportJson(res, dev);
    for (const char *key :
         {"\"circuit\"", "\"device\"", "\"tech_independent\"",
          "\"unoptimized\"", "\"optimized\"", "\"routing\"",
          "\"verification\"", "\"seconds\"", "\"ancillas\"",
          "\"percent_cost_decrease\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
    EXPECT_NE(json.find("\"equivalent\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Phase-polynomial merging.
// ---------------------------------------------------------------------

namespace {

bool
sameUnitary(const Circuit &a, const Circuit &b)
{
    dd::Package pkg;
    return pkg.buildCircuit(a) == pkg.buildCircuit(b);
}

} // namespace

TEST(PhasePoly, MergesThroughCnotConjugation)
{
    // T(1) . CX(0,1) . T(1) . CX(0,1): the second T sits on parity
    // x0^x1, the first on x1 - no merge. But
    // CX(0,1) T(1) CX(0,1) CX(0,1) T(1) CX(0,1): both Ts on x0^x1.
    Circuit c(2);
    c.addCnot(0, 1);
    c.addT(1);
    c.addCnot(0, 1);
    c.addCnot(0, 1);
    c.addT(1);
    c.addCnot(0, 1);
    Circuit before = c;
    EXPECT_TRUE(opt::mergePhasePolynomial(c));
    CircuitStats stats = computeStats(c);
    EXPECT_EQ(stats.tCount, 0u); // T.T -> S on the shared parity
    EXPECT_TRUE(sameUnitary(before, c));
}

TEST(PhasePoly, TTdgCancelAcrossDistance)
{
    // T and Tdg on the same parity with unrelated CNOTs in between.
    Circuit c(3);
    c.addT(0);
    c.addCnot(1, 2);
    c.addCnot(2, 1);
    c.addTdg(0);
    Circuit before = c;
    EXPECT_TRUE(opt::mergePhasePolynomial(c));
    EXPECT_EQ(computeStats(c).tCount, 0u);
    EXPECT_TRUE(sameUnitary(before, c));
}

TEST(PhasePoly, RespectsXConstantBit)
{
    // T(0) X(0) T(0): the second T acts on !x0 - different affine
    // function, must NOT merge (that would change the unitary).
    Circuit c(1);
    c.addT(0);
    c.addX(0);
    c.addT(0);
    Circuit before = c;
    opt::mergePhasePolynomial(c);
    EXPECT_TRUE(sameUnitary(before, c));
    EXPECT_EQ(computeStats(c).tCount, 2u);
}

TEST(PhasePoly, HadamardBreaksTheRegion)
{
    Circuit c(1);
    c.addT(0);
    c.addH(0);
    c.addT(0);
    Circuit before = c;
    opt::mergePhasePolynomial(c);
    EXPECT_TRUE(sameUnitary(before, c));
    EXPECT_EQ(computeStats(c).tCount, 2u);
}

TEST(PhasePoly, PreservesRandomRegionCircuits)
{
    Rng rng(99);
    for (int trial = 0; trial < 12; ++trial) {
        // Random circuits drawn from the region vocabulary.
        Circuit c(4);
        for (int i = 0; i < 40; ++i) {
            switch (rng.below(5)) {
              case 0: {
                Qubit a = static_cast<Qubit>(rng.below(4));
                Qubit b = static_cast<Qubit>(rng.below(4));
                if (a != b)
                    c.addCnot(a, b);
                break;
              }
              case 1:
                c.addX(static_cast<Qubit>(rng.below(4)));
                break;
              case 2:
                c.addT(static_cast<Qubit>(rng.below(4)));
                break;
              case 3:
                c.addTdg(static_cast<Qubit>(rng.below(4)));
                break;
              case 4:
                c.add(Gate::rz(static_cast<Qubit>(rng.below(4)),
                               rng.uniform()));
                break;
            }
        }
        Circuit before = c;
        opt::mergePhasePolynomial(c);
        EXPECT_TRUE(sameUnitary(before, c)) << "trial " << trial;
    }
}

TEST(PhasePoly, ReducesTCountOfMappedToffoliPairs)
{
    // Two identical Toffolis = identity; after mapping the pipeline
    // with phase-poly enabled should recover more T cancellations than
    // without.
    Circuit c(3);
    c.addCcx(0, 1, 2);
    c.addCcx(0, 1, 2);

    Device dev = makeIbmqx5();
    CompileOptions plain;
    Compiler plain_compiler(dev, plain);
    CompileResult a = plain_compiler.compile(c);

    CompileOptions poly;
    poly.optimizer.enablePhasePolynomial = true;
    Compiler poly_compiler(dev, poly);
    CompileResult b = poly_compiler.compile(c);

    EXPECT_TRUE(a.verified());
    EXPECT_TRUE(b.verified());
    EXPECT_LE(b.optimizedM.tCount, a.optimizedM.tCount);
    EXPECT_LE(b.optimizedM.cost, a.optimizedM.cost);
}

TEST(PhasePoly, EndToEndOnBenchmarkReducesTCount)
{
    // A Toffoli cascade on a device: compute/uncompute structure gives
    // the phase-polynomial pass real T pairs to cancel.
    Circuit c(4);
    c.addCcx(0, 1, 2);
    c.addCnot(2, 3);
    c.addCcx(0, 1, 2);

    Device dev = makeIbmqx5();
    CompileOptions poly;
    poly.optimizer.enablePhasePolynomial = true;
    Compiler compiler(dev, poly);
    CompileResult res = compiler.compile(c);
    EXPECT_TRUE(res.verified());
    // 2 Toffolis = 14 T unmerged; the pass must find cancellations.
    EXPECT_LT(res.optimizedM.tCount, 14u);
}

// ---------------------------------------------------------------------
// CNOT <-> CZ rebasing.
// ---------------------------------------------------------------------

TEST(Rebase, CzRoundTripPreservesUnitary)
{
    Rng rng(41);
    RandomCircuitOptions opts;
    opts.numQubits = 4;
    opts.numGates = 40;
    Circuit c = randomCircuit(rng, opts);

    Circuit cz = decompose::rebaseToCz(c);
    for (const Gate &g : cz)
        EXPECT_FALSE(g.isCnot()) << g.toString();
    Circuit back = decompose::rebaseToCnot(cz);
    for (const Gate &g : back) {
        EXPECT_FALSE(g.kind() == GateKind::Z && g.numControls() == 1)
            << g.toString();
    }
    dd::Package pkg;
    dd::Edge original = pkg.buildCircuit(c);
    EXPECT_EQ(original, pkg.buildCircuit(cz));
    EXPECT_EQ(original, pkg.buildCircuit(back));
}

TEST(Rebase, CnotLadderSharesHadamards)
{
    // Two CNOTs onto the same target: naive rebasing inserts 4 H, the
    // pass cancels the middle pair.
    Circuit c(3);
    c.addCnot(0, 2);
    c.addCnot(1, 2);
    Circuit cz = decompose::rebaseToCz(c);
    size_t h_count = 0;
    for (const Gate &g : cz) {
        if (g.kind() == GateKind::H)
            ++h_count;
    }
    EXPECT_EQ(h_count, 2u);
}

TEST(Report, IncludesSuccessProbabilityWhenCalibrated)
{
    Device dev = makeIbmqx2();
    dev.attachSyntheticCalibration(3);
    Compiler compiler(dev);
    Circuit c(2, "calibrated");
    c.addH(0);
    c.addCnot(0, 1);
    CompileResult res = compiler.compile(c);
    std::string json = compileReportJson(res, dev);
    EXPECT_NE(json.find("\"success_probability\""), std::string::npos);
}
