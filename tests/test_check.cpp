/**
 * @file
 * Unit tests of the qsyn::check correctness library: each oracle's
 * pass and fail behavior, failure shrinking and blame attribution, the
 * corpus round-trip, and the fuzzing loop itself.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "check/corpus.hpp"
#include "check/fuzzer.hpp"
#include "check/oracles.hpp"
#include "check/shrink.hpp"
#include "device/registry.hpp"
#include "ir/random_circuit.hpp"

using namespace qsyn;
using namespace qsyn::check;

namespace {

/** A CNOT whose endpoints are distance >= 2 on ibmqx4, so the CTR
 *  router must reroute (and the planted swap-back fault fires). */
Circuit
reroutedCnotInput()
{
    Circuit c(4, "rerouted");
    c.addCnot(0, 3);
    return c;
}

CompileOptions
faultyOptions()
{
    CompileOptions opts;
    opts.routing.testOmitSwapBack = true;
    return opts;
}

} // namespace

// ---------------------------------------------------------------------
// Oracle stack on healthy and broken compiles.
// ---------------------------------------------------------------------

TEST(OracleStack, AllGreenOnHealthyCompile)
{
    Circuit input(3, "toffoli");
    input.addCcx(0, 1, 2);
    input.addH(0);
    input.addCnot(0, 2);

    OracleReport report =
        runAllOracles(input, makeIbmqx4(), CompileOptions{});
    EXPECT_TRUE(report.allPassed()) << report.summary();
    EXPECT_EQ(report.outcomes.size(), 8u);
    EXPECT_EQ(report.firstFailure(), nullptr);
    for (const OracleOutcome &o : report.outcomes)
        EXPECT_FALSE(o.skipped) << oracleName(o.id);
}

TEST(OracleStack, QmddAndStatevectorCatchSwapBackFault)
{
    OracleReport report = runAllOracles(reroutedCnotInput(),
                                        makeIbmqx4(), faultyOptions());
    EXPECT_FALSE(report.allPassed());
    ASSERT_NE(report.firstFailure(), nullptr);
    EXPECT_EQ(report.firstFailure()->id, OracleId::QmddEquivalence);

    bool statevector_failed = false;
    bool legality_passed = false;
    for (const OracleOutcome &o : report.outcomes) {
        if (o.id == OracleId::Statevector)
            statevector_failed = !o.passed && !o.skipped;
        if (o.id == OracleId::Legality)
            legality_passed = o.passed;
    }
    // Two independent oracles agree on the inequivalence; the output
    // is still perfectly legal (that is what makes the bug sneaky).
    EXPECT_TRUE(statevector_failed);
    EXPECT_TRUE(legality_passed);
}

TEST(OracleStack, LegalityCatchesUncoupledCnotAndForeignGate)
{
    Device dev = makeIbmqx4();
    CompileResult result;
    result.input = Circuit(2);
    result.placement = {0, 1};

    // ibmqx4 has no 0 -> 3 coupling in either direction.
    Circuit bad_edge(5);
    bad_edge.addCnot(0, 3);
    result.optimized = bad_edge;
    EXPECT_FALSE(checkLegality(result, dev).passed);

    // SWAP is not in the native transmon library.
    Circuit foreign(5);
    foreign.addSwap(0, 1);
    result.optimized = foreign;
    EXPECT_FALSE(checkLegality(result, dev).passed);

    // A correctly oriented coupling passes.
    Circuit good(5);
    good.addCnot(1, 0);
    result.optimized = good;
    EXPECT_TRUE(checkLegality(result, dev).passed);
}

TEST(OracleStack, CostSanityCatchesDoctoredMetrics)
{
    Circuit input(3);
    input.addCcx(0, 1, 2);
    CompileOptions copts;
    copts.verify = VerifyMode::Off;
    Compiler compiler(makeIbmqx4(), copts);
    CompileResult result = compiler.compile(input);
    ASSERT_TRUE(checkCostSanity(result, copts).passed);

    CompileResult doctored = result;
    doctored.optimizedM.gates += 1;
    EXPECT_FALSE(checkCostSanity(doctored, copts).passed);

    doctored = result;
    doctored.optimizedM.cost = doctored.unoptimized.cost + 5.0;
    EXPECT_FALSE(checkCostSanity(doctored, copts).passed);
}

TEST(OracleStack, DeterminismHoldsAcrossRecompilesAndJobs)
{
    Rng rng(42);
    Circuit input = randomNctCascade(rng, 4, 12, 2);
    OracleOutcome out =
        checkDeterminism(input, makeIbmqx2(), CompileOptions{});
    EXPECT_TRUE(out.passed) << out.details;
}

TEST(OracleStack, CacheConsistencyHoldsOnDeepCompile)
{
    // A 250-gate, 5-qubit Clifford+T compile: its QMDD counters differ
    // between two compiles of the same input (the compute-cache sets
    // hash node addresses), which must not read as a stale cache.
    RandomCircuitOptions gen;
    gen.numQubits = 5;
    gen.numGates = 250;
    gen.gateSet = RandomGateSet::CliffordT;
    gen.seed = 11;
    OracleOutcome out = checkCacheConsistency(
        randomCircuit(gen), makeIbmqx4(), CompileOptions{});
    EXPECT_TRUE(out.passed) << out.details;
}

TEST(OracleStack, RunCaseFoldsMappingErrorIntoRejected)
{
    Circuit wide(10);
    wide.addCnot(0, 9);
    CaseOutcome outcome =
        runCase(wide, makeIbmqx4(), CompileOptions{});
    EXPECT_EQ(outcome.status, CaseStatus::Rejected);
    EXPECT_FALSE(outcome.failed());
    EXPECT_FALSE(outcome.error.empty());
}

// ---------------------------------------------------------------------
// Shrinking and blame attribution.
// ---------------------------------------------------------------------

TEST(Shrink, MinimizesFaultyCaseToSingleCnot)
{
    RandomCircuitOptions gen;
    gen.numQubits = 4;
    gen.numGates = 20;
    gen.gateSet = RandomGateSet::Nct;
    gen.seed = 7;
    Circuit input = randomCircuit(gen);

    Device dev = makeIbmqx4();
    CompileOptions opts = faultyOptions();
    // Noise the shrinker must strip.
    opts.optimizer.enablePhasePolynomial = true;
    ASSERT_TRUE(runCase(input, dev, opts).failed());

    ShrinkResult shrunk = shrinkCase(input, dev, opts);
    EXPECT_LE(shrunk.circuit.size(), 2u);
    EXPECT_GE(shrunk.circuit.size(), 1u);
    // The fault flag is load-bearing and must survive; the unrelated
    // optimizer extension must have been reset.
    EXPECT_TRUE(shrunk.options.routing.testOmitSwapBack);
    EXPECT_FALSE(shrunk.options.optimizer.enablePhasePolynomial);
    // The minimized case still fails.
    EXPECT_TRUE(runCase(shrunk.circuit, dev, shrunk.options).failed());
}

TEST(Shrink, BlameNamesTheRoutingStage)
{
    EXPECT_EQ(blameFirstBrokenStage(reroutedCnotInput(), makeIbmqx4(),
                                    faultyOptions()),
              "route");
}

TEST(Shrink, BlameSaysNoneOnHealthyCompile)
{
    Circuit input(3);
    input.addCcx(0, 1, 2);
    EXPECT_EQ(blameFirstBrokenStage(input, makeIbmqx4(),
                                    CompileOptions{}),
              "none");
}

// ---------------------------------------------------------------------
// Corpus round-trip.
// ---------------------------------------------------------------------

TEST(Corpus, FlagsRoundTripThroughTheCliGrammar)
{
    CompileOptions opts;
    opts.placement = route::PlacementStrategy::Greedy;
    opts.mcxStrategy = decompose::McxStrategy::DirtyVChain;
    opts.routing.router = route::RouterKind::Sabre;
    opts.routing.fidelityAware = true;
    opts.routing.testOmitSwapBack = true;
    opts.optimize = false;
    opts.optimizeTechIndependent = false;
    opts.optimizer.enablePhasePolynomial = true;
    opts.optimizer.weights.tWeight = 0.75;

    CompileOptions back =
        compileOptionsFromFlags(compileOptionsToFlags(opts));
    EXPECT_EQ(back.placement, opts.placement);
    EXPECT_EQ(back.mcxStrategy, opts.mcxStrategy);
    EXPECT_EQ(back.routing.router, opts.routing.router);
    EXPECT_EQ(back.routing.fidelityAware, opts.routing.fidelityAware);
    EXPECT_EQ(back.routing.testOmitSwapBack,
              opts.routing.testOmitSwapBack);
    EXPECT_EQ(back.optimize, opts.optimize);
    EXPECT_EQ(back.optimizeTechIndependent,
              opts.optimizeTechIndependent);
    EXPECT_EQ(back.optimizer.enablePhasePolynomial,
              opts.optimizer.enablePhasePolynomial);
    EXPECT_DOUBLE_EQ(back.optimizer.weights.tWeight,
                     opts.optimizer.weights.tWeight);

    EXPECT_TRUE(compileOptionsToFlags(CompileOptions{}).empty());
}

TEST(Corpus, SaveLoadReplayRoundTrip)
{
    namespace fs = std::filesystem;
    fs::path dir =
        fs::temp_directory_path() / "qsyn_corpus_roundtrip_test";
    fs::remove_all(dir);

    Reproducer repro;
    repro.name = "toffoli-on-qx4";
    repro.circuit = Circuit(3, "toffoli");
    repro.circuit.addCcx(0, 1, 2);
    repro.circuit.addH(1);
    repro.device = makeIbmqx4();
    repro.options.placement = route::PlacementStrategy::Greedy;
    repro.notes.push_back("round-trip test entry");

    std::string entry = saveReproducer(dir.string(), repro);
    ASSERT_EQ(listCorpus(dir.string()).size(), 1u);

    Reproducer loaded = loadReproducer(entry);
    EXPECT_EQ(loaded.name, "toffoli-on-qx4");
    EXPECT_EQ(loaded.circuit, repro.circuit);
    EXPECT_EQ(loaded.device.name(), "ibmqx4");
    EXPECT_EQ(loaded.device.numQubits(), 5);
    EXPECT_EQ(loaded.options.placement,
              route::PlacementStrategy::Greedy);
    ASSERT_EQ(loaded.notes.size(), 1u);
    EXPECT_EQ(loaded.notes[0], "round-trip test entry");

    CaseOutcome outcome = replayReproducer(loaded);
    EXPECT_EQ(outcome.status, CaseStatus::Ok)
        << outcome.report.summary();

    fs::remove_all(dir);
}

TEST(Corpus, ListCorpusOnMissingDirectoryIsEmpty)
{
    EXPECT_TRUE(listCorpus("/nonexistent/qsyn/corpus").empty());
}

// ---------------------------------------------------------------------
// The fuzzing loop.
// ---------------------------------------------------------------------

TEST(Fuzzer, CleanRunIsGreenAndExercisesEveryOracle)
{
    FuzzOptions fopts;
    fopts.seed = 5;
    fopts.iterations = 12;
    fopts.maxQubits = 4;
    fopts.maxGates = 10;
    std::ostringstream log;
    FuzzSummary summary = runFuzzer(fopts, log);
    EXPECT_TRUE(summary.clean()) << log.str();
    EXPECT_EQ(summary.casesRun, 12u);
    EXPECT_TRUE(summary.oracleExercised(OracleId::QmddEquivalence));
    EXPECT_TRUE(summary.oracleExercised(OracleId::Statevector));
    EXPECT_TRUE(summary.oracleExercised(OracleId::Legality));
    EXPECT_TRUE(summary.oracleExercised(OracleId::CostSanity));
    EXPECT_TRUE(summary.oracleExercised(OracleId::Determinism));
}

TEST(Fuzzer, FaultInjectedRunIsCaughtAndShrunkSmall)
{
    FuzzOptions fopts;
    fopts.seed = 5;
    fopts.iterations = 10;
    fopts.maxQubits = 4;
    fopts.maxGates = 12;
    fopts.injectSwapBackFault = true;
    std::ostringstream log;
    FuzzSummary summary = runFuzzer(fopts, log);
    ASSERT_FALSE(summary.clean())
        << "planted fault went uncaught\n"
        << log.str();
    EXPECT_LE(summary.smallestFailureGates(), 8u);
    for (const FuzzFailure &f : summary.failures)
        EXPECT_EQ(f.blame, "route") << f.oracle << ": " << f.details;
}

TEST(Fuzzer, ReplayFlagsFailingCorpusEntries)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() / "qsyn_replay_test";
    fs::remove_all(dir);

    Reproducer good;
    good.name = "good";
    good.circuit = Circuit(2);
    good.circuit.addCnot(0, 1);
    good.device = makeIbmqx4();
    saveReproducer(dir.string(), good);

    Reproducer bad = good;
    bad.name = "bad";
    bad.circuit = reroutedCnotInput();
    bad.options.routing.testOmitSwapBack = true;
    saveReproducer(dir.string(), bad);

    std::ostringstream log;
    std::vector<std::string> failing =
        replayCorpus(dir.string(), OracleOptions{}, log);
    ASSERT_EQ(failing.size(), 1u) << log.str();
    EXPECT_NE(failing[0].find("bad"), std::string::npos);

    fs::remove_all(dir);
}
