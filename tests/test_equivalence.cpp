/**
 * @file
 * Unit tests for the QMDD equivalence checker: direct canonical
 * comparison, global phase, ancilla projection, node budgets,
 * cross-validation against the simulator, the miter's fused steps,
 * and the differential test that holds check()'s projected miter to
 * checkDirect()'s exact verdicts.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "common/deadline.hpp"
#include "common/errors.hpp"
#include "common/rng.hpp"
#include "core/qsyn.hpp"
#include "esop/cascade.hpp"
#include "frontend/pla_parser.hpp"
#include "ir/random_circuit.hpp"
#include "obs/obs.hpp"
#include "qmdd/equivalence.hpp"
#include "service/json.hpp"
#include "sim/statevector.hpp"
#include "verdict_differential.hpp"

#ifndef QSYN_DATA_DIR
#error "QSYN_DATA_DIR must point at data/circuits"
#endif

using namespace qsyn;
using dd::Equivalence;
using dd::EquivalenceChecker;
using dd::EquivalenceOptions;

TEST(Equivalence, IdenticalCircuits)
{
    dd::Package pkg;
    EquivalenceChecker checker(pkg);
    Circuit a(2);
    a.addH(0);
    a.addCnot(0, 1);
    EXPECT_EQ(checker.check(a, a), Equivalence::Equivalent);
}

TEST(Equivalence, RewrittenCircuit)
{
    dd::Package pkg;
    EquivalenceChecker checker(pkg);
    Circuit a(2);
    a.addCnot(0, 1);
    Circuit b(2); // Fig. 6 reversal identity
    b.addH(0);
    b.addH(1);
    b.addCnot(1, 0);
    b.addH(0);
    b.addH(1);
    EXPECT_EQ(checker.check(a, b), Equivalence::Equivalent);
}

TEST(Equivalence, DetectsInequivalence)
{
    dd::Package pkg;
    EquivalenceChecker checker(pkg);
    Circuit a(2);
    a.addCnot(0, 1);
    Circuit b(2);
    b.addCnot(1, 0);
    EXPECT_EQ(checker.check(a, b), Equivalence::NotEquivalent);
}

TEST(Equivalence, GlobalPhase)
{
    using std::numbers::pi;
    dd::Package pkg;
    EquivalenceChecker checker(pkg);
    Circuit a(1);
    a.addZ(0);
    // Rz(pi) = -i Z: same up to a global phase of -i.
    Circuit b(1);
    b.add(Gate::rz(0, pi));

    EquivalenceOptions strict;
    strict.upToGlobalPhase = false;
    EXPECT_EQ(checker.check(a, b, strict), Equivalence::NotEquivalent);

    EquivalenceOptions lax;
    lax.upToGlobalPhase = true;
    EXPECT_EQ(checker.check(a, b, lax),
              Equivalence::EquivalentUpToPhase);
}

TEST(Equivalence, WiderCircuitPadsWithIdentity)
{
    dd::Package pkg;
    EquivalenceChecker checker(pkg);
    Circuit narrow(2);
    narrow.addCnot(0, 1);
    Circuit wide(5);
    wide.addCnot(0, 1);
    EXPECT_EQ(checker.check(narrow, wide), Equivalence::Equivalent);
}

TEST(Equivalence, AncillaProjection)
{
    // b uses wire 2 as a clean ancilla: CCX-computed AND, used, then
    // uncomputed. On the ancilla=|0> subspace it equals a CCZ-free
    // CNOT(0,1)... simplest: compute AND into ancilla and back is the
    // identity on the data wires.
    Circuit a(2); // identity
    Circuit b(3);
    b.addCcx(0, 1, 2);
    b.addCcx(0, 1, 2);

    dd::Package pkg;
    EquivalenceChecker checker(pkg);
    EXPECT_EQ(checker.check(a, b), Equivalence::Equivalent);

    // A variant whose ancilla matters: copy AND into the ancilla and
    // leave it (not restored) - full unitary differs, projected check
    // must also fail because the ancilla output is not |0>.
    Circuit c(3);
    c.addCcx(0, 1, 2);
    EquivalenceOptions opts;
    opts.ancillaWires = {2};
    EXPECT_EQ(checker.check(a, c, opts), Equivalence::NotEquivalent);

    // And one where the ancilla genuinely helps: Toffoli implemented
    // via a borrowed-looking clean wire.
    Circuit ref(3);
    ref.addCcx(0, 1, 2);
    Circuit impl(4);
    impl.addCcx(0, 1, 3); // and into ancilla
    impl.addCnot(3, 2);   // copy onto target
    impl.addCcx(0, 1, 3); // uncompute
    EquivalenceOptions anc;
    anc.ancillaWires = {3};
    EXPECT_EQ(checker.check(ref, impl, anc), Equivalence::Equivalent);
    // Without the projection the circuits differ (wire 3 dirty case).
    EXPECT_EQ(checker.check(ref, impl), Equivalence::NotEquivalent);
}

TEST(Equivalence, NodeBudgetYieldsInconclusive)
{
    dd::Package pkg;
    EquivalenceChecker checker(pkg);
    Rng rng(5);
    RandomCircuitOptions ropts;
    ropts.numQubits = 8;
    ropts.numGates = 120;
    ropts.maxControls = 3;
    Circuit a = randomCircuit(rng, ropts);
    EquivalenceOptions opts;
    opts.nodeBudget = 4; // absurdly small
    EXPECT_EQ(checker.check(a, a, opts), Equivalence::Inconclusive);
}

TEST(Equivalence, RejectsMeasurements)
{
    dd::Package pkg;
    EquivalenceChecker checker(pkg);
    Circuit a(1);
    a.add(Gate::measure(0, 0));
    EXPECT_THROW(checker.check(a, a), UserError);
}

TEST(Equivalence, AgreesWithSimulatorOnRandomPairs)
{
    Rng rng(11);
    RandomCircuitOptions ropts;
    ropts.numQubits = 5;
    ropts.numGates = 40;
    ropts.allowRotations = true;
    for (int trial = 0; trial < 10; ++trial) {
        Circuit a = randomCircuit(rng, ropts);
        Circuit b = randomCircuit(rng, ropts);
        dd::Package pkg;
        EquivalenceChecker checker(pkg);
        bool dd_equal = dd::isEquivalent(checker.check(a, b));

        // Simulator oracle: a random state through a and b.
        sim::StateVector sa(5), sb(5);
        sa.setRandom(rng);
        sb = sa;
        sa.apply(a);
        sb.apply(b);
        bool sim_equal = sa.equalsUpToPhase(sb, 1e-9);
        // dd_equal (up to phase) must imply sim_equal; a single random
        // state distinguishing them must imply NotEquivalent.
        if (dd_equal) {
            EXPECT_TRUE(sim_equal) << "trial " << trial;
        }
        if (!sim_equal) {
            EXPECT_FALSE(dd_equal) << "trial " << trial;
        }
    }
}

TEST(Equivalence, NameStrings)
{
    EXPECT_STREQ(dd::equivalenceName(Equivalence::Equivalent),
                 "equivalent");
    EXPECT_TRUE(dd::isEquivalent(Equivalence::EquivalentUpToPhase));
    EXPECT_FALSE(dd::isEquivalent(Equivalence::Inconclusive));
    EXPECT_FALSE(dd::isEquivalent(Equivalence::NotEquivalent));
}

TEST(Equivalence, QuickRefuteCatchesMismatchesAndPassesEquals)
{
    dd::Package pkg;
    EquivalenceChecker checker(pkg);
    Rng rng(51);
    RandomCircuitOptions ropts;
    ropts.numQubits = 5;
    ropts.numGates = 30;
    Circuit a = randomCircuit(rng, ropts);
    Circuit b = a;
    b.addX(2); // genuinely different

    EquivalenceOptions opts;
    opts.quickRefuteSamples = 4;
    EXPECT_EQ(checker.check(a, b, opts), Equivalence::NotEquivalent);
    // Equal circuits still verify through the full canonical path.
    EXPECT_TRUE(dd::isEquivalent(checker.check(a, a, opts)));
}

TEST(Equivalence, QuickRefuteRespectsAncillaPinning)
{
    // Circuits equal only on the ancilla=|0> subspace: the refuter
    // must not sample ancilla=1 inputs and falsely refute.
    Circuit ref(2);
    ref.addCnot(0, 1);
    Circuit impl(3); // wire 2 = clean ancilla
    impl.addCcx(0, 2, 1); // fires like CNOT(0,1) only when anc=1...
    // Build instead: CNOT via double-toffoli trick on clean ancilla.
    Circuit impl2(3);
    impl2.addX(2);        // anc |0> -> |1>
    impl2.addCcx(0, 2, 1); // acts as CNOT(0,1)
    impl2.addX(2);        // restore

    dd::Package pkg;
    EquivalenceChecker checker(pkg);
    EquivalenceOptions opts;
    opts.ancillaWires = {2};
    opts.quickRefuteSamples = 6;
    EXPECT_TRUE(dd::isEquivalent(checker.check(ref, impl2, opts)));
    (void)impl;
}

// ---------------------------------------------------------------------
// Fused miter steps: check() multiplies each run of gates on at most
// three wires into one block before the block meets the product.
// ---------------------------------------------------------------------

namespace {

/** check()'s verdict and the fused steps its `qmdd.miter` span
 *  reports for the reference (a) and the candidate (b). */
struct MiterRun
{
    Equivalence verdict = Equivalence::Inconclusive;
    double stepsA = -1;
    double stepsB = -1;
};

MiterRun
tracedCheck(dd::Package &pkg, const Circuit &a, const Circuit &b,
            const EquivalenceOptions &opts = {})
{
    obs::ScopedSink sink;
    MiterRun run;
    run.verdict = EquivalenceChecker(pkg).check(a, b, opts);
    for (const obs::TraceEvent &ev : sink->events()) {
        if (ev.name != "qmdd.miter")
            continue;
        service::Json args;
        std::string error;
        EXPECT_TRUE(service::parseJson("{" + ev.argsJson + "}", &args,
                                       &error))
            << error;
        run.stepsA = args.at("steps_a").number;
        run.stepsB = args.at("steps_b").number;
    }
    return run;
}

/** Nielsen & Chuang's Clifford+T Toffoli on wires 0, 1 (controls)
 *  and 2 (target): 15 gates on three wires. */
Circuit
cliffordTToffoli(Qubit width)
{
    Circuit c(width);
    c.addH(2);
    c.addCnot(1, 2);
    c.addTdg(2);
    c.addCnot(0, 2);
    c.addT(2);
    c.addCnot(1, 2);
    c.addTdg(2);
    c.addCnot(0, 2);
    c.addT(1);
    c.addT(2);
    c.addH(2);
    c.addCnot(0, 1);
    c.addT(0);
    c.addTdg(1);
    c.addCnot(0, 1);
    return c;
}

} // namespace

TEST(EquivalenceFusedSteps, ThreeQubitPairIsOneBlockPerSide)
{
    Circuit ccx(3);
    ccx.addCcx(0, 1, 2);
    dd::Package pkg;
    MiterRun run = tracedCheck(pkg, ccx, cliffordTToffoli(3));
    EXPECT_EQ(run.verdict, Equivalence::Equivalent);
    EXPECT_EQ(run.stepsA, 1.0);
    EXPECT_EQ(run.stepsB, 1.0);

    // One wrong gate inside the block is still refuted.
    Circuit wrong = testutil::withGate(cliffordTToffoli(3), 8,
                                       Gate::tdg(1));
    EXPECT_EQ(tracedCheck(pkg, ccx, wrong).verdict,
              Equivalence::NotEquivalent);
}

TEST(EquivalenceFusedSteps, FourControlMcxIsABlockOfItsOwn)
{
    // Runs: {H 0, CNOT 0 1} on two wires, the 5-wire MCX alone, then
    // {T 4, CNOT 3 4}; the MCX ends the first run even though the
    // first run has room for a third wire.
    Circuit c(6);
    c.addH(0);
    c.addCnot(0, 1);
    c.addMcx({0, 1, 2, 3}, 4);
    c.addT(4);
    c.addCnot(3, 4);
    dd::Package pkg;
    MiterRun run = tracedCheck(pkg, c, c);
    EXPECT_EQ(run.verdict, Equivalence::Equivalent);
    EXPECT_EQ(run.stepsA, 3.0);
    EXPECT_EQ(run.stepsB, 3.0);

    // An MCX with one control moved is refuted, as checkDirect does.
    Circuit moved = testutil::withGate(c, 2, Gate::mcx({0, 1, 2, 5}, 4));
    EXPECT_EQ(tracedCheck(pkg, c, moved).verdict,
              Equivalence::NotEquivalent);
    dd::Package direct_pkg;
    EXPECT_EQ(EquivalenceChecker(direct_pkg).checkDirect(c, moved),
              Equivalence::NotEquivalent);
}

TEST(EquivalenceFusedSteps, BarriersNeitherCountNorEndARun)
{
    // A barrier is the identity. A five-wire barrier before every gate
    // neither counts toward a run's three wires nor ends the run, so
    // the fenced circuit takes the plain one's steps on either side.
    Circuit plain = cliffordTToffoli(5);
    Circuit fenced(5);
    for (const Gate &g : plain) {
        fenced.add(Gate::barrier({0, 1, 2, 3, 4}));
        fenced.add(g);
    }
    dd::Package pkg;
    const MiterRun base = tracedCheck(pkg, plain, plain);
    for (const auto &[a, b] : {std::pair{plain, fenced},
                               std::pair{fenced, plain},
                               std::pair{fenced, fenced}}) {
        MiterRun run = tracedCheck(pkg, a, b);
        EXPECT_EQ(run.verdict, Equivalence::Equivalent);
        EXPECT_EQ(run.stepsA, base.stepsA);
        EXPECT_EQ(run.stepsB, base.stepsB);
    }

    // One wrong gate behind a barrier is still refuted.
    Circuit wrong = testutil::withGate(fenced, 17, Gate::tdg(1));
    EXPECT_EQ(tracedCheck(pkg, plain, wrong).verdict,
              Equivalence::NotEquivalent);
}

TEST(EquivalenceFusedSteps, NodeBudgetIsCheckedAfterTheFirstBlock)
{
    Circuit ccx(3);
    ccx.addCcx(0, 1, 2);
    EquivalenceOptions opts;
    opts.nodeBudget = 4;
    dd::Package pkg;
    MiterRun run = tracedCheck(pkg, ccx, cliffordTToffoli(3), opts);
    EXPECT_EQ(run.verdict, Equivalence::Inconclusive);
    // The candidate's block went first and already crossed the budget.
    EXPECT_EQ(run.stepsB, 1.0);
    EXPECT_EQ(run.stepsA, 0.0);
}

TEST(EquivalenceFusedSteps, ExpiredDeadlineStopsInsideABlock)
{
    // The whole 15-gate candidate is one block; the per-gate poll
    // inside it still names the miter.
    Circuit ccx(3);
    ccx.addCcx(0, 1, 2);
    dd::Package pkg;
    deadline::Scope expired(deadline::Clock::now() -
                            std::chrono::seconds(1));
    try {
        EquivalenceChecker(pkg).check(ccx, cliffordTToffoli(3));
        ADD_FAILURE() << "no deadline error";
    } catch (const DeadlineError &e) {
        EXPECT_NE(std::string(e.what()).find("qmdd miter check"),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------------
// Differential verdicts: check() (the projected miter, with its
// direct-build fallback) against checkDirect() (two full builds).
// ---------------------------------------------------------------------

namespace {

using testutil::bothVerdicts;
using testutil::differential;
using testutil::expectSameVerdict;

Circuit
loadDataCircuit(const std::string &name)
{
    std::string path = std::string(QSYN_DATA_DIR) + "/" + name;
    if (name.ends_with(".pla"))
        return esop::synthesizePla(frontend::loadPlaFile(path));
    return frontend::loadCircuitFile(path);
}

} // namespace

TEST(EquivalenceDifferential, CompiledDataCircuitsAndTheirNearMisses)
{
    size_t refuted = 0;
    for (const char *file : {"adder.pla", "clifford_t.qc",
                             "mod5_cascade.real", "toffoli.qasm"}) {
        Circuit input = loadDataCircuit(file);
        for (Device dev : {makeIbmqx4(), makeIbmqx5()}) {
            CompileOptions copts;
            copts.verify = VerifyMode::Off; // the test is the check
            CompileResult res = Compiler(dev, copts).compile(input);
            refuted += differential(
                res.referenceOnDevice(dev.numQubits()), res.optimized,
                res.ancillas, std::string(file) + " on " + dev.name());
        }
    }
    // The mutants are real near misses, not accidental identities.
    EXPECT_GE(refuted, 40u);
}

TEST(EquivalenceDifferential, ReferenceOnAnAncillaWireFallsBackToDirect)
{
    // Both circuits flip wire 3 and leave it flipped, so they agree on
    // the ancilla=|0> subspace. The reference does not commute with
    // the projector, so a miter seeded with P would refute the pair;
    // check() must take the direct build instead.
    Circuit ref(4);
    ref.addX(3);
    ref.addCnot(3, 2);
    Circuit impl(4);
    impl.addX(2);
    impl.addX(3);
    EquivalenceOptions opts;
    opts.ancillaWires = {3};
    auto [miter, direct] = bothVerdicts(ref, impl, opts);
    EXPECT_EQ(direct, Equivalence::Equivalent);
    EXPECT_EQ(miter, direct);

    Circuit wrong(4);
    wrong.addX(1);
    wrong.addX(3);
    EXPECT_FALSE(expectSameVerdict(ref, wrong, opts, "wrong target"));
}

// ---------------------------------------------------------------------
// GC and cancellation inside a check. A low GC trigger makes the
// sweeps run mid-check on small inputs.
// ---------------------------------------------------------------------

namespace {

/** A compiled data circuit with its on-device reference. */
struct CompiledPair
{
    Circuit ref;
    Circuit out;
    std::vector<Qubit> ancillas;
};

CompiledPair
compiledPair(const std::string &file, const Device &dev)
{
    CompileOptions copts;
    copts.verify = VerifyMode::Off; // the test is the check
    CompileResult res =
        Compiler(dev, copts).compile(loadDataCircuit(file));
    return {res.referenceOnDevice(dev.numQubits()), res.optimized,
            res.ancillas};
}

dd::PackageConfig
lowGcTrigger()
{
    dd::PackageConfig cfg;
    cfg.gcThreshold = 1024;
    return cfg;
}

/** check() with sampled refutation first, as qverify runs it. */
Equivalence
sampledCheck(dd::Package &pkg, const CompiledPair &p)
{
    EquivalenceOptions opts;
    opts.ancillaWires = p.ancillas;
    opts.quickRefuteSamples = 4;
    return EquivalenceChecker(pkg).check(p.ref, p.out, opts);
}

} // namespace

TEST(EquivalenceGc, QuickRefuteKeepsItsStatesThroughGc)
{
    // One package for every pair, so each check's sampled simulations
    // start on the previous check's garbage and cross the trigger. The
    // sampled inputs and the first circuit's output must survive those
    // sweeps, or a pair is refuted.
    dd::Package pkg(lowGcTrigger());
    for (const char *file : {"adder.pla", "clifford_t.qc",
                             "mod5_cascade.real", "toffoli.qasm"}) {
        for (Device dev : {makeIbmqx4(), makeIbmqx5()}) {
            Equivalence v = sampledCheck(pkg, compiledPair(file, dev));
            EXPECT_TRUE(dd::isEquivalent(v))
                << file << " on " << dev.name() << ": "
                << dd::equivalenceName(v);
        }
    }
}

TEST(EquivalenceFusedSteps, SweepsBetweenBlocksKeepEveryExactVerdict)
{
    // The differential pairs and their near misses again, with every
    // miter on one package whose low trigger makes GC sweep between
    // blocks: one fused check leaves too little garbage to cross even
    // 1024 live nodes, so each starts on its predecessors' garbage.
    dd::Package swept(lowGcTrigger());
    for (const char *file : {"adder.pla", "clifford_t.qc",
                             "mod5_cascade.real", "toffoli.qasm"}) {
        for (Device dev : {makeIbmqx4(), makeIbmqx5()}) {
            CompiledPair p = compiledPair(file, dev);
            std::string what = std::string(file) + " on " + dev.name();
            auto candidates = testutil::nearMisses(p.out, p.ancillas);
            candidates.emplace_back("verified output", p.out);
            EquivalenceOptions opts;
            opts.ancillaWires = p.ancillas;
            for (const auto &[name, cand] : candidates) {
                Equivalence fused =
                    EquivalenceChecker(swept).check(p.ref, cand, opts);
                dd::Package direct_pkg;
                EXPECT_EQ(fused, EquivalenceChecker(direct_pkg)
                                     .checkDirect(p.ref, cand, opts))
                    << what << ", " << name;
            }
        }
    }
    EXPECT_GT(swept.stats().gcRuns, 0u);
}

TEST(EquivalenceDeadline, ExpiredDeadlineStopsBothChecksAtTheirGatePolls)
{
    Rng rng(61);
    RandomCircuitOptions ropts;
    ropts.numQubits = 8;
    ropts.numGates = 3000;
    Circuit big = randomCircuit(rng, ropts);

    dd::Package pkg(lowGcTrigger());
    EquivalenceChecker checker(pkg);
    auto phaseOfDeadline = [&](bool direct) -> std::string {
        deadline::Scope expired(deadline::Clock::now() -
                                std::chrono::seconds(1));
        try {
            if (direct)
                checker.checkDirect(big, big);
            else
                checker.check(big, big);
        } catch (const DeadlineError &e) {
            return e.what();
        }
        return "no deadline error";
    };
    // Each names the verifier's own per-gate poll, not an earlier one.
    EXPECT_NE(phaseOfDeadline(false).find("qmdd miter check"),
              std::string::npos);
    EXPECT_NE(phaseOfDeadline(true).find("qmdd equivalence check"),
              std::string::npos);

    // The package still verifies afterwards, also through a check
    // that crosses the GC trigger: the throws left its tables whole.
    Circuit small(2);
    small.addH(0);
    small.addCnot(0, 1);
    EXPECT_EQ(checker.check(small, small), Equivalence::Equivalent);
    CompiledPair p = compiledPair("adder.pla", makeIbmqx5());
    size_t runs_before = pkg.stats().gcRuns;
    Equivalence other = sampledCheck(pkg, p);
    EXPECT_TRUE(dd::isEquivalent(other)) << dd::equivalenceName(other);
    EXPECT_GT(pkg.stats().gcRuns, runs_before);
}
