/**
 * @file
 * Unit tests for the QMDD equivalence checker: direct canonical
 * comparison, global phase, ancilla projection, node budgets,
 * cross-validation against the simulator, and the differential test
 * that holds check()'s projected miter to checkDirect()'s verdicts.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.hpp"
#include "common/errors.hpp"
#include "common/rng.hpp"
#include "core/qsyn.hpp"
#include "esop/cascade.hpp"
#include "frontend/pla_parser.hpp"
#include "ir/random_circuit.hpp"
#include "qmdd/equivalence.hpp"
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
    // One package for every pair, as qverify runs them: each check's
    // sampled simulations start on the previous check's garbage and
    // cross the trigger. The sampled inputs and the first circuit's
    // output must survive those sweeps, or a pair is refuted.
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

TEST(EquivalenceGc, QuickRefuteOnASharedPackageAcrossThreads)
{
    // Two workers verify on one package, so each sweep one of them
    // requests must wait for the other at a safe point and keep both
    // workers' states.
    const CompiledPair pairs[] = {compiledPair("adder.pla", makeIbmqx4()),
                                  compiledPair("adder.pla", makeIbmqx5())};
    dd::Package pkg(lowGcTrigger());
    std::vector<Equivalence> verdicts[2];
    auto worker = [&](size_t w) {
        try {
            for (int round = 0; round < 3; ++round)
                verdicts[w].push_back(sampledCheck(pkg, pairs[w]));
        } catch (const std::exception &e) {
            ADD_FAILURE() << "worker " << w << ": " << e.what();
        }
    };
    std::thread first(worker, 0);
    std::thread second(worker, 1);
    first.join();
    second.join();
    for (const auto &per_worker : verdicts) {
        EXPECT_EQ(per_worker.size(), 3u);
        for (Equivalence v : per_worker)
            EXPECT_TRUE(dd::isEquivalent(v)) << dd::equivalenceName(v);
    }
    EXPECT_GT(pkg.stats().gcRuns, 0u);
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

    // The package still verifies afterwards, on this thread and on
    // another whose check crosses the GC trigger: a session the throw
    // had leaked would hold that worker's safe point forever.
    Circuit small(2);
    small.addH(0);
    small.addCnot(0, 1);
    EXPECT_EQ(checker.check(small, small), Equivalence::Equivalent);
    CompiledPair p = compiledPair("adder.pla", makeIbmqx5());
    size_t runs_before = pkg.stats().gcRuns;
    Equivalence other = Equivalence::Inconclusive;
    std::thread([&] {
        try {
            other = sampledCheck(pkg, p);
        } catch (const std::exception &e) {
            ADD_FAILURE() << e.what();
        }
    }).join();
    EXPECT_TRUE(dd::isEquivalent(other)) << dd::equivalenceName(other);
    EXPECT_GT(pkg.stats().gcRuns, runs_before);
}
