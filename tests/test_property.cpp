/**
 * @file
 * Property-based, parameterized sweeps (gtest TEST_P): compilation of
 * random circuits onto every built-in device must stay verified and
 * legal; every MCX strategy must be exact for every control count
 * (check() and checkDirect() agreeing on it and its near misses); the
 * optimizer must preserve unitaries across random seeds; ESOP
 * synthesis must round-trip random truth tables; the incremental
 * cancellation, window and depth scans must match full rescans.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/dag.hpp"
#include "common/rng.hpp"
#include "core/qsyn.hpp"
#include "esop/cascade.hpp"
#include "esop/reed_muller.hpp"
#include "ir/matrix.hpp"
#include "ir/random_circuit.hpp"
#include "verdict_differential.hpp"

using namespace qsyn;

// ---------------------------------------------------------------------
// Random circuits onto every IBM device.
// ---------------------------------------------------------------------

class CompileOnDevice
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
};

TEST_P(CompileOnDevice, RandomCircuitCompilesLegallyAndVerifies)
{
    const auto &[device_name, seed] = GetParam();
    Device dev = builtinDevice(device_name);
    Rng rng(static_cast<std::uint64_t>(seed));

    RandomCircuitOptions ropts;
    ropts.numQubits = std::min<Qubit>(4, dev.numQubits());
    ropts.numGates = 20;
    ropts.maxControls = 3;
    Circuit input = randomCircuit(rng, ropts);

    Compiler compiler(dev);
    CompileResult res = compiler.compile(input);
    EXPECT_TRUE(res.verified()) << device_name << " seed " << seed;
    for (const Gate &g : res.optimized)
        EXPECT_TRUE(dev.supportsGate(g)) << g.toString();
    EXPECT_LE(res.optimizedM.cost, res.unoptimized.cost);
}

INSTANTIATE_TEST_SUITE_P(
    AllIbmDevices, CompileOnDevice,
    ::testing::Combine(::testing::Values("ibmqx2", "ibmqx3", "ibmqx4",
                                         "ibmqx5", "ibmq_16"),
                       ::testing::Values(1, 2, 3)),
    [](const auto &param_info) {
        return std::get<0>(param_info.param) + "_seed" +
               std::to_string(std::get<1>(param_info.param));
    });

// ---------------------------------------------------------------------
// MCX strategies x control counts.
// ---------------------------------------------------------------------

class McxStrategyProperty
    : public ::testing::TestWithParam<
          std::tuple<decompose::McxStrategy, int>>
{
};

TEST_P(McxStrategyProperty, ExactOnItsSupportedPool)
{
    const auto &[strategy, k] = GetParam();
    auto num_controls = static_cast<size_t>(k);

    std::vector<Qubit> controls;
    for (Qubit i = 0; i < num_controls; ++i)
        controls.push_back(i);
    auto target = static_cast<Qubit>(num_controls);

    decompose::AncillaPool pool;
    std::vector<Qubit> clean_wires;
    Qubit total = target + 1;
    using decompose::McxStrategy;
    if (strategy == McxStrategy::CleanVChain) {
        for (size_t i = 0; i < num_controls - 2; ++i) {
            pool.clean.push_back(total);
            clean_wires.push_back(total);
            ++total;
        }
    } else if (strategy == McxStrategy::DirtyVChain) {
        for (size_t i = 0; i < num_controls - 2; ++i)
            pool.dirty.push_back(total++);
    } else if (strategy == McxStrategy::Split) {
        pool.dirty.push_back(total++);
    }

    Circuit ref(total);
    ref.add(Gate::mcx(controls, target));

    Circuit raw(total);
    decompose::appendMcx(raw, controls, target, pool, strategy);
    decompose::DecomposeOptions dopts;
    dopts.lowerToffoli = true;
    dopts.maxQubits = raw.numQubits();
    Circuit dec = decompose::decomposeToPrimitives(raw, dopts).circuit;

    // check() and checkDirect() must accept the decomposition and
    // agree on each of its near misses.
    size_t refuted = testutil::differential(
        ref, dec, clean_wires,
        std::string(decompose::mcxStrategyName(strategy)) +
            " k=" + std::to_string(k));
    // The mutants are real near misses, not accidental identities.
    EXPECT_GE(refuted, 5u);
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesByControls, McxStrategyProperty,
    ::testing::Combine(
        ::testing::Values(decompose::McxStrategy::CleanVChain,
                          decompose::McxStrategy::DirtyVChain,
                          decompose::McxStrategy::Split,
                          decompose::McxStrategy::Roots),
        ::testing::Values(3, 4, 5, 6)),
    [](const auto &param_info) {
        std::string name =
            decompose::mcxStrategyName(std::get<0>(param_info.param));
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name + "_k" + std::to_string(std::get<1>(param_info.param));
    });

// ---------------------------------------------------------------------
// Optimizer preserves random circuits across seeds.
// ---------------------------------------------------------------------

class OptimizerProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(OptimizerProperty, PreservesUnitaryAndNeverRaisesCost)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    RandomCircuitOptions ropts;
    ropts.numQubits = 5;
    ropts.numGates = 80;
    ropts.allowRotations = true;
    Circuit c = randomCircuit(rng, ropts);

    opt::OptimizerOptions opts;
    opt::OptimizeReport report;
    Circuit out = opt::optimizeCircuit(c, opts, &report);
    EXPECT_LE(report.finalCost, report.initialCost);

    dd::Package pkg;
    EXPECT_EQ(pkg.buildCircuit(c), pkg.buildCircuit(out));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerProperty,
                         ::testing::Range(100, 112));

// ---------------------------------------------------------------------
// ESOP synthesis round-trips random truth tables.
// ---------------------------------------------------------------------

class EsopProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(EsopProperty, SynthesisRoundTripsRandomTables)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    for (int vars = 2; vars <= 5; ++vars) {
        esop::TruthTable t = esop::TruthTable::fromFunction(
            vars,
            [&](std::uint32_t) { return rng.chance(0.5); });
        esop::EsopForm form = esop::synthesizeEsop(t);
        EXPECT_EQ(form.toTruthTable(), t) << "vars=" << vars;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EsopProperty,
                         ::testing::Range(200, 210));

// ---------------------------------------------------------------------
// Routing: every (device, seed) random CNOT pattern stays equivalent.
// ---------------------------------------------------------------------

class RoutingProperty
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
};

TEST_P(RoutingProperty, RoutedNctIsLegalAndEquivalent)
{
    const auto &[device_name, seed] = GetParam();
    Device dev = builtinDevice(device_name);
    Rng rng(static_cast<std::uint64_t>(seed));

    Qubit width = std::min<Qubit>(6, dev.numQubits());
    Circuit c(width, "cnots");
    for (int i = 0; i < 15; ++i) {
        Qubit a = static_cast<Qubit>(rng.below(width));
        Qubit b = static_cast<Qubit>(rng.below(width));
        if (a != b)
            c.addCnot(a, b);
    }
    route::RouteStats stats;
    Circuit routed = route::routeCircuit(c, dev, &stats);
    for (const Gate &g : routed) {
        if (g.isCnot()) {
            EXPECT_TRUE(
                dev.coupling().hasEdge(g.controls()[0], g.target()));
        }
    }
    dd::Package pkg;
    dd::EquivalenceChecker checker(pkg);
    EXPECT_TRUE(dd::isEquivalent(checker.check(c, routed)))
        << device_name;
}

INSTANTIATE_TEST_SUITE_P(
    DevicesAndSeeds, RoutingProperty,
    ::testing::Combine(::testing::Values("ibmqx3", "ibmqx5", "ibmq_16"),
                       ::testing::Values(7, 8, 9, 10)),
    [](const auto &param_info) {
        return std::get<0>(param_info.param) + "_seed" +
               std::to_string(std::get<1>(param_info.param));
    });

// ---------------------------------------------------------------------
// Fault injection: the verifier must catch random mutations of a
// compiled circuit (soundness of the formal-verification step).
// ---------------------------------------------------------------------

class MutationProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(MutationProperty, VerifierCatchesInjectedFaults)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    Device dev = makeIbmqx4();
    RandomCircuitOptions ropts;
    ropts.numQubits = 4;
    ropts.numGates = 15;
    ropts.maxControls = 2;
    Circuit input = randomCircuit(rng, ropts);

    Compiler compiler(dev);
    CompileResult res = compiler.compile(input);
    ASSERT_TRUE(res.verified());

    Circuit reference =
        res.input.remapped(res.placement, dev.numQubits());

    // Mutations that genuinely change the unitary: inserting a T gate
    // (never identity), or toggling a CNOT's direction.
    for (int mutation = 0; mutation < 4; ++mutation) {
        Circuit corrupted = res.optimized;
        size_t pos = rng.below(corrupted.size() + 1);
        switch (mutation % 2) {
          case 0:
            corrupted.insert(pos,
                             Gate::t(static_cast<Qubit>(rng.below(5))));
            break;
          case 1: {
            // Find a CNOT to flip (guaranteed by routing structure).
            bool flipped = false;
            for (size_t i = 0; i < corrupted.size(); ++i) {
                if (corrupted[i].isCnot()) {
                    Gate g = corrupted[i];
                    corrupted.replace(
                        i, Gate::cnot(g.target(), g.controls()[0]));
                    flipped = true;
                    break;
                }
            }
            if (!flipped)
                continue;
            break;
          }
        }
        dd::Package pkg;
        dd::EquivalenceChecker checker(pkg);
        dd::EquivalenceOptions eopts;
        eopts.ancillaWires = res.ancillas;
        dd::Equivalence verdict =
            checker.check(reference, corrupted, eopts);
        EXPECT_FALSE(dd::isEquivalent(verdict))
            << "mutation " << mutation << " went undetected";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationProperty,
                         ::testing::Range(300, 308));

// ---------------------------------------------------------------------
// Phase-polynomial pass on compiled circuits across devices.
// ---------------------------------------------------------------------

class PhasePolyProperty
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
};

TEST_P(PhasePolyProperty, NeverWorseAndAlwaysVerified)
{
    const auto &[device_name, seed] = GetParam();
    Device dev = builtinDevice(device_name);
    Rng rng(static_cast<std::uint64_t>(seed));
    Circuit input = randomNctCascade(
        rng, std::min<Qubit>(4, dev.numQubits()), 10, 2);

    CompileOptions plain;
    Compiler plain_compiler(dev, plain);
    CompileResult a = plain_compiler.compile(input);

    CompileOptions poly;
    poly.optimizer.enablePhasePolynomial = true;
    Compiler poly_compiler(dev, poly);
    CompileResult b = poly_compiler.compile(input);

    EXPECT_TRUE(a.verified());
    EXPECT_TRUE(b.verified());
    EXPECT_LE(b.optimizedM.tCount, a.optimizedM.tCount);
}

INSTANTIATE_TEST_SUITE_P(
    DevicesAndSeeds, PhasePolyProperty,
    ::testing::Combine(::testing::Values("ibmqx2", "ibmqx5"),
                       ::testing::Values(11, 12)),
    [](const auto &param_info) {
        return std::get<0>(param_info.param) + "_seed" +
               std::to_string(std::get<1>(param_info.param));
    });

// ---------------------------------------------------------------------
// Pass-level equivalence: every optimizer pass, run alone, must be
// QMDD-equivalent to its input on seeded random NCT circuits.
// ---------------------------------------------------------------------

class PassEquivalenceProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(PassEquivalenceProperty, EachPassAloneIsExactOnRandomNct)
{
    RandomCircuitOptions gen;
    gen.numQubits = 4;
    gen.numGates = 24;
    gen.maxControls = 2;
    gen.gateSet = RandomGateSet::Nct;
    gen.seed = static_cast<std::uint64_t>(GetParam());
    Circuit nct = randomCircuit(gen);

    // Lower to primitives first: the passes operate on the 1q + CNOT
    // level the optimizer actually sees inside the pipeline.
    decompose::DecomposeOptions dopts;
    Circuit lowered = decompose::decomposeToPrimitives(nct, dopts).circuit;

    struct NamedPass
    {
        const char *name;
        bool (*run)(Circuit &);
    };
    const NamedPass passes[] = {
        {"cancellation",
         [](Circuit &c) { return opt::cancelInversePairs(c); }},
        {"rotation_merge",
         [](Circuit &c) { return opt::mergeRotations(c); }},
        {"hadamard_rules",
         [](Circuit &c) { return opt::applyHadamardRules(c, nullptr); }},
        {"window_identity",
         [](Circuit &c) { return opt::removeIdentityWindows(c); }},
        {"phase_polynomial",
         [](Circuit &c) { return opt::mergePhasePolynomial(c); }},
    };
    Circuit window_fresh = lowered;
    for (const NamedPass &pass : passes) {
        Circuit rewritten = lowered;
        pass.run(rewritten);
        dd::Package pkg;
        dd::EquivalenceChecker checker(pkg);
        EXPECT_TRUE(
            dd::isEquivalent(checker.check(lowered, rewritten)))
            << pass.name << " broke seed " << GetParam();
        if (std::string(pass.name) == "window_identity")
            window_fresh = rewritten;
    }

    // The window memo is invisible: one memo shared by every seed
    // (verdicts learnt on other circuits) gives the same circuit as
    // the fresh memo above.
    static opt::IdentityWindowMemo shared_memo;
    Circuit window_shared = lowered;
    opt::removeIdentityWindows(window_shared, 3, 16, &shared_memo);
    EXPECT_TRUE(window_shared == window_fresh)
        << "shared window memo changed seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, PassEquivalenceProperty,
                         ::testing::Range(400, 450));

// ---------------------------------------------------------------------
// Exactness of the incremental optimizer scans. The linked cancellation
// scan, the window pass's re-collection of changed ranges only, and the
// one-sweep depth must give what the full rescans and the DAG give, on
// seeded circuits built to make both passes work.
// ---------------------------------------------------------------------

namespace reference {

bool
sharesWire(const Gate &a, const Gate &b)
{
    for (Qubit q : a.qubits()) {
        if (b.usesQubit(q))
            return true;
    }
    return false;
}

/** The full-rescan cancellation loop: every sweep scans every start up
 *  to `horizon` gates ahead, until a sweep pairs nothing. Returns the
 *  pairs in the order found; erases them when `erase` is set. */
std::vector<std::pair<size_t, size_t>>
cancelInversePairs(Circuit &circuit, size_t horizon, bool erase)
{
    std::vector<std::pair<size_t, size_t>> pairs;
    std::vector<bool> removed(circuit.size(), false);
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t i = 0; i < circuit.size(); ++i) {
            if (removed[i] || !circuit[i].isUnitary())
                continue;
            const Gate &g = circuit[i];
            size_t limit = circuit.size() - i - 1 > horizon
                               ? i + 1 + horizon
                               : circuit.size();
            for (size_t j = i + 1; j < limit; ++j) {
                if (removed[j])
                    continue;
                const Gate &h = circuit[j];
                if (!sharesWire(g, h))
                    continue;
                if (h.isInverseOf(g)) {
                    removed[i] = removed[j] = true;
                    pairs.emplace_back(i, j);
                    changed = true;
                    break;
                }
                if (g.commutesWith(h))
                    continue;
                break;
            }
        }
    }
    if (erase) {
        std::vector<size_t> indices;
        for (size_t i = 0; i < removed.size(); ++i) {
            if (removed[i])
                indices.push_back(i);
        }
        circuit.eraseMany(indices);
    }
    return pairs;
}

bool
isWindowable(const Gate &g)
{
    return g.isUnitary() && g.kind() != GateKind::I;
}

/** The window at `start`: up to opt::kWindowGates members on at most
 *  opt::kWindowQubits wires, gates disjoint from the window skipped
 *  over, never expanding onto a skipped gate's wires, ended by a
 *  barrier or a touching measure. */
std::vector<size_t>
collectWindow(const Circuit &circuit, size_t start,
              std::vector<Qubit> &wires)
{
    std::vector<size_t> members;
    std::vector<bool> skipped(circuit.numQubits(), false);
    wires.clear();
    auto in_window = [&](Qubit q) {
        return std::find(wires.begin(), wires.end(), q) != wires.end();
    };
    for (size_t j = start;
         j < circuit.size() && members.size() < opt::kWindowGates; ++j) {
        const Gate &g = circuit[j];
        std::vector<Qubit> qs = g.qubits();
        bool overlaps = std::any_of(qs.begin(), qs.end(), in_window);
        if (!isWindowable(g)) {
            if (overlaps || g.kind() == GateKind::Barrier)
                break;
            continue;
        }
        std::vector<Qubit> fresh;
        for (Qubit q : qs) {
            if (!in_window(q))
                fresh.push_back(q);
        }
        if (fresh.empty()) {
            members.push_back(j);
            continue;
        }
        if (!overlaps && !members.empty()) {
            for (Qubit q : qs)
                skipped[q] = true;
            continue;
        }
        bool blocked = std::any_of(fresh.begin(), fresh.end(),
                                   [&](Qubit q) { return skipped[q]; });
        if (blocked || wires.size() + fresh.size() >
                           static_cast<size_t>(opt::kWindowQubits))
            break;
        wires.insert(wires.end(), fresh.begin(), fresh.end());
        members.push_back(j);
    }
    return members;
}

/** Longest prefix (at least 2 gates) of the window multiplying to the
 *  exact identity, or 0. */
size_t
identityPrefix(const Circuit &circuit, const std::vector<size_t> &members,
               const std::vector<Qubit> &wires)
{
    auto local = [&](Qubit q) {
        return static_cast<int>(
            std::find(wires.begin(), wires.end(), q) - wires.begin());
    };
    DenseMatrix m(static_cast<int>(wires.size()));
    size_t best = 0;
    for (size_t k = 0; k < members.size(); ++k) {
        const Gate &g = circuit[members[k]];
        std::vector<int> controls;
        for (Qubit c : g.controls())
            controls.push_back(local(c));
        if (g.kind() == GateKind::Swap)
            m.applySwap(controls, local(g.targets()[0]),
                        local(g.targets()[1]));
        else
            m.applyGate(g.baseMatrix(), controls, local(g.target()));
        if (k >= 1 && m.isIdentity())
            best = k + 1;
    }
    return best;
}

/** The full-rescan window loop: after every erase, every window is
 *  collected again. */
bool
removeIdentityWindows(Circuit &circuit)
{
    bool any = false;
    bool changed = true;
    std::vector<Qubit> wires;
    while (changed) {
        changed = false;
        std::vector<size_t> dead;
        std::vector<bool> used(circuit.size(), false);
        for (size_t start = 0; start < circuit.size(); ++start) {
            if (used[start] || !isWindowable(circuit[start]))
                continue;
            std::vector<size_t> members =
                collectWindow(circuit, start, wires);
            if (members.size() < 2 ||
                std::any_of(members.begin(), members.end(),
                            [&](size_t i) { return used[i]; }))
                continue;
            size_t prefix = identityPrefix(circuit, members, wires);
            for (size_t k = 0; prefix >= 2 && k < prefix; ++k) {
                dead.push_back(members[k]);
                used[members[k]] = true;
            }
        }
        if (!dead.empty()) {
            std::sort(dead.begin(), dead.end());
            circuit.eraseMany(dead);
            changed = true;
            any = true;
        }
    }
    return any;
}

} // namespace reference

namespace {

/** Append an inverse palindrome nested `depth` deep: a random run from
 *  `pool`, sometimes one more gate that need not cancel, the next
 *  level, then the run's inverse reversed. Inner levels cancel first,
 *  and each removal uncovers the next pair for a later sweep. */
void
appendPalindrome(Circuit &c, Rng &rng, const Circuit &pool, int depth)
{
    if (depth == 0 || pool.empty())
        return;
    std::vector<Gate> run;
    size_t len = 1 + rng.below(4);
    for (size_t k = 0; k < len; ++k)
        run.push_back(pool[rng.below(pool.size())]);
    for (const Gate &g : run)
        c.add(g);
    if (rng.chance(0.3))
        c.add(pool[rng.below(pool.size())]);
    appendPalindrome(c, rng, pool, depth - 1);
    for (size_t k = run.size(); k-- > 0;)
        c.add(run[k].inverse());
}

/** Seeded input for the exactness checks: 2 to 96 wires, Clifford+T
 *  with or without rotations, or NCT, optionally lowered to 1q + CNOT,
 *  with nested inverse palindromes and barriers spliced in. */
Circuit
exactnessInput(std::uint64_t seed)
{
    Rng rng(seed);
    RandomCircuitOptions ropts;
    ropts.numQubits = static_cast<Qubit>(2 + rng.below(95));
    ropts.numGates = 10 + rng.below(60);
    ropts.maxControls = 2;
    ropts.allowRotations = rng.chance(0.5);
    ropts.gateSet = rng.chance(0.4) ? RandomGateSet::Nct
                                    : RandomGateSet::CliffordT;
    // Few wires per gate pool make the circuit dense enough to cancel.
    Qubit pool_width = std::min<Qubit>(ropts.numQubits, 2 + rng.below(4));
    RandomCircuitOptions pool_opts = ropts;
    pool_opts.numQubits = pool_width;
    Circuit pool = randomCircuit(rng, pool_opts);
    Circuit base = randomCircuit(rng, ropts);

    Circuit c(ropts.numQubits);
    for (size_t i = 0; i < base.size(); ++i) {
        c.add(base[i]);
        if (rng.chance(0.08))
            appendPalindrome(c, rng, pool,
                             1 + static_cast<int>(rng.below(4)));
        if (rng.chance(0.02)) {
            std::vector<Qubit> fence;
            for (Qubit q = 0; q < c.numQubits(); ++q) {
                if (rng.chance(0.5))
                    fence.push_back(q);
            }
            if (!fence.empty())
                c.add(Gate::barrier(fence));
        }
    }
    if (rng.chance(0.5)) {
        decompose::DecomposeOptions dopts;
        dopts.lowerToffoli = true;
        c = decompose::decomposeToPrimitives(c, dopts).circuit;
    }
    return c;
}

} // namespace

class IncrementalScanExactness : public ::testing::TestWithParam<int>
{
};

TEST_P(IncrementalScanExactness, SameGatesRemovedSameDepth)
{
    for (std::uint64_t variant = 0; variant < 10; ++variant) {
        std::uint64_t seed =
            static_cast<std::uint64_t>(GetParam()) * 10 + variant;
        const Circuit input = exactnessInput(seed);
        SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                     std::to_string(input.numQubits()) + " wires, " +
                     std::to_string(input.size()) + " gates");

        // Cancellation: the same pairs in the same order, within the
        // pass's horizon and without one.
        for (size_t horizon : {size_t{256}, size_t{3}, opt::kNoHorizon}) {
            Circuit ref = input;
            EXPECT_EQ(opt::findInversePairs(input, horizon),
                      reference::cancelInversePairs(ref, horizon, false))
                << "horizon " << horizon;
        }
        Circuit ref = input;
        Circuit got = input;
        bool ref_changed =
            !reference::cancelInversePairs(ref, 256, true).empty();
        EXPECT_EQ(opt::cancelInversePairs(got), ref_changed);
        EXPECT_TRUE(got == ref) << "cancellation";

        // The window pass, on the input and on the cancelled circuit.
        for (const Circuit &start : {input, ref}) {
            Circuit wref = start;
            Circuit wgot = start;
            EXPECT_EQ(opt::removeIdentityWindows(wgot),
                      reference::removeIdentityWindows(wref));
            EXPECT_TRUE(wgot == wref) << "window_identity";
            EXPECT_EQ(analysis::circuitDepth(wgot),
                      analysis::DependencyDag(wgot).depth());
        }
        EXPECT_EQ(analysis::circuitDepth(input),
                  analysis::DependencyDag(input).depth());
        EXPECT_EQ(analysis::circuitDepth(ref),
                  analysis::DependencyDag(ref).depth());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalScanExactness,
                         ::testing::Range(0, 40));

TEST(IncrementalScanEdges, HorizonCountsTheErasedGates)
{
    // H q0, 128 cancelling X pairs on q1, H q0: the closing H lies 257
    // gates after the opening one, past the horizon, until the X
    // gates are erased.
    Circuit c(2);
    c.addH(0);
    for (int k = 0; k < 256; ++k)
        c.addX(1);
    c.addH(0);

    Circuit once = c;
    EXPECT_TRUE(opt::cancelInversePairs(once));
    EXPECT_EQ(once.size(), 2u);
    Circuit twice = once;
    EXPECT_TRUE(opt::cancelInversePairs(twice));
    EXPECT_TRUE(twice.empty());

    // The driver must run cancellation again after its own change
    // although no other pass changed anything: a pass is not settled
    // by its own change.
    opt::OptimizerOptions options;
    options.enableWindowIdentity = false;
    opt::OptimizeReport report;
    EXPECT_TRUE(opt::optimizeCircuit(c, options, &report).empty());
    EXPECT_EQ(report.passes[0].gatesRemoved, 258u);
}

TEST(IncrementalScanEdges, SettledPassesStillCountAsInvocations)
{
    // Round 1: cancellation removes the X pair, nothing else acts.
    // Round 2: cancellation finds nothing, and the other passes, which
    // found nothing since the circuit last changed, are skipped but
    // counted.
    Circuit c(2);
    c.addX(0);
    c.addX(0);
    c.addT(1);
    opt::OptimizeReport report;
    Circuit out = opt::optimizeCircuit(c, {}, &report);
    EXPECT_EQ(out.size(), 1u);
    EXPECT_EQ(report.rounds, 2);
    ASSERT_EQ(report.passes.size(), 4u);
    for (const opt::PassReport &p : report.passes)
        EXPECT_EQ(p.invocations, 2) << p.name;
    EXPECT_EQ(report.passes[0].changedRounds, 1);
    EXPECT_EQ(report.passes[0].gatesRemoved, 2u);
}
