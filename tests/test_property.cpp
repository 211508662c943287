/**
 * @file
 * Property-based, parameterized sweeps (gtest TEST_P): compilation of
 * random circuits onto every built-in device must stay verified and
 * legal; every MCX strategy must be exact for every control count
 * (check() and checkDirect() agreeing on it and its near misses); the
 * optimizer must preserve unitaries across random seeds; ESOP
 * synthesis must round-trip random truth tables.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "core/qsyn.hpp"
#include "esop/cascade.hpp"
#include "esop/reed_muller.hpp"
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
    dopts.allowAncillaAllocation = false;
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
    for (const NamedPass &pass : passes) {
        Circuit rewritten = lowered;
        pass.run(rewritten);
        dd::Package pkg;
        dd::EquivalenceChecker checker(pkg);
        EXPECT_TRUE(
            dd::isEquivalent(checker.check(lowered, rewritten)))
            << pass.name << " broke seed " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, PassEquivalenceProperty,
                         ::testing::Range(400, 450));
