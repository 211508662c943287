/**
 * @file
 * Integration tests for the end-to-end compiler (Fig. 2 pipeline):
 * decompose -> place -> route -> optimize -> verify, on real devices.
 */

#include <gtest/gtest.h>

#include "bench_circuits/nct_suite.hpp"
#include "bench_circuits/single_target_suite.hpp"
#include "core/qsyn.hpp"

using namespace qsyn;

namespace {

/** All output gates must be natively executable. */
void
expectNative(const Circuit &circuit, const Device &device)
{
    for (const Gate &g : circuit)
        EXPECT_TRUE(device.supportsGate(g)) << g.toString();
}

} // namespace

TEST(Compiler, BellPairOnIbmqx4)
{
    Device dev = makeIbmqx4();
    Compiler compiler(dev);
    Circuit bell(2, "bell");
    bell.addH(0);
    bell.addCnot(0, 1);

    CompileResult res = compiler.compile(bell);
    expectNative(res.optimized, dev);
    EXPECT_TRUE(res.verified());
    // ibmqx4 has no 0 -> 1 edge; the CNOT must have been reversed or
    // rerouted, so the mapped circuit grows.
    EXPECT_GT(res.unoptimized.gates, 2u);
}

TEST(Compiler, ToffoliOnEverySmallDevice)
{
    Circuit toffoli(3, "ccx");
    toffoli.addCcx(0, 1, 2);
    for (const Device &dev : ibmTableDevices()) {
        Compiler compiler(dev);
        CompileResult res = compiler.compile(toffoli);
        expectNative(res.optimized, dev);
        EXPECT_TRUE(res.verified()) << dev.name();
        EXPECT_EQ(res.techIndependent.tCount, 7u);
        // Optimization never hurts.
        EXPECT_LE(res.optimizedM.cost, res.unoptimized.cost);
    }
}

TEST(Compiler, SimulatorMappingIsUnconstrained)
{
    // On the simulator the decomposed circuit routes unchanged, i.e.
    // the technology-independent and mapped forms coincide (Section 5:
    // tech-independent benchmarks do not expand on the simulator).
    Device sim = Device::simulator(8);
    Compiler compiler(sim);
    Circuit c(4, "mix");
    c.addH(0);
    c.addCcx(0, 1, 2);
    c.addCnot(2, 3);
    CompileResult res = compiler.compile(c);
    EXPECT_EQ(res.unoptimized.gates, res.techIndependent.gates);
    EXPECT_TRUE(res.verified());
}

TEST(Compiler, GeneralizedToffoliAllocatesAncillas)
{
    Device dev = makeIbmqx5();
    Compiler compiler(dev);
    Circuit mcx(5, "t5");
    mcx.addMcx({0, 1, 2, 3}, 4);
    CompileResult res = compiler.compile(mcx);
    EXPECT_FALSE(res.ancillas.empty());
    expectNative(res.optimized, dev);
    EXPECT_TRUE(res.verified());
}

TEST(Compiler, TooWideCircuitThrows)
{
    Device dev = makeIbmqx2();
    Compiler compiler(dev);
    Circuit wide(6, "wide");
    wide.addH(5);
    EXPECT_THROW(compiler.compile(wide), MappingError);
}

TEST(Compiler, QasmOutputReparsesToSameUnitary)
{
    Device dev = makeIbmqx4();
    Compiler compiler(dev);
    Circuit c(3, "roundtrip");
    c.addH(0);
    c.addCcx(0, 1, 2);
    c.addT(1);
    CompileResult res = compiler.compile(c);

    std::string qasm = compiler.toQasm(res);
    Circuit reparsed = frontend::parseQasm(qasm);
    EXPECT_EQ(reparsed.numQubits(), dev.numQubits());

    dd::Package pkg;
    dd::EquivalenceChecker checker(pkg);
    EXPECT_EQ(checker.check(res.optimized, reparsed),
              dd::Equivalence::Equivalent);
}

TEST(Compiler, GreedyPlacementCompilesAndVerifies)
{
    Device dev = makeIbmqx3();
    CompileOptions opts;
    opts.placement = route::PlacementStrategy::Greedy;
    Compiler compiler(dev, opts);
    Circuit c(4, "chain");
    c.addCnot(0, 1);
    c.addCnot(1, 2);
    c.addCnot(2, 3);
    CompileResult res = compiler.compile(c);
    expectNative(res.optimized, dev);
    EXPECT_TRUE(res.verified());
}

TEST(Compiler, VerificationCatchesInjectedFault)
{
    // A deliberately broken "optimizer" result must be rejected: we
    // simulate it by compiling a circuit and then checking a corrupted
    // copy by hand.
    Device dev = makeIbmqx4();
    Compiler compiler(dev);
    Circuit c(2, "victim");
    c.addH(0);
    c.addCnot(0, 1);
    CompileResult res = compiler.compile(c);

    Circuit corrupted = res.optimized;
    corrupted.addX(0); // fault injection

    Circuit reference = res.input.remapped(res.placement,
                                           dev.numQubits());
    dd::Package pkg;
    dd::EquivalenceChecker checker(pkg);
    dd::EquivalenceOptions eopts;
    eopts.ancillaWires = res.ancillas;
    EXPECT_EQ(checker.check(reference, corrupted, eopts),
              dd::Equivalence::NotEquivalent);
}

TEST(Compiler, VerifyOffSkipsChecking)
{
    Device dev = makeIbmqx2();
    CompileOptions opts;
    opts.verify = VerifyMode::Off;
    Compiler compiler(dev, opts);
    Circuit c(2, "noverify");
    c.addCnot(0, 1);
    CompileResult res = compiler.compile(c);
    EXPECT_FALSE(res.verifyRan);
}

TEST(Compiler, MeasurementsPassThroughAndSkipVerification)
{
    Device dev = makeIbmqx4();
    Compiler compiler(dev);
    Circuit c(2, "measured");
    c.addH(0);
    c.addCnot(0, 1);
    c.add(Gate::measure(0, 0));
    c.add(Gate::measure(1, 1));
    CompileResult res = compiler.compile(c);
    EXPECT_FALSE(res.verifyRan); // non-unitary input
    size_t measures = 0;
    for (const Gate &g : res.optimized) {
        if (g.kind() == GateKind::Measure)
            ++measures;
    }
    EXPECT_EQ(measures, 2u);
}

TEST(Compiler, SingleTargetBenchmarkEndToEnd)
{
    // One representative Table 3 run: #17 on ibmqx4.
    const auto &suite = bench::singleTargetSuite();
    auto it = std::find_if(suite.begin(), suite.end(), [](const auto &b) {
        return b.name == "#17";
    });
    ASSERT_NE(it, suite.end());
    Circuit input = bench::buildSingleTargetCascade(*it);

    Device dev = makeIbmqx4();
    Compiler compiler(dev);
    CompileResult res = compiler.compile(input);
    expectNative(res.optimized, dev);
    EXPECT_TRUE(res.verified());
    // Mapping to a constrained device expands the circuit.
    EXPECT_GE(res.unoptimized.gates, res.techIndependent.gates);
}

TEST(Compiler, NctBenchmarkEndToEnd)
{
    const auto &suite = bench::nctSuite();
    Circuit input = bench::buildNctBenchmark(suite[0]); // 3_17_14
    for (const Device &dev : ibmTableDevices()) {
        Compiler compiler(dev);
        CompileResult res = compiler.compile(input);
        expectNative(res.optimized, dev);
        EXPECT_TRUE(res.verified()) << dev.name();
    }
}
