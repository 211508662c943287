/**
 * @file
 * The paper's digit-exact Table 8 figures as a ctest gate
 * (`ctest --preset paper`): the T6_b..T10_b cascades compiled for the
 * proposed 96-qubit machine. The figure tests run with verification
 * off so the gate stays fast; one test verifies every row, as the
 * paper did. Any change to decomposition, routing or the optimizer
 * that moves a reproduced number fails here rather than in a bench
 * diff. The digest tests pin the output bytes of Tables 3, 5 and 8
 * and the depth of every stage, so a change that keeps the counts but
 * emits different QASM fails here too.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench_circuits/mcx_suite.hpp"
#include "bench_circuits/nct_suite.hpp"
#include "bench_circuits/single_target_suite.hpp"
#include "core/qsyn.hpp"

using namespace qsyn;
using qsyn::bench::buildMcxBenchmark;
using qsyn::bench::McxBenchmark;
using qsyn::bench::mcxSuite;

namespace {

/** One table's compiles as the byte-identity gate sees them: their
 *  number, an FNV-1a 64 digest of the concatenated QASM in table
 *  order, and the summed depth of each stage's metrics. */
struct TableDigest
{
    size_t compiles = 0;
    std::uint64_t qasm = 14695981039346656037ull;
    size_t techIndependentDepth = 0;
    size_t unoptimizedDepth = 0;
    size_t optimizedDepth = 0;

    void
    add(const Compiler &compiler, const Circuit &input)
    {
        CompileResult r = compiler.compile(input);
        for (unsigned char byte : compiler.toQasm(r)) {
            qasm ^= byte;
            qasm *= 1099511628211ull;
        }
        ++compiles;
        techIndependentDepth += r.techIndependent.depth;
        unoptimizedDepth += r.unoptimized.depth;
        optimizedDepth += r.optimizedM.depth;
    }
};

/** The tables' compiles: default options, verification off (it
 *  cannot change the output). */
CompileOptions
digestOptions()
{
    CompileOptions options;
    options.verify = VerifyMode::Off;
    return options;
}

/** One digest compiler per IBM table device, in table order. */
std::vector<Compiler>
tableCompilers()
{
    std::vector<Compiler> compilers;
    for (Device &dev : ibmTableDevices())
        compilers.emplace_back(std::move(dev), digestOptions());
    return compilers;
}

void
expectDigest(const TableDigest &got, const TableDigest &want)
{
    EXPECT_EQ(got.compiles, want.compiles);
    EXPECT_EQ(got.qasm, want.qasm);
    EXPECT_EQ(got.techIndependentDepth, want.techIndependentDepth);
    EXPECT_EQ(got.unoptimizedDepth, want.unoptimizedDepth);
    EXPECT_EQ(got.optimizedDepth, want.optimizedDepth);
}

/** Compile every Table 8 row with `options`. */
std::vector<CompileResult>
compileRows(const CompileOptions &options)
{
    Device dev = makeProposed96();
    Compiler compiler(dev, options);
    std::vector<CompileResult> rows;
    for (const McxBenchmark &bench : mcxSuite())
        rows.push_back(compiler.compile(buildMcxBenchmark(bench)));
    return rows;
}

/** Compile every Table 8 row with `options`, verification off. */
std::vector<CompileResult>
compileTable8(CompileOptions options)
{
    options.verify = VerifyMode::Off;
    return compileRows(options);
}

double
summedOptimizedCost(const std::vector<CompileResult> &rows)
{
    double total = 0.0;
    for (const CompileResult &r : rows)
        total += r.optimizedM.cost;
    return total;
}

} // namespace

TEST(PaperTable8, OptimizedRowsAreExact)
{
    struct Row
    {
        size_t tCount;
        size_t gates;
        double cost;
    };
    const Row expected[] = {{297, 7531, 8437.0},
                            {395, 9743, 10928.5},
                            {492, 12574, 14084.0},
                            {594, 15700, 17589.5},
                            {690, 18976, 21241.0}};
    std::vector<CompileResult> rows = compileTable8({});
    ASSERT_EQ(rows.size(), std::size(expected));
    for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].optimizedM.tCount, expected[i].tCount)
            << mcxSuite()[i].name;
        EXPECT_EQ(rows[i].optimizedM.gates, expected[i].gates)
            << mcxSuite()[i].name;
        EXPECT_DOUBLE_EQ(rows[i].optimizedM.cost, expected[i].cost)
            << mcxSuite()[i].name;
    }
    EXPECT_DOUBLE_EQ(summedOptimizedCost(rows), 72280.0);
}

TEST(PaperTable8, IdentityWindowPassStillActs)
{
    // Optimization step 5 only changes Table 8's outputs: without it
    // the summed cost rises.
    CompileOptions options;
    options.optimizer.enableWindowIdentity = false;
    EXPECT_DOUBLE_EQ(summedOptimizedCost(compileTable8(options)),
                     72412.5);
}

TEST(PaperTable8, UnoptimizedTCountsMatchThePaper)
{
    // Without the technology-independent stage the lowering reproduces
    // the paper's T-counts digit for digit.
    CompileOptions options;
    options.optimizeTechIndependent = false;
    const size_t expected[] = {336, 448, 560, 672, 784};
    std::vector<CompileResult> rows = compileTable8(options);
    ASSERT_EQ(rows.size(), std::size(expected));
    for (size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(rows[i].unoptimized.tCount, expected[i])
            << mcxSuite()[i].name;
}

TEST(PaperTable8, EveryRowVerifiesExactly)
{
    // "All of the output designs were verified for accuracy using the
    // QMDD equivalence test": each row's miter must end exactly on P.
    std::vector<CompileResult> rows = compileRows({});
    ASSERT_EQ(rows.size(), mcxSuite().size());
    size_t multiplies = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_TRUE(rows[i].verifyRan) << mcxSuite()[i].name;
        EXPECT_EQ(rows[i].verification, dd::Equivalence::Equivalent)
            << mcxSuite()[i].name << ": "
            << dd::equivalenceName(rows[i].verification);
        multiplies += rows[i].ddStats.multiplies;
    }
    // One miter step per gate did about 26.5M multiplies over the five
    // rows and fused steps do about 3.8M. Holding the sum under a
    // quarter of the former pins the gain with a count, not a timer.
    EXPECT_LT(multiplies, 26540388u / 4);
}

TEST(PaperDigest, Table3QasmAndDepthsAreStable)
{
    // bench_table3's compiles in its order: every single-target
    // function on every IBM device wide enough for it.
    TableDigest got;
    std::vector<Compiler> compilers = tableCompilers();
    for (const auto &bench : bench::singleTargetSuite()) {
        Circuit input = bench::buildSingleTargetCascade(bench);
        for (const Compiler &compiler : compilers) {
            if (input.numQubits() <= compiler.device().numQubits())
                got.add(compiler, input);
        }
    }
    expectDigest(got, {120, 6664563693334637979ull, 6092, 41724, 37137});
}

TEST(PaperDigest, Table5QasmAndDepthsAreStable)
{
    // bench_table5's compiles in its order, with its N/A rule: a
    // 5-qubit device cannot host a T5 cascade's ancillas.
    TableDigest got;
    std::vector<Compiler> compilers = tableCompilers();
    for (const auto &bench : bench::nctSuite()) {
        Circuit input = bench::buildNctBenchmark(bench);
        for (const Compiler &compiler : compilers) {
            Qubit width = compiler.device().numQubits();
            bool too_small = input.numQubits() > width ||
                             (bench.largestGate == "T5" && width < 6);
            if (!too_small)
                got.add(compiler, input);
        }
    }
    expectDigest(got, {23, 8908469226132263794ull, 973, 6205, 5661});
}

TEST(PaperDigest, Table8QasmAndDepthsAreStable)
{
    TableDigest got;
    Compiler compiler(makeProposed96(), digestOptions());
    for (const McxBenchmark &bench : mcxSuite())
        got.add(compiler, buildMcxBenchmark(bench));
    expectDigest(got, {5, 57503275067379516ull, 3174, 44163, 29581});
}
