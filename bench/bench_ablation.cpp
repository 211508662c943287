/**
 * @file
 * Ablation studies for the design choices DESIGN.md calls out (not
 * paper tables; engineering evidence):
 *
 *   A. MCX decomposition strategy (clean v-chain / dirty v-chain /
 *      split / roots) - gate count and Eqn. 2 cost of T6..T10 on the
 *      96-qubit machine.
 *   B. Cost-function weights - how Eqn. 2 vs T-heavy vs volume-only
 *      weights change what the optimizer reports.
 *   C. Router - CTR (paper) vs the sabre lookahead router.
 *   D. Placement - identity (paper) vs greedy interaction placement.
 */

#include <iostream>

#include "bench_circuits/mcx_suite.hpp"
#include "bench_circuits/nct_suite.hpp"
#include "bench_circuits/single_target_suite.hpp"
#include "bench_util.hpp"
#include "common/strings.hpp"
#include "common/table_printer.hpp"

using namespace qsyn;
using namespace qsyn::bench;

namespace {

void
ablationMcxStrategy()
{
    std::cout << "=== Ablation A: MCX decomposition strategy (T8 gate: "
                 "7 controls + target) ===\n\n";
    TablePrinter table({"Strategy", "Toffoli-level gates",
                        "Clifford+T gates", "T-count", "Ancillas"});
    Circuit input(26, "t8");
    std::vector<Qubit> controls;
    for (Qubit i = 1; i <= 7; ++i)
        controls.push_back(i);
    input.addMcx(controls, 25);

    using decompose::McxStrategy;
    for (McxStrategy strategy :
         {McxStrategy::CleanVChain, McxStrategy::DirtyVChain,
          McxStrategy::Split, McxStrategy::Roots}) {
        decompose::DecomposeOptions nct_opts;
        nct_opts.mcxStrategy = strategy;
        nct_opts.lowerToffoli = false;
        nct_opts.maxQubits = 64;
        auto nct = decompose::decomposeToPrimitives(input, nct_opts);

        decompose::DecomposeOptions full_opts = nct_opts;
        full_opts.lowerToffoli = true;
        auto full = decompose::decomposeToPrimitives(input, full_opts);
        CircuitStats stats = computeStats(full.circuit);
        table.addRow({decompose::mcxStrategyName(strategy),
                      std::to_string(nct.circuit.size()),
                      std::to_string(stats.volume),
                      std::to_string(stats.tCount),
                      std::to_string(full.ancillas.size())});
    }
    table.print(std::cout);
    std::cout << "\n";
}

void
ablationCostWeights()
{
    std::cout << "=== Ablation B: cost-function weights (benchmark "
                 "#017f on ibmqx5) ===\n\n";
    TablePrinter table({"Weights (t/c/a)", "Unopt cost", "Opt cost",
                        "% decrease", "Opt gates"});
    const auto &suite = singleTargetSuite();
    const auto &bench = suite[19]; // #017f
    Circuit input = buildSingleTargetCascade(bench);
    Device dev = makeIbmqx5();

    struct Variant
    {
        const char *label;
        opt::CostWeights weights;
    };
    const Variant variants[] = {
        {"0.5/0.25/1 (Eqn. 2)", {0.5, 0.25, 1.0}},
        {"10/0.25/1 (T-heavy)", {10.0, 0.25, 1.0}},
        {"0/0/1 (volume only)", {0.0, 0.0, 1.0}},
        {"0/5/1 (CNOT-heavy)", {0.0, 5.0, 1.0}},
    };
    for (const Variant &v : variants) {
        CompileOptions options;
        options.optimizer.weights = v.weights;
        options.verify = VerifyMode::Full;
        Compiler compiler(dev, options);
        CompileResult res = compiler.compile(input);
        table.addRow({v.label, formatNumber(res.unoptimized.cost, 2),
                      formatNumber(res.optimizedM.cost, 2),
                      percentCell(res.percentCostDecrease()),
                      std::to_string(res.optimizedM.gates)});
    }
    table.print(std::cout);
    std::cout << "\n";
}

void
ablationRoutePolicy()
{
    std::cout << "=== Ablation C: router - CTR (paper) vs sabre "
                 "lookahead ===\n\n";
    TablePrinter table({"Benchmark", "Device", "CTR swaps", "Sabre swaps",
                        "CTR gates", "Sabre gates", "CTR opt cost",
                        "Sabre opt cost"});
    const auto &suite = singleTargetSuite();
    for (const char *name : {"#0356", "#033f", "#000f"}) {
        auto it = std::find_if(
            suite.begin(), suite.end(),
            [&](const auto &b) { return b.name == name; });
        Circuit input = buildSingleTargetCascade(*it);
        for (const char *dev_name : {"ibmqx3", "ibmq_16"}) {
            Device dev = builtinDevice(dev_name);
            CompileOptions ctr_opts;
            Compiler ctr(dev, ctr_opts);
            CompileResult a = ctr.compile(input);

            CompileOptions sabre_opts;
            sabre_opts.routing.router = route::RouterKind::Sabre;
            Compiler sabre(dev, sabre_opts);
            CompileResult b = sabre.compile(input);

            table.addRow({name, dev_name,
                          std::to_string(a.routeStats.swapsInserted),
                          std::to_string(b.routeStats.swapsInserted),
                          std::to_string(a.unoptimized.gates),
                          std::to_string(b.unoptimized.gates),
                          formatNumber(a.optimizedM.cost, 2),
                          formatNumber(b.optimizedM.cost, 2)});
        }
    }
    table.print(std::cout);
    std::cout << "\n";
}

void
ablationPlacement()
{
    std::cout << "=== Ablation D: identity placement (paper) vs greedy "
                 "interaction placement ===\n\n";
    TablePrinter table({"Benchmark", "Device", "Identity opt cost",
                        "Greedy opt cost"});
    const auto &suite = singleTargetSuite();
    for (const char *name : {"#0001", "#0357", "#013f"}) {
        auto it = std::find_if(
            suite.begin(), suite.end(),
            [&](const auto &b) { return b.name == name; });
        Circuit input = buildSingleTargetCascade(*it);
        for (const char *dev_name : {"ibmqx5", "ibmq_16"}) {
            Device dev = builtinDevice(dev_name);
            CompileOptions id_opts;
            Compiler id_compiler(dev, id_opts);
            CompileResult a = id_compiler.compile(input);

            CompileOptions greedy_opts;
            greedy_opts.placement = route::PlacementStrategy::Greedy;
            Compiler greedy_compiler(dev, greedy_opts);
            CompileResult b = greedy_compiler.compile(input);

            table.addRow({name, dev_name,
                          formatNumber(a.optimizedM.cost, 2),
                          formatNumber(b.optimizedM.cost, 2)});
        }
    }
    table.print(std::cout);
    std::cout << "\n(Greedy placement is the paper's 'ideal qubit "
                 "placement' future-work item; every run above is "
                 "QMDD-verified.)\n";
}

void
ablationPhasePolynomial()
{
    std::cout << "=== Ablation E: phase-polynomial T-count reduction "
                 "(extension, off by default) ===\n\n";
    TablePrinter table({"Benchmark", "Device", "Baseline T", "PhasePoly T",
                        "Baseline cost", "PhasePoly cost", "Verified"});
    for (const auto &bench : nctSuite()) {
        Circuit input = buildNctBenchmark(bench);
        for (const char *dev_name : {"ibmqx5", "ibmq_16"}) {
            Device dev = builtinDevice(dev_name);
            if (input.numQubits() > dev.numQubits())
                continue;
            CompileOptions base;
            Compiler base_compiler(dev, base);
            CompileResult a = base_compiler.compile(input);

            CompileOptions poly;
            poly.optimizer.enablePhasePolynomial = true;
            Compiler poly_compiler(dev, poly);
            CompileResult b = poly_compiler.compile(input);

            table.addRow({bench.name, dev_name,
                          std::to_string(a.optimizedM.tCount),
                          std::to_string(b.optimizedM.tCount),
                          formatNumber(a.optimizedM.cost, 2),
                          formatNumber(b.optimizedM.cost, 2),
                          a.verified() && b.verified() ? "both" : "NO"});
        }
    }
    table.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main()
{
    ablationMcxStrategy();
    ablationCostWeights();
    ablationRoutePolicy();
    ablationPlacement();
    ablationPhasePolynomial();
    return 0;
}
