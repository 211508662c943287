/**
 * @file
 * The static-analysis suite (`ctest -L analysis`): dependency-DAG
 * construction and soundness, dataflow facts, lint rules, renderer
 * validity (JSON / SARIF), the committed lint-defect corpus, the
 * topological-rescheduling equivalence property, and the qlint tool
 * as a subprocess.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

#include "analysis/dag.hpp"
#include "analysis/dataflow.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/rules.hpp"
#include "device/loader.hpp"
#include "device/registry.hpp"
#include "frontend/loader.hpp"
#include "ir/random_circuit.hpp"
#include "qmdd/equivalence.hpp"
#include "service/json.hpp"

namespace qsyn::analysis {
namespace {

Circuit
chain3()
{
    Circuit c(3, "chain3");
    c.add(Gate::h(0));
    c.add(Gate::cnot(0, 1));
    c.add(Gate::cnot(1, 2));
    return c;
}

// ---------------------------------------------------------------- DAG

TEST(Dag, EmptyCircuit)
{
    Circuit c(2, "empty");
    DependencyDag dag(c);
    EXPECT_EQ(dag.size(), 0u);
    EXPECT_EQ(dag.depth(), 0u);
    EXPECT_EQ(dag.edgeCount(), 0u);
    EXPECT_TRUE(dag.criticalPath().empty());
    EXPECT_TRUE(dag.topologicalOrder().empty());
}

TEST(Dag, ChainHasLinearDepth)
{
    Circuit c = chain3();
    DependencyDag dag(c);
    EXPECT_EQ(dag.size(), 3u);
    EXPECT_EQ(dag.depth(), 3u);
    EXPECT_TRUE(dag.hasEdge(0, 1));
    EXPECT_TRUE(dag.hasEdge(1, 2));
    EXPECT_FALSE(dag.hasEdge(0, 2));
    EXPECT_EQ(dag.roots().size(), 1u);
    EXPECT_EQ(dag.criticalPath(), (std::vector<size_t>{0, 1, 2}));
}

TEST(Dag, DisjointWiresAreParallel)
{
    Circuit c(2, "par");
    c.add(Gate::h(0));
    c.add(Gate::h(1));
    DependencyDag dag(c);
    EXPECT_EQ(dag.depth(), 1u);
    EXPECT_EQ(dag.edgeCount(), 0u);
    EXPECT_EQ(dag.layer(0).size(), 2u);
}

TEST(Dag, CommutingGatesShareALayer)
{
    // Z and T are both diagonal: they commute on the same wire, so the
    // commutation-aware DAG leaves them unordered.
    Circuit c(1, "diag");
    c.add(Gate::z(0));
    c.add(Gate::t(0));
    DependencyDag dag(c);
    EXPECT_EQ(dag.edgeCount(), 0u);
    EXPECT_EQ(dag.depth(), 1u);

    // With commutation analysis off they chain in program order.
    DagOptions plain;
    plain.commutationAware = false;
    DependencyDag strict(c, plain);
    EXPECT_TRUE(strict.hasEdge(0, 1));
    EXPECT_EQ(strict.depth(), 2u);
}

TEST(Dag, CommutingBlockKeepsTransitiveOrder)
{
    // The soundness trap: Z and T commute, X commutes with neither.
    // A naive "stop at the first non-commuting gate" scan would order
    // T -> X but lose Z -> X, allowing the invalid order T, X, Z.
    // The block construction must emit edges from BOTH Z and T to X.
    Circuit c(1, "ztx");
    c.add(Gate::z(0));
    c.add(Gate::t(0));
    c.add(Gate::x(0));
    DependencyDag dag(c);
    EXPECT_TRUE(dag.hasEdge(0, 2));
    EXPECT_TRUE(dag.hasEdge(1, 2));
    EXPECT_FALSE(dag.hasEdge(0, 1));
    EXPECT_EQ(dag.depth(), 2u);
}

TEST(Dag, BarrierFencesAllWires)
{
    Circuit c(2, "fence");
    c.add(Gate::h(0));
    c.add(Gate::barrier({1}));
    c.add(Gate::h(1));
    DependencyDag dag(c);
    // The barrier fences the whole register, so even the wire-0 gate
    // precedes it.
    EXPECT_TRUE(dag.hasEdge(0, 1));
    EXPECT_TRUE(dag.hasEdge(1, 2));
    EXPECT_EQ(dag.depth(), 3u);
}

TEST(Dag, MeasureNeverCommutes)
{
    Circuit c(1, "meas");
    c.add(Gate::z(0));
    c.add(Gate::measure(0, 0));
    DependencyDag dag(c);
    EXPECT_TRUE(dag.hasEdge(0, 1));
}

TEST(Dag, TopologicalOrderSeedZeroIsProgramOrder)
{
    Circuit c = chain3();
    DependencyDag dag(c);
    EXPECT_EQ(dag.topologicalOrder(0),
              (std::vector<size_t>{0, 1, 2}));
}

TEST(Dag, RescheduleRoundTripsProgramOrder)
{
    Circuit c = chain3();
    DependencyDag dag(c);
    Circuit again = dag.reschedule(dag.topologicalOrder(0));
    ASSERT_EQ(again.size(), c.size());
    for (size_t i = 0; i < c.size(); ++i)
        EXPECT_EQ(again[i], c[i]) << "gate " << i;
}

TEST(Dag, MetricsSummarizeStructure)
{
    Circuit c(2, "m");
    c.add(Gate::h(0));
    c.add(Gate::h(1));
    c.add(Gate::cnot(0, 1));
    DependencyDag dag(c);
    DagMetrics m = computeDagMetrics(dag);
    EXPECT_EQ(m.gates, 3u);
    EXPECT_EQ(m.depth, 2u);
    EXPECT_EQ(m.maxLayerWidth, 2u);
    EXPECT_EQ(m.criticalGates, m.depth);
    EXPECT_DOUBLE_EQ(m.parallelism, 1.5);
    EXPECT_EQ(circuitDepth(c), 2u);
}

TEST(Dag, PlainLayersPartitionTheGatesWithoutSharingAWire)
{
    // With commutation off the layers are the ASAP schedule: every
    // gate lands in exactly one layer and no layer touches a wire
    // twice. The commutation-aware DAG only ever relaxes edges, so
    // its depth can only be lower.
    RandomCircuitOptions ropts;
    ropts.numQubits = 5;
    ropts.numGates = 60;
    ropts.seed = 4;
    Circuit c = randomCircuit(ropts);
    DagOptions plain;
    plain.commutationAware = false;
    DependencyDag dag(c, plain);
    size_t total = 0;
    for (const std::vector<size_t> &layer : dag.layers()) {
        total += layer.size();
        std::vector<bool> used(c.numQubits(), false);
        for (size_t index : layer) {
            for (Qubit q : c[index].qubits()) {
                EXPECT_FALSE(used[q]) << "wire " << q;
                used[q] = true;
            }
        }
    }
    EXPECT_EQ(total, c.size());
    EXPECT_LE(DependencyDag(c).depth(), dag.depth());
}

// ----------------------------------------------------------- dataflow

TEST(Dataflow, DeadAndLiveWires)
{
    Circuit c(3, "dead");
    c.add(Gate::h(0));
    c.add(Gate::cnot(0, 1));
    DependencyDag dag(c);
    DataflowAnalysis df(dag);
    EXPECT_EQ(df.deadWires(), (std::vector<Qubit>{2}));
    EXPECT_TRUE(df.wire(2).dead());
    EXPECT_EQ(df.wire(0).uses, (std::vector<size_t>{0, 1}));
    // Wire 0 is only a control in the CNOT: no target use there.
    EXPECT_EQ(df.wire(0).targetUses, (std::vector<size_t>{0}));
    EXPECT_EQ(df.wire(1).targetUses, (std::vector<size_t>{1}));
    EXPECT_TRUE(df.liveAt(0, 0));
    EXPECT_FALSE(df.liveAt(2, 0));
}

TEST(Dataflow, ReachabilityFollowsDependencies)
{
    Circuit c = chain3();
    DependencyDag dag(c);
    DataflowAnalysis df(dag);
    EXPECT_TRUE(df.reaches(0, 2));
    EXPECT_TRUE(df.reaches(1, 2));
    EXPECT_FALSE(df.reaches(2, 0));
    EXPECT_EQ(df.reachableFrom(0), (std::vector<size_t>{0, 1, 2}));
}

TEST(Dataflow, IdleWireLayers)
{
    // Wire 0 runs in layers 0 and 2 and waits out layer 1 while wire
    // 1 runs its T (which does not commute with the CNOT's target):
    // one idle wire-layer. Wire 1 is busy throughout.
    Circuit c(2, "idle");
    c.add(Gate::h(0));
    c.add(Gate::h(1));
    c.add(Gate::t(1));
    c.add(Gate::cnot(0, 1));
    DependencyDag dag(c);
    ASSERT_EQ(dag.depth(), 3u);
    DataflowAnalysis df(dag);
    EXPECT_EQ(df.wire(0).idleLayers, 1u);
    EXPECT_EQ(df.wire(1).idleLayers, 0u);
    EXPECT_EQ(df.idleWireLayers(), 1u);
}

TEST(Dataflow, CommutingLaterGateInAnEarlierLayer)
{
    // T(0) is diagonal on the CNOT's control, so it commutes with it
    // and lands in layer 0 while the CNOT waits for H(2) in layer 1.
    // Wire 0's uses are in layers 1 and 0: no idle layer, and the
    // wire is live in layer 0 although its first gate is not there.
    Circuit c(3, "commuting");
    c.add(Gate::h(2));
    c.add(Gate::cnot(0, 2));
    c.add(Gate::t(0));
    DependencyDag dag(c);
    ASSERT_EQ(dag.node(1).asapLayer, 1u);
    ASSERT_EQ(dag.node(2).asapLayer, 0u);
    DataflowAnalysis df(dag);
    EXPECT_EQ(df.wire(0).idleLayers, 0u);
    EXPECT_EQ(df.idleWireLayers(), 0u);
    EXPECT_TRUE(df.liveAt(0, 0));
    EXPECT_TRUE(df.liveAt(0, 1));
    EXPECT_FALSE(df.liveAt(0, 2));
}

TEST(Dataflow, BarrierLayerCountsAsIdle)
{
    // The barrier fences wire 0 into three layers but is not a use of
    // it, so the wire sits idle through the barrier's layer.
    Circuit c(2, "fenced");
    c.add(Gate::h(0));
    c.add(Gate::barrier({0, 1}));
    c.add(Gate::h(0));
    DependencyDag dag(c);
    ASSERT_EQ(dag.depth(), 3u);
    EXPECT_EQ(DataflowAnalysis(dag).idleWireLayers(), 1u);
}

TEST(Dataflow, BarrierIsNotAUse)
{
    Circuit c(1, "b");
    c.add(Gate::barrier({0}));
    DependencyDag dag(c);
    DataflowAnalysis df(dag);
    EXPECT_TRUE(df.wire(0).dead());
}

// -------------------------------------------------------------- rules

std::set<std::string>
firedRules(const std::vector<Finding> &findings)
{
    std::set<std::string> ids;
    for (const Finding &f : findings)
        ids.insert(f.ruleId);
    return ids;
}

TEST(Rules, NonNativeGateIsQL001)
{
    Circuit c(3, "toffoli");
    c.add(Gate::ccx(0, 1, 2));
    Device dev = builtinDevice("ibmqx4");
    LintOptions opts;
    opts.device = &dev;
    Diagnostics d = analyzeCircuit(c, "toffoli", opts);
    EXPECT_EQ(firedRules(d.findings),
              (std::set<std::string>{"QL001"}));
    EXPECT_TRUE(d.hasErrors());
}

TEST(Rules, OffCouplingCnotIsQL002)
{
    // ibmqx4 has 2->0 but not 0->2 as an edge... use a custom device
    // to be explicit: only 0 -> 1 exists.
    Device dev = parseDeviceString("device d 2\n0: 1\n");
    Circuit c(2, "rev");
    c.add(Gate::cnot(1, 0)); // against the stored direction
    LintOptions opts;
    opts.device = &dev;
    Diagnostics d = analyzeCircuit(c, "rev", opts);
    EXPECT_EQ(firedRules(d.findings),
              (std::set<std::string>{"QL002"}));
}

TEST(Rules, DeadQubitIsQL003)
{
    Circuit c(3, "dead");
    c.add(Gate::h(0));
    c.add(Gate::cnot(0, 1));
    Diagnostics d = analyzeCircuit(c, "dead");
    EXPECT_EQ(firedRules(d.findings),
              (std::set<std::string>{"QL003"}));
    EXPECT_EQ(d.findings.front().wire, 2u);
    EXPECT_FALSE(d.hasErrors());
}

TEST(Rules, InversePairBeyondPeepholeWindowIsQL004)
{
    // Two H on wire 0 separated by 300 commuting gates on wire 1 —
    // past the optimizer's 256-gate scan horizon, but the analyzer's
    // scan is unbounded.
    Circuit c(2, "far");
    c.add(Gate::h(0));
    for (int i = 0; i < 300; ++i)
        c.add(Gate::t(1));
    c.add(Gate::h(0));
    Diagnostics d = analyzeCircuit(c, "far");
    ASSERT_EQ(firedRules(d.findings),
              (std::set<std::string>{"QL004"}));
    const Finding &f = d.findings.front();
    EXPECT_EQ(f.gateIndex, 0u);
    ASSERT_EQ(f.relatedGates.size(), 1u);
    EXPECT_EQ(f.relatedGates.front(), 301u);
}

TEST(Rules, CascadedPairsAllCancel)
{
    // x x x x: the fixpoint removes both nested pairs.
    Circuit c(1, "xxxx");
    for (int i = 0; i < 4; ++i)
        c.add(Gate::x(0));
    std::vector<bool> removed;
    auto pairs = findCancellablePairs(c, &removed);
    EXPECT_EQ(pairs.size(), 2u);
    EXPECT_EQ(std::count(removed.begin(), removed.end(), true), 4);
}

TEST(Rules, BlockedSharedWireStopsCancellation)
{
    // h, x, h: the X blocks the H pair — nothing cancels.
    Circuit c(1, "hxh");
    c.add(Gate::h(0));
    c.add(Gate::x(0));
    c.add(Gate::h(0));
    EXPECT_TRUE(findCancellablePairs(c, nullptr).empty());
}

TEST(Rules, UnrestoredAncillaIsQL005)
{
    Circuit c(3, "anc");
    c.add(Gate::h(0));
    c.add(Gate::cnot(0, 1));
    c.add(Gate::cnot(1, 2)); // targets the ancilla, never undone
    LintOptions opts;
    opts.ancillas = {2};
    Diagnostics d = analyzeCircuit(c, "anc", opts);
    EXPECT_EQ(firedRules(d.findings),
              (std::set<std::string>{"QL005"}));
    EXPECT_EQ(d.findings.front().wire, 2u);
}

TEST(Rules, ControlOnlyAncillaIsClean)
{
    Circuit c(3, "ctrl");
    c.add(Gate::h(0));
    c.add(Gate::cnot(2, 0)); // ancilla used as control: state kept
    LintOptions opts;
    opts.ancillas = {2};
    Diagnostics d = analyzeCircuit(c, "ctrl", opts);
    // Wire 1 is dead; the ancilla itself must NOT fire.
    EXPECT_EQ(firedRules(d.findings),
              (std::set<std::string>{"QL003"}));
}

TEST(Rules, RestoredAncillaIsClean)
{
    // compute-uncompute with a commuting gate between: the CNOT pair
    // on the ancilla provably cancels, so the surviving circuit never
    // targets it. (A *non*-commuting use between the pair — say a CZ
    // off the ancilla — correctly keeps the warning: this analysis is
    // syntactic, "restored" means provably cancelled.)
    Circuit c(3, "restored");
    c.add(Gate::cnot(0, 2));
    c.add(Gate::t(1));
    c.add(Gate::cnot(0, 2));
    LintOptions opts;
    opts.ancillas = {2};
    Diagnostics d = analyzeCircuit(c, "restored", opts);
    // The cancelling pair itself is (correctly) a QL004 dead-gate
    // finding; the point here is that QL005 stays quiet.
    for (const Finding &f : d.findings)
        EXPECT_NE(f.ruleId, "QL005") << renderText({d});
    EXPECT_EQ(d.countAtLeast(Severity::Error), 0u);
}

TEST(Rules, TooWideCircuitIsQL006Only)
{
    Device dev = parseDeviceString("device d 2\n0: 1\n");
    Circuit c(3, "wide");
    c.add(Gate::ccx(0, 1, 2)); // would be QL001 on a big device
    LintOptions opts;
    opts.device = &dev;
    Diagnostics d = analyzeCircuit(c, "wide", opts);
    // Capacity supersedes the per-gate placement rules.
    EXPECT_EQ(firedRules(d.findings),
              (std::set<std::string>{"QL006"}));
}

TEST(Rules, RuleFiltersApply)
{
    Circuit c(3, "filt");
    c.add(Gate::h(0));
    c.add(Gate::h(0));
    // Both QL003 (wires 1, 2 dead) and QL004 (the H pair) apply.
    LintOptions only;
    only.onlyRules = {"QL004"};
    EXPECT_EQ(firedRules(analyzeCircuit(c, "f", only).findings),
              (std::set<std::string>{"QL004"}));
    LintOptions disabled;
    disabled.disabledRules = {"QL003"};
    EXPECT_EQ(firedRules(analyzeCircuit(c, "f", disabled).findings),
              (std::set<std::string>{"QL004"}));
}

TEST(Rules, CatalogIsWellFormed)
{
    const std::vector<RuleInfo> &catalog = ruleCatalog();
    ASSERT_EQ(catalog.size(), 6u);
    std::set<std::string> ids;
    for (const RuleInfo &r : catalog)
        ids.insert(r.id);
    EXPECT_EQ(ids.size(), catalog.size()) << "duplicate rule ID";
    EXPECT_NE(findRule("QL001"), nullptr);
    EXPECT_EQ(findRule("QL999"), nullptr);
}

// ---------------------------------------------------------- renderers

TEST(Renderers, JsonOutputParses)
{
    Circuit c(3, "r");
    c.add(Gate::h(0));
    Diagnostics d = analyzeCircuit(c, "r.qasm");
    std::string text = renderJson({d});
    service::Json parsed;
    std::string error;
    ASSERT_TRUE(service::parseJson(text, &parsed, &error)) << error;
    const service::Json *artifacts = parsed.find("artifacts");
    ASSERT_NE(artifacts, nullptr);
    ASSERT_EQ(artifacts->array.size(), 1u);
    EXPECT_EQ(artifacts->array[0].stringOr("artifact", ""), "r.qasm");
}

TEST(Renderers, SarifIsValid210)
{
    Circuit c(3, "s");
    c.add(Gate::h(0));
    c.add(Gate::h(0));
    Diagnostics d = analyzeCircuit(c, "s.qasm");
    ASSERT_FALSE(d.findings.empty());
    std::string text = renderSarif({d});
    service::Json parsed;
    std::string error;
    ASSERT_TRUE(service::parseJson(text, &parsed, &error)) << error;
    EXPECT_EQ(parsed.stringOr("version", ""), "2.1.0");
    const service::Json *runs = parsed.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->array.size(), 1u);
    const service::Json *tool = runs->array[0].find("tool");
    ASSERT_NE(tool, nullptr);
    const service::Json *driver = tool->find("driver");
    ASSERT_NE(driver, nullptr);
    EXPECT_EQ(driver->stringOr("name", ""), "qlint");
    const service::Json *rules = driver->find("rules");
    ASSERT_NE(rules, nullptr);
    EXPECT_EQ(rules->array.size(), ruleCatalog().size());
    const service::Json *results = runs->array[0].find("results");
    ASSERT_NE(results, nullptr);
    ASSERT_FALSE(results->array.empty());
    const service::Json &first = results->array[0];
    EXPECT_EQ(first.stringOr("ruleId", ""), "QL003");
    EXPECT_GE(first.numberOr("ruleIndex", -1.0), 0.0);
    const service::Json *locations = first.find("locations");
    ASSERT_NE(locations, nullptr);
    ASSERT_FALSE(locations->array.empty());
}

TEST(Renderers, EmptyReportIsClean)
{
    EXPECT_NE(renderText({}).find("0 error(s)"), std::string::npos);
    service::Json parsed;
    std::string error;
    EXPECT_TRUE(service::parseJson(renderJson({}), &parsed, &error))
        << error;
    EXPECT_TRUE(service::parseJson(renderSarif({}), &parsed, &error))
        << error;
}

// ----------------------------------------------- rescheduling property

/** Any topological order of the (commutation-aware) DAG must yield a
 *  circuit equivalent to the original — the soundness property of the
 *  whole construction, checked against the QMDD oracle on 50 seeded
 *  random circuits. */
TEST(Property, TopologicalReschedulingPreservesEquivalence)
{
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        RandomCircuitOptions ropts;
        ropts.numQubits = 4;
        ropts.numGates = 40;
        ropts.maxControls = 2;
        ropts.seed = seed;
        Circuit original = randomCircuit(ropts);

        DependencyDag dag(original);
        Circuit shuffled =
            dag.reschedule(dag.topologicalOrder(seed * 7919 + 1));
        ASSERT_EQ(shuffled.size(), original.size()) << "seed " << seed;

        dd::Package pkg;
        dd::EquivalenceChecker checker(pkg);
        dd::Equivalence verdict = checker.check(original, shuffled);
        EXPECT_TRUE(dd::isEquivalent(verdict))
            << "seed " << seed << ": rescheduling changed the unitary ("
            << dd::equivalenceName(verdict) << ")";
    }
}

// ------------------------------------------------------- lint corpus

#ifdef QSYN_LINT_CORPUS_DIR

struct CorpusExpectation
{
    std::set<std::string> rules;
    std::vector<Qubit> ancillas;
};

CorpusExpectation
parseExpectFile(const std::filesystem::path &path)
{
    CorpusExpectation e;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string word;
        if (!(ls >> word) || word[0] == '#')
            continue;
        if (word == "ancilla") {
            unsigned q = 0;
            ls >> q;
            e.ancillas.push_back(static_cast<Qubit>(q));
        } else {
            e.rules.insert(word);
        }
    }
    return e;
}

/** Every committed defect circuit must be flagged with exactly the
 *  expected rule IDs (and clean entries must stay clean). */
TEST(LintCorpus, EveryEntryMatchesExpectations)
{
    namespace fs = std::filesystem;
    fs::path root(QSYN_LINT_CORPUS_DIR);
    ASSERT_TRUE(fs::exists(root)) << root;
    size_t entries = 0;
    std::set<std::string> covered;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(root)) {
        if (!entry.is_directory())
            continue;
        ++entries;
        fs::path dir = entry.path();
        std::string name = dir.filename().string();

        fs::path circuit_file;
        for (const char *candidate :
             {"circuit.qasm", "circuit.qc", "circuit.real"}) {
            if (fs::exists(dir / candidate)) {
                circuit_file = dir / candidate;
                break;
            }
        }
        ASSERT_FALSE(circuit_file.empty())
            << name << ": no circuit file";
        Circuit circuit =
            frontend::loadCircuitFile(circuit_file.string());

        CorpusExpectation expect =
            parseExpectFile(dir / "expect.txt");
        std::optional<Device> device;
        if (fs::exists(dir / "device.txt"))
            device = loadDeviceFile((dir / "device.txt").string());

        LintOptions opts;
        if (device)
            opts.device = &*device;
        opts.ancillas = expect.ancillas;
        Diagnostics d = analyzeCircuit(circuit, name, opts);
        EXPECT_EQ(firedRules(d.findings), expect.rules)
            << name << ":\n"
            << renderText({d});
        covered.insert(expect.rules.begin(), expect.rules.end());
    }
    EXPECT_GE(entries, 7u) << "corpus shrank";
    // The corpus must keep every rule in the catalog covered.
    for (const RuleInfo &rule : ruleCatalog())
        EXPECT_TRUE(covered.count(rule.id))
            << "no corpus entry exercises " << rule.id;
}

#endif // QSYN_LINT_CORPUS_DIR

// ------------------------------------------------- qlint subprocess

struct RunResult
{
    int exitCode = -1;
    std::string output;
};

RunResult
runQlint(const std::string &args)
{
    RunResult res;
    const char *dir = std::getenv("QSYN_TOOL_DIR");
    EXPECT_NE(dir, nullptr) << "QSYN_TOOL_DIR not set; run via ctest";
    if (!dir)
        return res;
    std::string cmd = std::string(dir) + "/qlint " + args + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    if (!pipe)
        return res;
    char buf[512];
    while (fgets(buf, sizeof buf, pipe))
        res.output += buf;
    int status = pclose(pipe);
    res.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
    return res;
}

std::string
scratchQasm(const std::string &name, const std::string &content)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() / "qsyn_lint_tool";
    fs::create_directories(dir);
    fs::path path = dir / name;
    std::ofstream out(path);
    out << content;
    return path.string();
}

TEST(QlintTool, CleanCircuitExitsZero)
{
    std::string path = scratchQasm("clean.qasm",
                                   "OPENQASM 2.0;\n"
                                   "include \"qelib1.inc\";\n"
                                   "qreg q[2];\nh q[0];\ncx q[0],q[1];\n");
    RunResult res = runQlint(path);
    EXPECT_EQ(res.exitCode, 0) << res.output;
}

TEST(QlintTool, WarningExitsZeroUnlessWerror)
{
    std::string path = scratchQasm("warn.qasm",
                                   "OPENQASM 2.0;\n"
                                   "include \"qelib1.inc\";\n"
                                   "qreg q[2];\nh q[0];\n");
    EXPECT_EQ(runQlint(path).exitCode, 0);
    RunResult strict = runQlint("--Werror " + path);
    EXPECT_EQ(strict.exitCode, 1) << strict.output;
    EXPECT_NE(strict.output.find("QL003"), std::string::npos)
        << strict.output;
}

TEST(QlintTool, DeviceErrorsExitOne)
{
    std::string path = scratchQasm("ccx.qasm",
                                   "OPENQASM 2.0;\n"
                                   "include \"qelib1.inc\";\n"
                                   "qreg q[3];\nccx q[0],q[1],q[2];\n");
    RunResult res = runQlint("--device ibmqx4 " + path);
    EXPECT_EQ(res.exitCode, 1) << res.output;
    EXPECT_NE(res.output.find("QL001"), std::string::npos)
        << res.output;
}

TEST(QlintTool, SarifOutputParses)
{
    std::string path = scratchQasm("sarif.qasm",
                                   "OPENQASM 2.0;\n"
                                   "include \"qelib1.inc\";\n"
                                   "qreg q[2];\nh q[0];\n");
    RunResult res = runQlint("--format sarif " + path);
    service::Json parsed;
    std::string error;
    ASSERT_TRUE(service::parseJson(res.output, &parsed, &error))
        << error << "\n"
        << res.output;
    EXPECT_EQ(parsed.stringOr("version", ""), "2.1.0");
}

TEST(QlintTool, UsageErrorsExitTwo)
{
    EXPECT_EQ(runQlint("").exitCode, 2);
    EXPECT_EQ(runQlint("--format bogus x.qasm").exitCode, 2);
    EXPECT_EQ(runQlint("--rule QL999 x.qasm").exitCode, 2);
    EXPECT_EQ(runQlint("/nonexistent/x.qasm").exitCode, 2);
}

} // namespace
} // namespace qsyn::analysis
