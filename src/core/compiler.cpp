#include "core/compiler.hpp"

#include <algorithm>

#include "analysis/dag.hpp"
#include "common/deadline.hpp"
#include "common/errors.hpp"
#include "core/compile_cache.hpp"
#include "frontend/qasm_writer.hpp"
#include "obs/obs.hpp"

namespace qsyn {

namespace {

/** Attribution of a shared package's counters to one compile: the
 *  difference of two threadStats() snapshots taken around its
 *  verification. All counters are monotonic; peakNodes is a global
 *  high-water mark (not additive), so the later snapshot's value is
 *  reported as-is. */
dd::PackageStats
diffStats(const dd::PackageStats &after, const dd::PackageStats &before)
{
    dd::PackageStats d;
    d.uniqueLookups = after.uniqueLookups - before.uniqueLookups;
    d.uniqueHits = after.uniqueHits - before.uniqueHits;
    d.uniqueRehashes = after.uniqueRehashes - before.uniqueRehashes;
    d.multiplies = after.multiplies - before.multiplies;
    d.additions = after.additions - before.additions;
    d.computeLookups = after.computeLookups - before.computeLookups;
    d.computeHits = after.computeHits - before.computeHits;
    d.mulEvictions = after.mulEvictions - before.mulEvictions;
    d.addEvictions = after.addEvictions - before.addEvictions;
    d.ctEvictions = after.ctEvictions - before.ctEvictions;
    d.gcRuns = after.gcRuns - before.gcRuns;
    d.peakNodes = after.peakNodes;
    return d;
}

/** The `compile.verify.*` counter a verdict increments, so a metrics
 *  snapshot shows how often each path decided. */
const char *
verdictCounter(dd::Equivalence verdict)
{
    switch (verdict) {
      case dd::Equivalence::Equivalent:
        return "compile.verify.equivalent";
      case dd::Equivalence::EquivalentUpToPhase:
        return "compile.verify.up_to_phase";
      case dd::Equivalence::EquivalentApprox:
        return "compile.verify.approx";
      case dd::Equivalence::NotEquivalent:
        return "compile.verify.not_equivalent";
      case dd::Equivalence::Inconclusive:
        return "compile.verify.inconclusive";
    }
    return "compile.verify.inconclusive";
}

} // namespace

StageMetrics
measure(const Circuit &circuit, const opt::CostModel &model)
{
    CircuitStats stats = computeStats(circuit);
    StageMetrics m;
    m.tCount = stats.tCount;
    m.gates = stats.volume;
    m.cost = model.cost(stats);
    m.depth = analysis::circuitDepth(circuit);
    return m;
}

Compiler::Compiler(Device device, CompileOptions options)
    : device_(std::move(device)), options_(std::move(options))
{
}

CompileResult
Compiler::compile(const Circuit &input) const
{
    obs::Span total("compile", obs::kTimed);
    total.arg("circuit", input.name());
    total.arg("device", device_.name());
    total.arg("qubits", input.numQubits());
    total.arg("gates", input.size());
    obs::ResourceProbe probe;
    CompileResult result;
    result.input = input;
    opt::CostModel model(options_.optimizer.weights);

    if (input.numQubits() > device_.numQubits()) {
        throw MappingError("circuit '" + input.name() + "' needs " +
                           std::to_string(input.numQubits()) +
                           " qubits but " + device_.name() +
                           " has only " +
                           std::to_string(device_.numQubits()));
    }

    // 1. Decompose to the primitive library, growing clean ancillas
    //    only up to the device size.
    {
        obs::Span span("compile.decompose", obs::kTimed);
        decompose::DecomposeOptions dopts;
        dopts.mcxStrategy = options_.mcxStrategy;
        dopts.lowerToffoli = true;
        dopts.maxQubits = device_.numQubits();
        decompose::DecomposeResult lowered =
            decompose::decomposeToPrimitives(input, dopts);
        result.decomposed = lowered.circuit;
        if (options_.optimize && options_.optimizeTechIndependent) {
            // Technology-independent optimization (no coupling-map
            // legality constraints yet).
            obs::Span ti_span("compile.ti_optimize");
            opt::OptimizerOptions ti_opts = options_.optimizer;
            ti_opts.device = nullptr;
            result.decomposed =
                opt::optimizeCircuit(result.decomposed, ti_opts);
        }
        result.techIndependent = measure(result.decomposed, model);
        span.arg("gates_out", result.decomposed.size());
        for (Qubit a : lowered.ancillas)
            result.ancillas.push_back(a); // placed below
        result.decomposeSeconds = span.seconds();
    }

    // 2. Place logical wires on physical qubits. Stage boundaries are
    //    coarse cancellation polls; the fine-grained per-gate poll
    //    lives at the QMDD safe point (verification dominates
    //    runaway compiles) and in the optimizer's round loop.
    deadline::check("placement");
    {
        obs::Span span("compile.place", obs::kTimed);
        result.placement = route::computePlacement(
            result.decomposed, device_, options_.placement);
        result.placeSeconds = span.seconds();
    }

    // 3. Route with CTR.
    deadline::check("routing");
    {
        obs::Span span("compile.route", obs::kTimed);
        Circuit placed = route::applyPlacement(
            result.decomposed, result.placement, device_);
        result.mapped = route::routeCircuit(placed, device_,
                                            &result.routeStats,
                                            options_.routing);
        result.unoptimized = measure(result.mapped, model);
        span.arg("swaps", result.routeStats.swapsInserted);
        span.arg("rerouted", result.routeStats.reroutedCnots);
        result.routeSeconds = span.seconds();
    }

    for (Qubit &a : result.ancillas)
        a = result.placement[a];
    std::sort(result.ancillas.begin(), result.ancillas.end());

    // 4. Optimize under the device's legality constraints.
    deadline::check("optimization");
    {
        obs::Span span("compile.optimize", obs::kTimed);
        if (options_.optimize) {
            opt::OptimizerOptions oopts = options_.optimizer;
            oopts.device = &device_;
            result.optimized = opt::optimizeCircuit(
                result.mapped, oopts, &result.optReport);
        } else {
            result.optimized = result.mapped;
            result.optReport.initialCost = result.unoptimized.cost;
            result.optReport.finalCost = result.unoptimized.cost;
        }
        result.optimizedM = measure(result.optimized, model);
        span.arg("rounds", result.optReport.rounds);
        span.arg("cost_decrease_pct",
                 result.optReport.percentCostDecrease());
        result.optimizeSeconds = span.seconds();
    }

    // 5. Formal verification: the mapped output against the input,
    //    remapped through the placement, ancillas projected onto |0>.
    size_t ddArenaBytes = 0;
    deadline::check("verification");
    {
        obs::Span span("compile.verify", obs::kTimed);
        if (options_.verify != VerifyMode::Off && input.isUnitary()) {
            Circuit reference =
                result.referenceOnDevice(device_.numQubits());
            // Shared-manager mode: verify against the externally owned
            // (concurrent) package; otherwise a private one per compile.
            std::unique_ptr<dd::Package> owned;
            dd::Package *package = verify_package_;
            const bool shared = package != nullptr;
            if (!shared) {
                owned = std::make_unique<dd::Package>();
                package = owned.get();
            }
            dd::EquivalenceChecker checker(*package);
            dd::EquivalenceOptions eopts;
            eopts.upToGlobalPhase = options_.verifyUpToGlobalPhase;
            eopts.ancillaWires = result.ancillas;
            eopts.nodeBudget = options_.verifyNodeBudget;
            dd::PackageStats before;
            if (shared)
                before = package->threadStats();
            result.verification =
                checker.check(reference, result.optimized, eopts);
            result.verifyRan = true;
            result.ddStats =
                shared ? diffStats(package->threadStats(), before)
                       : package->stats();
            result.ddLiveNodes = package->activeNodes();
            ddArenaBytes = package->arenaBytes();
            package->publishMetrics();
            span.arg("verdict",
                     dd::equivalenceName(result.verification));
            span.arg("live_nodes", result.ddLiveNodes);
            if (obs::Sink *s = obs::sink()) {
                s->metrics().addCounter(
                    verdictCounter(result.verification));
            }
            if (result.verification == dd::Equivalence::NotEquivalent) {
                throw VerificationError(
                    "compiled circuit for '" + input.name() +
                    "' is NOT equivalent to its specification");
            }
        }
        result.verifySeconds = span.seconds();
    }
    result.totalSeconds = total.seconds();
    result.resources = probe.sample();
    result.resources.qmddPeakNodes = result.ddStats.peakNodes;
    result.resources.qmddArenaBytes = ddArenaBytes;
    if (obs::Sink *s = obs::sink()) {
        // Latency histograms follow the `*.latency_us` microsecond
        // rule so sub-second stages spread across the power-of-two
        // buckets instead of collapsing into bucket 0.
        obs::MetricsRegistry &m = s->metrics();
        obs::observeResourceUsage(m, "compile", result.resources);
        m.observe("compile.decompose.latency_us",
                  result.decomposeSeconds * 1e6);
        m.observe("compile.place.latency_us", result.placeSeconds * 1e6);
        m.observe("compile.route.latency_us", result.routeSeconds * 1e6);
        m.observe("compile.optimize.latency_us",
                  result.optimizeSeconds * 1e6);
        m.observe("compile.verify.latency_us",
                  result.verifySeconds * 1e6);
    }
    QSYN_OBS_LOG(Info, "compile")
        << "'" << input.name() << "' -> " << device_.name() << ": "
        << result.optimizedM.gates << " gates, cost "
        << result.optimizedM.cost << " ("
        << result.percentCostDecrease() << "% decrease), "
        << result.totalSeconds << " s";
    return result;
}

std::string
Compiler::toQasm(const CompileResult &result) const
{
    frontend::QasmWriterOptions wopts;
    wopts.headerComment = "qsyn: mapped to " + device_.name();
    return frontend::writeQasm(result.optimized, wopts);
}

std::shared_ptr<const CachedCompile>
Compiler::compileCached(const Circuit &input,
                        CompileCacheBase *cache) const
{
    auto compute = [&] {
        CachedCompile artifact;
        artifact.result = compile(input);
        artifact.qasm = toQasm(artifact.result);
        return artifact;
    };
    if (cache == nullptr)
        return std::make_shared<const CachedCompile>(compute());
    return cache->getOrCompute(input, device_, options_, compute);
}

} // namespace qsyn
