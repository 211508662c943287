#include "pipeline.hpp"

#include <algorithm>

#include "check/oracles.hpp"
#include "common/errors.hpp"
#include "decompose/pass.hpp"
#include "frontend/circuit_writers.hpp"
#include "frontend/qasm_parser.hpp"
#include "frontend/qasm_writer.hpp"
#include "frontend/real_parser.hpp"
#include "obs/obs.hpp"
#include "qmdd/equivalence.hpp"
#include "route/placement.hpp"
#include "route/router.hpp"

namespace perfbench {

using namespace qsyn;

Circuit
parseSource(const Source &source)
{
    return source.real ? frontend::parseReal(source.text, source.name)
                       : frontend::parseQasm(source.text, source.name);
}

Source
makeSource(const Circuit &circuit, bool real)
{
    Source source;
    source.name = circuit.name();
    source.real = real;
    source.text =
        real ? frontend::writeReal(circuit) : frontend::writeQasm(circuit);
    if (!(parseSource(source) == circuit))
        throw Error("source of '" + circuit.name() +
                    "' does not parse back to the same circuit");
    return source;
}

std::string
checkOutput(const CompileResult &result, const Device &device)
{
    check::OracleOutcome legal = check::checkLegality(result, device);
    if (!legal.passed)
        return "legality: " + legal.details;
    if (device.numQubits() <= 10) {
        check::OracleOutcome sv = check::checkStatevector(result, device);
        if (!sv.passed)
            return "statevector: " + sv.details;
    }
    return "";
}

void
EndToEnd::count(const StageMetrics &m)
{
    cost += m.cost;
    tCount += static_cast<double>(m.tCount);
    gates += static_cast<double>(m.gates);
    depth += static_cast<double>(m.depth);
}

void
addEndToEndMetrics(RunResult &run, const EndToEnd &e)
{
    const double attempted =
        static_cast<double>(std::max<size_t>(e.attempted, 1));
    run.add("requests_per_s", e.requestsPerSecond, "1/s");
    run.add("ok_frac", static_cast<double>(e.ok) / attempted, "ratio");
    run.add("verified_frac", static_cast<double>(e.verified) / attempted,
            "ratio");
    run.add("checked_frac", static_cast<double>(e.checked) / attempted,
            "ratio");
    run.add("cost_out", e.cost, "cost");
    run.add("t_count_out", e.tCount, "count");
    run.add("gates_out", e.gates, "count");
    run.add("depth_out", e.depth, "count");
    run.add("peak_rss_mb", e.peakRssMb, "MiB");
    run.add("setup_s", median(e.setupSeconds), "s");
    const auto [fastest, slowest] =
        std::minmax_element(e.setupSeconds.begin(), e.setupSeconds.end());
    run.report.push_back(format(
        "set-up: %zu repetitions, median %.3f ms, range %.3f-%.3f ms",
        e.setupSeconds.size(), median(e.setupSeconds) * 1e3,
        *fastest * 1e3, *slowest * 1e3));
}

namespace {

/** compile()'s stages, in the order CompileResult times them. */
const char *const kStageNames[5] = {"decompose", "place", "route",
                                    "optimize", "verify"};

/** Everything one replay produces, compared after its spans close. */
struct Replayed
{
    Circuit decomposed{0}, mapped{0}, optimized{0};
    std::vector<Qubit> placement, ancillas;
    StageMetrics techIndependent, unoptimized, optimizedM;
    route::RouteStats routeStats;
    opt::OptimizeReport tiReport, report;
    size_t loweredGates = 0, loweredAncillas = 0;
    dd::Equivalence verdict = dd::Equivalence::Inconclusive;
    dd::PackageStats dd;
    double ctabSize = 0, arenaMb = 0;
    std::string qasm;
    double stageMs[5] = {0, 0, 0, 0, 0};
};

double
msSince(Clock::time_point &mark)
{
    Clock::time_point now = Clock::now();
    double ms = secondsBetween(mark, now) * 1e3;
    mark = now;
    return ms;
}

/** compile() step by step (core/compiler.cpp), each call in a span. */
void
replayStages(const Source &source, const Compiler &compiler,
             Tracer &tr, Replayed &out)
{
    const Device &device = compiler.device();
    const CompileOptions &options = compiler.options();
    opt::CostModel model(options.optimizer.weights);

    Tracer::Scope request(tr, "request");
    Circuit input{0};
    {
        Tracer::Scope span(tr, "frontend.parse");
        input = parseSource(source);
    }
    Clock::time_point mark = Clock::now();
    {
        decompose::DecomposeOptions dopts;
        dopts.mcxStrategy = options.mcxStrategy;
        dopts.lowerToffoli = true;
        dopts.maxQubits = device.numQubits();
        decompose::DecomposeResult lowered;
        {
            Tracer::Scope span(tr, "decompose");
            lowered = decompose::decomposeToPrimitives(input, dopts);
        }
        out.loweredGates = lowered.circuit.size();
        out.loweredAncillas = lowered.ancillas.size();
        out.decomposed = lowered.circuit;
        if (options.optimize && options.optimizeTechIndependent) {
            Tracer::Scope span(tr, "opt.ti");
            opt::OptimizerOptions ti = options.optimizer;
            ti.device = nullptr;
            out.decomposed =
                opt::optimizeCircuit(out.decomposed, ti, &out.tiReport);
        }
        {
            Tracer::Scope span(tr, "analysis.depth");
            out.techIndependent = measure(out.decomposed, model);
        }
        out.ancillas = lowered.ancillas;
    }
    out.stageMs[0] = msSince(mark);
    {
        Tracer::Scope span(tr, "route.place");
        out.placement = route::computePlacement(out.decomposed, device,
                                                options.placement);
    }
    out.stageMs[1] = msSince(mark);
    {
        {
            Tracer::Scope span(tr, "route");
            Circuit placed = route::applyPlacement(out.decomposed,
                                                   out.placement, device);
            out.mapped = route::routeCircuit(placed, device,
                                             &out.routeStats,
                                             options.routing);
        }
        Tracer::Scope span(tr, "analysis.depth");
        out.unoptimized = measure(out.mapped, model);
    }
    out.stageMs[2] = msSince(mark);
    for (Qubit &a : out.ancillas)
        a = out.placement[a];
    std::sort(out.ancillas.begin(), out.ancillas.end());
    mark = Clock::now();
    {
        {
            Tracer::Scope span(tr, "opt");
            opt::OptimizerOptions oopts = options.optimizer;
            oopts.device = &device;
            out.optimized =
                opt::optimizeCircuit(out.mapped, oopts, &out.report);
        }
        Tracer::Scope span(tr, "analysis.depth");
        out.optimizedM = measure(out.optimized, model);
    }
    out.stageMs[3] = msSince(mark);
    {
        Circuit reference =
            input.remapped(out.placement, device.numQubits());
        Tracer::Scope span(tr, "qmdd");
        // A package the benchmark owns, fresh per compile as in
        // compile()'s private-package mode.
        dd::Package package;
        dd::EquivalenceChecker checker(package);
        dd::EquivalenceOptions eopts;
        eopts.upToGlobalPhase = options.verifyUpToGlobalPhase;
        eopts.ancillaWires = out.ancillas;
        eopts.nodeBudget = options.verifyNodeBudget;
        eopts.useMiter = options.verify == VerifyMode::Miter &&
                         out.ancillas.empty();
        out.verdict = checker.check(reference, out.optimized, eopts);
        out.dd = package.stats();
        out.arenaMb = static_cast<double>(package.arenaBytes()) /
                      (1024.0 * 1024.0);
        // The complex table's size is only published as a gauge.
        obs::Sink sink;
        obs::installSink(&sink);
        package.publishMetrics("perfbench.qmdd");
        obs::installSink(nullptr);
        out.ctabSize = sink.metrics().gauge("perfbench.qmdd.ctab.size");
    }
    out.stageMs[4] = msSince(mark);
    Tracer::Scope span(tr, "frontend.write");
    frontend::QasmWriterOptions wopts;
    wopts.headerComment = "qsyn: mapped to " + device.name();
    out.qasm = frontend::writeQasm(out.optimized, wopts);
}

bool
samePasses(const opt::OptimizeReport &a, const opt::OptimizeReport &b)
{
    if (a.rounds != b.rounds || a.passes.size() != b.passes.size())
        return false;
    for (size_t i = 0; i < a.passes.size(); ++i) {
        if (a.passes[i].invocations != b.passes[i].invocations ||
            a.passes[i].changedRounds != b.passes[i].changedRounds ||
            a.passes[i].gatesRemoved != b.passes[i].gatesRemoved)
            return false;
    }
    return true;
}

bool
sameRouteStats(const route::RouteStats &a, const route::RouteStats &b)
{
    return a.swapsInserted == b.swapsInserted &&
           a.reroutedCnots == b.reroutedCnots &&
           a.reversedCnots == b.reversedCnots &&
           a.hInserted == b.hInserted && a.nativeCnots == b.nativeCnots;
}

bool
sameMetrics(const StageMetrics &a, const StageMetrics &b)
{
    return a.tCount == b.tCount && a.gates == b.gates &&
           a.cost == b.cost && a.depth == b.depth;
}

void
countPasses(LayerStats &stats, const opt::OptimizeReport &report)
{
    stats.optRounds += static_cast<size_t>(report.rounds);
    for (const opt::PassReport &p : report.passes) {
        auto it = std::find_if(
            stats.passes.begin(), stats.passes.end(),
            [&](const LayerStats::Pass &q) { return q.name == p.name; });
        if (it == stats.passes.end()) {
            stats.passes.push_back({p.name, 0, 0, 0});
            it = stats.passes.end() - 1;
        }
        it->invocations += static_cast<size_t>(p.invocations);
        it->changed += static_cast<size_t>(p.changedRounds);
        it->gatesRemoved += p.gatesRemoved;
    }
}

} // namespace

void
replayRequest(const Source &source, const Compiler &compiler,
              const CompileResult &reference, Tracer &tracer,
              LayerStats &stats, bool countDistinct,
              std::vector<std::string> &problems)
{
    Replayed out;
    replayStages(source, compiler, tracer, out);
    ++stats.requests;
    const double resultMs[5] = {
        reference.decomposeSeconds * 1e3, reference.placeSeconds * 1e3,
        reference.routeSeconds * 1e3, reference.optimizeSeconds * 1e3,
        reference.verifySeconds * 1e3};
    for (int i = 0; i < 5; ++i) {
        stats.replayStageMs[i] += out.stageMs[i];
        stats.resultStageMs[i] += resultMs[i];
    }

    const char *diverged = nullptr;
    if (!(out.decomposed == reference.decomposed) ||
        !sameMetrics(out.techIndependent, reference.techIndependent))
        diverged = "decompose";
    else if (out.placement != reference.placement)
        diverged = "place";
    else if (!(out.mapped == reference.mapped) ||
             !sameRouteStats(out.routeStats, reference.routeStats) ||
             !sameMetrics(out.unoptimized, reference.unoptimized))
        diverged = "route";
    else if (!(out.optimized == reference.optimized) ||
             !samePasses(out.report, reference.optReport) ||
             !sameMetrics(out.optimizedM, reference.optimizedM) ||
             out.ancillas != reference.ancillas)
        diverged = "optimize";
    else if (out.verdict != reference.verification)
        diverged = "verify";
    else if (out.qasm != compiler.toQasm(reference))
        diverged = "write";
    if (diverged != nullptr) {
        problems.push_back(source.name + " on " +
                           compiler.device().name() + ": replayed " +
                           diverged + " stage differs from compile()");
    }
    if (!countDistinct)
        return;
    ++stats.distinct;
    stats.decomposeGates += out.loweredGates;
    stats.ancillas += out.loweredAncillas;
    countPasses(stats, out.tiReport);
    countPasses(stats, out.report);
    stats.swaps += out.routeStats.swapsInserted;
    stats.rerouted += out.routeStats.reroutedCnots;
    stats.reversed += out.routeStats.reversedCnots;
    stats.hInserted += out.routeStats.hInserted;
    stats.multiplies += out.dd.multiplies;
    stats.uniqueLookups += out.dd.uniqueLookups;
    stats.uniqueHits += out.dd.uniqueHits;
    stats.computeLookups += out.dd.computeLookups;
    stats.computeHits += out.dd.computeHits;
    stats.peakNodes = std::max(stats.peakNodes, out.dd.peakNodes);
    stats.gcRuns += out.dd.gcRuns;
    stats.ctabSize += out.ctabSize;
    stats.arenaMb = std::max(stats.arenaMb, out.arenaMb);
    if (out.verdict == dd::Equivalence::Inconclusive)
        ++stats.inconclusive;
}

namespace {

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

} // namespace

void
addLayerMetrics(RunResult &run, const LayerStats &stats,
                const Tracer &tracer, const ServiceLayer &service)
{
    std::map<std::string, double> total = tracer.totalMsByName();
    std::map<std::string, double> self = tracer.selfMsByName();
    const double n = static_cast<double>(std::max<size_t>(stats.requests, 1));
    const double d = static_cast<double>(std::max<size_t>(stats.distinct, 1));
    auto perRequest = [&](const char *span) { return total[span] / n; };
    const double overhead = stats.untracedMs > 0
                                ? stats.tracedMs / stats.untracedMs - 1.0
                                : 0.0;

    run.add("frontend.parse_ms", perRequest("frontend.parse"), "ms");
    run.add("frontend.write_ms", perRequest("frontend.write"), "ms");
    run.add("esop.synth_ms", total["esop.synth"], "ms");
    run.add("decompose.busy_ms", perRequest("decompose"), "ms");
    run.add("decompose.gates_out",
            static_cast<double>(stats.decomposeGates), "count");
    run.add("decompose.ancillas", static_cast<double>(stats.ancillas),
            "count");
    run.add("opt.ti_busy_ms", perRequest("opt.ti"), "ms");
    run.add("opt.busy_ms", perRequest("opt"), "ms");
    run.add("opt.rounds", static_cast<double>(stats.optRounds), "count");
    for (const char *pass : {"cancellation", "rotation_merge",
                             "hadamard_rules", "window_identity"}) {
        LayerStats::Pass p;
        for (const LayerStats::Pass &q : stats.passes) {
            if (q.name == pass)
                p = q;
        }
        std::string prefix = std::string("opt.") + pass;
        run.add(prefix + ".invocations",
                static_cast<double>(p.invocations), "count");
        run.add(prefix + ".changed_frac",
                ratio(static_cast<double>(p.changed),
                      static_cast<double>(p.invocations)),
                "ratio");
        run.add(prefix + ".gates_removed",
                static_cast<double>(p.gatesRemoved), "count");
    }
    run.add("route.place_ms", perRequest("route.place"), "ms");
    run.add("route.busy_ms", perRequest("route"), "ms");
    run.add("route.swaps", static_cast<double>(stats.swaps), "count");
    run.add("route.rerouted_cnots", static_cast<double>(stats.rerouted),
            "count");
    run.add("route.reversed_cnots", static_cast<double>(stats.reversed),
            "count");
    run.add("route.h_inserted", static_cast<double>(stats.hInserted),
            "count");
    run.add("analysis.depth_ms", perRequest("analysis.depth"), "ms");
    run.add("qmdd.busy_ms", perRequest("qmdd"), "ms");
    run.add("qmdd.multiplies", static_cast<double>(stats.multiplies) / d,
            "count");
    run.add("qmdd.unique_hit_frac",
            ratio(static_cast<double>(stats.uniqueHits),
                  static_cast<double>(stats.uniqueLookups)),
            "ratio");
    run.add("qmdd.compute_hit_frac",
            ratio(static_cast<double>(stats.computeHits),
                  static_cast<double>(stats.computeLookups)),
            "ratio");
    run.add("qmdd.peak_nodes", static_cast<double>(stats.peakNodes),
            "count");
    run.add("qmdd.gc_runs", static_cast<double>(stats.gcRuns), "count");
    run.add("qmdd.ctab_size", stats.ctabSize / d, "count");
    run.add("qmdd.arena_mb", stats.arenaMb, "MiB");
    run.add("qmdd.inconclusive", static_cast<double>(stats.inconclusive),
            "count");
    run.add("qmdd.shared_live_nodes", service.sharedLiveNodes, "count");
    run.add("qmdd.shared_ctab_size", service.sharedCtab, "count");
    run.add("qmdd.shared_gc_runs", service.sharedGcRuns, "count");
    run.add("qmdd.shared_contention_frac", service.sharedContention,
            "ratio");
    run.add("cache.hits", service.cacheHits, "count");
    run.add("cache.misses", service.cacheMisses, "count");
    run.add("cache.hit_frac",
            ratio(service.cacheHits, service.cacheHits + service.cacheMisses),
            "ratio");
    run.add("cache.memory_entries", service.cacheEntries, "count");
    run.add("cache.lookup_us_p50", service.lookupUsP50, "us");
    run.add("service.hit_rtt_ms_p50", service.hitRttP50, "ms");
    run.add("service.miss_rtt_ms_p50", service.missRttP50, "ms");
    run.add("service.rtt_ms_p90", service.rttP90, "ms");
    run.add("service.rtt_ms_p99", service.rttP99, "ms");
    run.add("service.codec_ms", service.codecMs, "ms");
    run.add("service.compile_ms_p50", service.compileMsP50, "ms");
    run.add("service.overloaded", static_cast<double>(service.overloaded),
            "count");
    run.add("core.self_ms", self["request"] / n, "ms");
    run.add("trace.overhead_frac", overhead, "ratio");

    // Layer table: self time per traced request and its share.
    const double request = total["request"] / n;
    run.report.push_back(format(
        "layer self time per traced request (%zu requests, %zu distinct "
        "compiles):",
        stats.requests, stats.distinct));
    const std::pair<const char *, std::vector<const char *>> layers[] = {
        {"frontend", {"frontend.parse", "frontend.write"}},
        {"decompose", {"decompose"}},
        {"opt", {"opt.ti", "opt"}},
        {"route", {"route.place", "route"}},
        {"analysis", {"analysis.depth"}},
        {"qmdd", {"qmdd"}},
        {"core", {"request"}},
    };
    for (const auto &[layer, spans] : layers) {
        double ms = 0;
        for (const char *span : spans)
            ms += self[span] / n;
        run.report.push_back(format("  %-10s %10.3f ms  %5.1f%%", layer, ms,
                                    100.0 * ratio(ms, request)));
    }
    run.report.push_back(
        "replayed stage vs CompileResult stage time (ms per request):");
    for (int i = 0; i < 5; ++i) {
        double replay = stats.replayStageMs[i] / n;
        double result = stats.resultStageMs[i] / n;
        run.report.push_back(
            format("  %-10s replay %10.3f  compile() %10.3f  gap %+6.1f%%",
                   kStageNames[i], replay, result,
                   100.0 * ratio(replay - result, result)));
    }
    run.report.push_back(format("trace.overhead_frac %.4f", overhead));
}

} // namespace perfbench
