/**
 * @file
 * Pieces shared by the in-process workloads and service_mix: request
 * sources, the independent output checks, and the traced replay of
 * Compiler::compile's stages with its per-layer accounting.
 */

#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "core/compiler.hpp"

namespace perfbench {

/** A circuit as a request carries it: source text in one format. */
struct Source
{
    std::string name;
    std::string text;
    bool real = false; ///< RevLib .real; OpenQASM 2.0 otherwise
};

/** Parse a request source (frontend layer). */
qsyn::Circuit parseSource(const Source &source);

/**
 * Serialize `circuit` as a Source and check that parsing it gives the
 * circuit back, so a request parses exactly the circuit the paper's
 * tables compile. Throws qsyn::Error when the round trip differs.
 */
Source makeSource(const qsyn::Circuit &circuit, bool real);

/**
 * The independent output checks: device legality of every output and
 * a dense statevector cross-check on targets of at most 10 qubits.
 * Returns an empty string when both pass, else the failure.
 */
std::string checkOutput(const qsyn::CompileResult &result,
                        const qsyn::Device &device);

/** What a run's end-to-end metrics are computed from. */
struct EndToEnd
{
    std::vector<double> setupSeconds;
    double requestsPerSecond = 0;
    size_t attempted = 0, ok = 0, verified = 0, checked = 0;
    double cost = 0, tCount = 0, gates = 0, depth = 0;
    double peakRssMb = 0;

    /** Add one distinct output to the output counts. */
    void count(const qsyn::StageMetrics &m);
};

/** Append every end-to-end metric, in BENCHMARK.json order. */
void addEndToEndMetrics(RunResult &run, const EndToEnd &e);

/** Per-layer accumulators of the traced replay. Layer times come
 *  from the tracer's spans; these are the counts beside them. */
struct LayerStats
{
    size_t requests = 0; ///< traced requests (all passes)
    size_t distinct = 0; ///< distinct compiles counted below

    // Counts over distinct compiles (first pass only).
    size_t decomposeGates = 0, ancillas = 0;
    size_t optRounds = 0;
    struct Pass
    {
        std::string name;
        size_t invocations = 0, changed = 0, gatesRemoved = 0;
    };
    std::vector<Pass> passes;
    size_t swaps = 0, rerouted = 0, reversed = 0, hInserted = 0;
    size_t multiplies = 0, uniqueLookups = 0, uniqueHits = 0;
    size_t computeLookups = 0, computeHits = 0, peakNodes = 0;
    size_t gcRuns = 0, inconclusive = 0;
    double ctabSize = 0, arenaMb = 0;

    // Replay vs CompileResult, summed over traced requests (ms).
    double replayStageMs[5] = {0, 0, 0, 0, 0};
    double resultStageMs[5] = {0, 0, 0, 0, 0};
    double tracedMs = 0, untracedMs = 0;
};

/**
 * Replay one request traced: parse, then compile()'s stages through
 * their public functions in compile()'s order and with the compiler's
 * options, then the QASM write. `reference` is the result of a real
 * compile() of the same source; every replayed stage output is
 * compared with it and a divergence is appended to `problems`.
 * `countDistinct` adds this compile to the per-compile counters.
 */
void replayRequest(const Source &source, const qsyn::Compiler &compiler,
                   const qsyn::CompileResult &reference, Tracer &tracer,
                   LayerStats &stats, bool countDistinct,
                   std::vector<std::string> &problems);

/** Service- and cache-layer figures (zero outside service_mix). */
struct ServiceLayer
{
    double hitRttP50 = 0, missRttP50 = 0, rttP90 = 0, rttP99 = 0;
    double codecMs = 0, compileMsP50 = 0;
    size_t overloaded = 0;
    double cacheHits = 0, cacheMisses = 0, cacheEntries = 0;
    double lookupUsP50 = 0;
    double sharedLiveNodes = 0, sharedCtab = 0, sharedGcRuns = 0;
    double sharedContention = 0;
};

/**
 * Append every per-layer metric, in BENCHMARK.json order, and the
 * human-readable layer and replay-gap tables. Layer times are the
 * tracer's span times per traced request; trace.overhead_frac is the
 * traced replay's time over the untraced compile()'s, minus one.
 */
void addLayerMetrics(RunResult &run, const LayerStats &stats,
                     const Tracer &tracer, const ServiceLayer &service);

} // namespace perfbench
