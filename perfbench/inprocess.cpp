/**
 * @file
 * The in-process workloads: paper_tables, wide96 and deep5. One
 * request parses its source, compiles it with the default pipeline
 * (identity placement, ctr routing, optimization, QMDD verification)
 * and writes QASM, in sequence, on one closed-loop caller.
 */

#include <fstream>
#include <functional>

#include "bench_circuits/mcx_suite.hpp"
#include "bench_circuits/nct_suite.hpp"
#include "bench_circuits/single_target_suite.hpp"
#include "common/errors.hpp"
#include "common/rng.hpp"
#include "device/registry.hpp"
#include "ir/random_circuit.hpp"
#include "pipeline.hpp"

namespace perfbench {

using namespace qsyn;

namespace {

struct Job
{
    Source source;
    size_t device = 0; ///< index into Workload::compilers
};

struct Workload
{
    std::vector<Compiler> compilers;
    /** One pass over the inputs, in the seed's order. */
    std::vector<Job> jobs;
    /** Compiled once in set-up so lazy state is built before timing. */
    std::vector<Job> warmup;
};

using BuildWorkload = std::function<Workload(std::uint64_t seed, Tracer &)>;

void
shuffle(std::vector<Job> &jobs, std::uint64_t seed)
{
    Rng rng(seed);
    for (size_t i = jobs.size(); i > 1; --i)
        std::swap(jobs[i - 1], jobs[rng.below(i)]);
}

Workload
withDevices(std::vector<Device> devices)
{
    Workload w;
    for (Device &d : devices)
        w.compilers.emplace_back(std::move(d));
    return w;
}

/** Tables 3 and 5: every function on every IBM device it fits. */
Workload
buildPaperTables(std::uint64_t seed, Tracer &tracer)
{
    Workload w = withDevices(ibmTableDevices());
    for (const bench::SingleTargetBenchmark &b : bench::singleTargetSuite()) {
        Circuit cascade{0};
        {
            Tracer::Scope span(tracer, "esop.synth");
            cascade = bench::buildSingleTargetCascade(b);
        }
        Source source = makeSource(cascade, true);
        for (size_t d = 0; d < w.compilers.size(); ++d) {
            if (cascade.numQubits() <= w.compilers[d].device().numQubits())
                w.jobs.push_back({source, d});
        }
        if (b.name == "#1") {
            for (size_t d = 0; d < w.compilers.size(); ++d)
                w.warmup.push_back({source, d});
        }
    }
    for (const bench::NctBenchmark &b : bench::nctSuite()) {
        Source source{b.name, b.realSource, true};
        Circuit circuit = parseSource(source);
        for (size_t d = 0; d < w.compilers.size(); ++d) {
            Qubit width = w.compilers[d].device().numQubits();
            // bench_table5's N/A rule: a T5 gate needs ancilla room.
            bool too_small = circuit.numQubits() > width ||
                             (b.largestGate == "T5" && width < 6);
            if (!too_small)
                w.jobs.push_back({source, d});
        }
    }
    if (w.jobs.size() != 143)
        throw Error("paper_tables expects the 143 compilations of Tables "
                    "3 and 5, found " + std::to_string(w.jobs.size()));
    shuffle(w.jobs, seed);
    return w;
}

/** Table 7's T6_b then T7_b on the proposed 96-qubit machine. */
Workload
buildWide96(std::uint64_t, Tracer &)
{
    Workload w = withDevices({makeProposed96()});
    for (const bench::McxBenchmark &b : bench::mcxSuite()) {
        if (b.name != "T6_b" && b.name != "T7_b")
            continue;
        w.jobs.push_back({makeSource(bench::buildMcxBenchmark(b), true), 0});
        if (b.name == "T6_b") {
            // Warm-up: T6_b's first gate alone exercises the same
            // device tables at a fraction of the cost.
            bench::McxBenchmark first = b;
            first.name = "T6_b_gate0";
            first.gates.resize(1);
            w.warmup.push_back(
                {makeSource(bench::buildMcxBenchmark(first), true), 0});
        }
    }
    return w;
}

/** Population seed of deep5's circuits (see README: fixed inputs). */
constexpr std::uint64_t kDeep5Population = 0xd33b5000;
constexpr size_t kDeep5Circuits = 8;

/** 250-gate 5-qubit Clifford+T circuits on ibmqx4. */
Workload
buildDeep5(std::uint64_t seed, Tracer &)
{
    Workload w = withDevices({makeIbmqx4()});
    RandomCircuitOptions opts;
    opts.numQubits = 5;
    opts.numGates = 250;
    opts.gateSet = RandomGateSet::CliffordT;
    for (size_t i = 0; i < kDeep5Circuits; ++i) {
        opts.seed = kDeep5Population + i;
        Circuit c = randomCircuit(opts);
        c.setName("deep5_" + std::to_string(i));
        w.jobs.push_back({makeSource(c, false), 0});
    }
    opts.numGates = 60;
    opts.seed = kDeep5Population - 1;
    Circuit warm = randomCircuit(opts);
    warm.setName("deep5_warmup");
    w.warmup.push_back({makeSource(warm, false), 0});
    shuffle(w.jobs, seed);
    return w;
}

/** One request's outcome. */
struct Outcome
{
    bool ok = false;
    std::string error;
    std::string qasm;
    CompileResult result;
};

Outcome
execute(const Job &job, const Workload &w)
{
    Outcome o;
    try {
        const Compiler &compiler = w.compilers[job.device];
        o.result = compiler.compile(parseSource(job.source));
        o.qasm = compiler.toQasm(o.result);
        o.ok = true;
    } catch (const std::exception &e) {
        o.error = e.what();
    }
    return o;
}

std::string
jobName(const Job &job, const Workload &w)
{
    return job.source.name + " on " +
           w.compilers[job.device].device().name();
}

/** The traced run: compile() untraced, then the traced replay. */
void
runTraced(const RunConfig &config, Workload &w, Tracer &tracer,
          RunResult &run)
{
    LayerStats stats;
    std::uint64_t id = 0;
    Clock::time_point start = Clock::now();
    for (size_t pass = 0;; ++pass) {
        for (const Job &job : w.jobs) {
            ++run.attempted;
            Clock::time_point a = Clock::now();
            Outcome o = execute(job, w);
            stats.untracedMs += secondsBetween(a, Clock::now()) * 1e3;
            if (!o.ok) {
                ++run.failed;
                run.problems.push_back(jobName(job, w) + ": " + o.error);
                continue;
            }
            tracer.setRequest(++id);
            replayRequest(job.source, w.compilers[job.device], o.result,
                          tracer, stats, pass == 0, run.problems);
        }
        if (secondsBetween(start, Clock::now()) >= config.seconds)
            break;
    }
    stats.tracedMs = tracer.totalMsByName()["request"];
    addLayerMetrics(run, stats, tracer, ServiceLayer{});
}

RunResult
runInProcess(const RunConfig &config, const BuildWorkload &build)
{
    RunResult run;
    // Set-up several times (needMoreSetups); the first one starts at
    // process start.
    EndToEnd e2e;
    Workload w;
    Tracer tracer(config.processStart, 0);
    Clock::time_point start = config.processStart;
    for (size_t rep = 0; needMoreSetups(config, rep); ++rep) {
        if (rep > 0) {
            w = Workload{}; // tearing down is not set-up time
            start = Clock::now();
        }
        Tracer setupTracer(config.processStart, 0);
        w = build(config.seed, setupTracer);
        for (const Job &job : w.warmup) {
            Outcome o = execute(job, w);
            if (!o.ok)
                throw Error("warm-up " + jobName(job, w) + ": " + o.error);
        }
        e2e.setupSeconds.push_back(secondsBetween(start, Clock::now()));
        tracer = std::move(setupTracer); // the last set-up's spans
    }
    if (config.trace) {
        runTraced(config, w, tracer, run);
        std::ofstream trace(config.outDir + "/" + config.workload +
                            ".trace.json");
        tracer.writeChromeTrace(trace);
        return run;
    }

    const size_t n = w.jobs.size();
    std::vector<std::vector<double>> latency(n);
    std::vector<Outcome> first(n);
    std::vector<size_t> matching(n, 0);
    Clock::time_point t0 = Clock::now();
    size_t passes = 0;
    for (;;) {
        for (size_t i = 0; i < n; ++i) {
            Clock::time_point a = Clock::now();
            Outcome o = execute(w.jobs[i], w);
            latency[i].push_back(secondsBetween(a, Clock::now()) * 1e3);
            ++run.attempted;
            if (!o.ok) {
                ++run.failed;
                run.problems.push_back(jobName(w.jobs[i], w) + ": " +
                                       o.error);
            }
            if (o.ok && o.result.verified())
                ++e2e.verified;
            if (passes == 0) {
                first[i] = std::move(o);
                matching[i] = first[i].ok ? 1 : 0;
            } else if (o.ok && first[i].ok && o.qasm == first[i].qasm) {
                ++matching[i];
            } else if (o.ok) {
                run.problems.push_back(jobName(w.jobs[i], w) +
                                       ": output differs between passes");
            }
        }
        ++passes;
        if (secondsBetween(t0, Clock::now()) >= config.seconds)
            break;
    }
    const double elapsed = secondsBetween(t0, Clock::now());
    e2e.peakRssMb = peakRssMb();

    // Independent checks of each distinct output, outside timing.
    for (size_t i = 0; i < n; ++i) {
        if (!first[i].ok)
            continue;
        const Device &device = w.compilers[w.jobs[i].device].device();
        std::string why = checkOutput(first[i].result, device);
        if (why.empty())
            e2e.checked += matching[i];
        else
            run.problems.push_back(jobName(w.jobs[i], w) + ": " + why);
        e2e.count(first[i].result.optimizedM);
    }
    e2e.attempted = run.attempted;
    e2e.ok = run.attempted - run.failed;
    e2e.requestsPerSecond = static_cast<double>(run.attempted) / elapsed;
    addEndToEndMetrics(run, e2e);

    run.report.push_back(format(
        "timed phase: %zu passes of %zu requests in %.3f s", passes, n,
        elapsed));
    std::vector<double> all;
    for (const auto &l : latency)
        all.insert(all.end(), l.begin(), l.end());
    for (double q : {0.5, 0.9, 0.99}) {
        Percentile p = percentile(all, q);
        run.report.push_back(format(
            "  request latency p%g: %s (n=%zu, %zu beyond)", q * 100,
            p.reported ? format("%.3f ms", p.value).c_str()
                       : "not reported",
            p.samples, p.beyond));
    }
    return run;
}

} // namespace

RunResult
runPaperTables(const RunConfig &config)
{
    return runInProcess(config, buildPaperTables);
}

RunResult
runWide96(const RunConfig &config)
{
    return runInProcess(config, buildWide96);
}

RunResult
runDeep5(const RunConfig &config)
{
    return runInProcess(config, buildDeep5);
}

} // namespace perfbench
