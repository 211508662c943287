#include "cli/options.hpp"

#include <ostream>
#include <sstream>

#include <limits>
#include <memory>

#include <cstdlib>

#include "analysis/rules.hpp"
#include "cache/cache.hpp"
#include "common/deadline.hpp"
#include "common/errors.hpp"
#include "obs/expo.hpp"
#include "obs/flight.hpp"
#include "common/numeric.hpp"
#include "device/loader.hpp"
#include "device/registry.hpp"
#include "decompose/rebase.hpp"
#include "frontend/circuit_drawer.hpp"
#include "frontend/qasm_writer.hpp"
#include "core/batch.hpp"
#include "core/report.hpp"

#include <fstream>

namespace qsyn::cli {

namespace {

decompose::McxStrategy
strategyFromName(const std::string &name)
{
    if (name == "auto")
        return decompose::McxStrategy::Auto;
    if (name == "clean")
        return decompose::McxStrategy::CleanVChain;
    if (name == "dirty")
        return decompose::McxStrategy::DirtyVChain;
    if (name == "split")
        return decompose::McxStrategy::Split;
    if (name == "roots")
        return decompose::McxStrategy::Roots;
    throw UserError("unknown MCX strategy '" + name +
                    "' (auto|clean|dirty|split|roots)");
}

} // namespace

double
parseDoubleValue(const std::string &flag, const std::string &value)
{
    double v = 0.0;
    if (!parseFiniteDouble(value, &v))
        throw UserError("bad numeric value '" + value + "' for " + flag);
    return v;
}

size_t
parseCountValue(const std::string &flag, const std::string &value)
{
    unsigned long long v = 0;
    if (!parseUnsigned(value, &v) ||
        v > std::numeric_limits<size_t>::max())
        throw UserError("bad count '" + value + "' for " + flag);
    return static_cast<size_t>(v);
}

Qubit
parseWidthValue(const std::string &flag, const std::string &value)
{
    unsigned long long v = 0;
    if (!parseUnsigned(value, &v) ||
        !isRegisterWidth(static_cast<double>(v)))
        throw UserError("bad qubit count '" + value + "' for " + flag +
                        " (an integer in 1.." +
                        std::to_string(kMaxRegisterWidth) + ")");
    return static_cast<Qubit>(v);
}

obs::LogLevel
parseLogLevelValue(const std::string &value)
{
    obs::LogLevel level;
    if (!obs::parseLogLevel(value, &level))
        throw UserError("unknown log level '" + value +
                        "' (quiet|info|debug|trace)");
    return level;
}

bool
parseObsFlag(const std::string &flag,
             const std::function<std::string()> &value, ObsFlags *flags)
{
    if (flag == "--trace-json")
        flags->tracePath = value();
    else if (flag == "--metrics-json")
        flags->metricsPath = value();
    else if (flag == "--metrics-prom")
        flags->metricsPromPath = value();
    else if (flag == "--crash-dump")
        flags->crashDumpDir = value();
    else if (flag == "--log-level")
        flags->logLevel = parseLogLevelValue(value());
    else
        return false;
    return true;
}

ObsSession::ObsSession(ObsFlags flags, std::string_view threadName)
    : flags_(std::move(flags)),
      installed_(!flags_.tracePath.empty() || !flags_.metricsPath.empty() ||
                 !flags_.metricsPromPath.empty())
{
    if (flags_.logLevel)
        obs::setLogLevel(*flags_.logLevel);
    // The flight recorder is always on for tool runs (one relaxed
    // store per span event); --crash-dump additionally arms the signal
    // handler that turns the ring into qsyn-crash-<pid>.json.
    obs::flight::setRecording(true);
    if (!flags_.crashDumpDir.empty()) {
        obs::flight::CrashConfig crash_config;
        crash_config.dir = flags_.crashDumpDir;
        obs::flight::installCrashHandler(crash_config);
    }
    if (installed_)
        obs::installSink(&sink_);
    obs::nameCurrentThread(threadName);
}

ObsSession::~ObsSession()
{
    if (installed_)
        obs::installSink(nullptr);
}

void
ObsSession::writeFiles(std::ostream &err)
{
    if (!flags_.tracePath.empty()) {
        std::ofstream trace(flags_.tracePath);
        if (!trace)
            throw UserError("cannot write trace '" + flags_.tracePath +
                            "'");
        trace << sink_.traceJson();
        err << "wrote " << flags_.tracePath << "\n";
    }
    if (!flags_.metricsPath.empty()) {
        std::ofstream metrics(flags_.metricsPath);
        if (!metrics)
            throw UserError("cannot write metrics '" +
                            flags_.metricsPath + "'");
        metrics << sink_.metricsJson();
        err << "wrote " << flags_.metricsPath << "\n";
    }
    if (!flags_.metricsPromPath.empty()) {
        std::string prom_error;
        if (!obs::writePrometheusFile(sink_.metrics(),
                                      flags_.metricsPromPath, &prom_error))
            throw UserError("cannot write metrics: " + prom_error);
        err << "wrote " << flags_.metricsPromPath << "\n";
    }
}

CliOptions
parseCliArguments(const std::vector<std::string> &args)
{
    CliOptions opts;
    size_t i = 0;
    auto next_value = [&](const std::string &flag) -> std::string {
        if (i + 1 >= args.size())
            throw UserError("missing value for " + flag);
        return args[++i];
    };

    for (; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (parseObsFlag(arg, [&] { return next_value(arg); }, &opts.obs))
            continue;
        if (arg == "-h" || arg == "--help") {
            opts.showHelp = true;
        } else if (arg == "--list-devices") {
            opts.listDevices = true;
        } else if (arg == "-d" || arg == "--device") {
            opts.deviceName = next_value(arg);
        } else if (arg == "--device-file") {
            opts.deviceFile = next_value(arg);
        } else if (arg == "--simulator-qubits") {
            opts.simulatorQubits = parseWidthValue(arg, next_value(arg));
        } else if (arg == "-o" || arg == "--output") {
            opts.outputPath = next_value(arg);
        } else if (arg == "-j" || arg == "--jobs") {
            opts.jobs = parseCountValue(arg, next_value(arg));
        } else if (arg == "--no-optimize") {
            opts.compile.optimize = false;
        } else if (arg == "--no-ti-optimize") {
            opts.compile.optimizeTechIndependent = false;
        } else if (arg == "--no-verify") {
            opts.compile.verify = VerifyMode::Off;
        } else if (arg == "--placement") {
            std::string value = next_value(arg);
            if (value == "identity")
                opts.compile.placement =
                    route::PlacementStrategy::Identity;
            else if (value == "greedy")
                opts.compile.placement = route::PlacementStrategy::Greedy;
            else
                throw UserError("unknown placement '" + value +
                                "' (identity|greedy)");
        } else if (arg == "--router") {
            std::string value = next_value(arg);
            if (!route::parseRouterName(value,
                                        &opts.compile.routing.router))
                throw UserError("unknown router '" + value +
                                "' (ctr|sabre)");
        } else if (arg == "--mcx") {
            opts.compile.mcxStrategy =
                strategyFromName(next_value(arg));
        } else if (arg == "--fidelity-aware") {
            opts.compile.routing.fidelityAware = true;
        } else if (arg == "--test-omit-swap-back") {
            // Hidden fault-injection flag (absent from --help): breaks
            // CTR swap-back so the qfuzz oracle stack has a known bug
            // to catch; see route::RouteOptions::testOmitSwapBack.
            opts.compile.routing.testOmitSwapBack = true;
        } else if (arg == "--phase-poly") {
            opts.compile.optimizer.enablePhasePolynomial = true;
        } else if (arg == "--weight-t") {
            opts.compile.optimizer.weights.tWeight =
                parseDoubleValue(arg, next_value(arg));
        } else if (arg == "--weight-cnot") {
            opts.compile.optimizer.weights.cnotWeight =
                parseDoubleValue(arg, next_value(arg));
        } else if (arg == "--weight-gate") {
            opts.compile.optimizer.weights.gateWeight =
                parseDoubleValue(arg, next_value(arg));
        } else if (arg == "--draw") {
            opts.drawCircuits = true;
        } else if (arg == "--schedule") {
            opts.printSchedule = true;
        } else if (arg == "--analyze") {
            opts.analyze = true;
        } else if (arg == "--report") {
            opts.reportPath = next_value(arg);
        } else if (arg == "--stats-interval") {
            opts.statsIntervalSeconds =
                parseDoubleValue(arg, next_value(arg));
            if (opts.statsIntervalSeconds < 0.0)
                throw UserError("--stats-interval must be >= 0");
        } else if (arg == "--test-crash") {
            // Hidden fault-injection flag (absent from --help): abort()
            // after the compile so the crash-dump subprocess test has a
            // deterministic crash; see --test-omit-swap-back for the
            // pattern.
            opts.testCrash = true;
        } else if (arg == "--rebase") {
            std::string value = next_value(arg);
            if (value != "cz" && value != "cnot")
                throw UserError("unknown rebase target '" + value +
                                "' (cz|cnot)");
            opts.rebase = value;
        } else if (arg == "--cache-dir") {
            opts.cacheDir = next_value(arg);
        } else if (arg == "--no-cache") {
            opts.useCache = false;
        } else if (arg == "--cache-max-mb") {
            opts.cacheMaxMb = parseCountValue(arg, next_value(arg));
            if (opts.cacheMaxMb == 0)
                throw UserError("--cache-max-mb must be >= 1");
        } else if (arg == "--deadline") {
            opts.deadlineSeconds =
                parseDoubleValue(arg, next_value(arg));
            if (opts.deadlineSeconds < 0.0)
                throw UserError("--deadline must be >= 0");
        } else if (arg == "--report-deterministic") {
            opts.reportDeterministic = true;
        } else if (arg == "--remote") {
            opts.remoteSocket = next_value(arg);
        } else if (arg == "--quiet") {
            opts.printStats = false;
        } else if (arg == "--no-emit") {
            opts.emitQasm = false;
        } else if (!arg.empty() && arg[0] == '-') {
            throw UserError("unknown option '" + arg + "'");
        } else {
            opts.inputs.push_back(arg);
        }
    }

    if (!opts.showHelp && !opts.listDevices) {
        if (opts.inputs.empty())
            throw UserError("no input file (try --help)");
        if (opts.inputs.size() > 1) {
            // Batch output is an ordered stdout/stderr stream; the
            // single-file side channels have no per-input story yet.
            if (!opts.outputPath.empty())
                throw UserError(
                    "-o/--output needs a single input; batch QASM "
                    "goes to stdout in input order");
            if (!opts.reportPath.empty())
                throw UserError("--report needs a single input");
            if (opts.drawCircuits)
                throw UserError("--draw needs a single input");
            if (opts.printSchedule)
                throw UserError("--schedule needs a single input");
            if (opts.analyze)
                throw UserError("--analyze needs a single input");
        }
        if (!opts.remoteSocket.empty()) {
            // Remote mode ships sources to the daemon and relays its
            // bytes; anything that needs local pipeline internals, or
            // a compile option the request cannot carry, cannot be
            // honored and is rejected, not ignored.
            auto remoteReject = [](bool bad, const char *flag) {
                if (bad)
                    throw UserError(
                        std::string(flag) +
                        " is local-only and cannot combine with "
                        "--remote");
            };
            remoteReject(!opts.deviceFile.empty(), "--device-file");
            remoteReject(opts.drawCircuits, "--draw");
            remoteReject(opts.printSchedule, "--schedule");
            remoteReject(opts.analyze, "--analyze");
            remoteReject(!opts.obs.tracePath.empty(), "--trace-json");
            remoteReject(!opts.obs.metricsPath.empty(), "--metrics-json");
            remoteReject(!opts.obs.metricsPromPath.empty(),
                         "--metrics-prom");
            remoteReject(!opts.rebase.empty(), "--rebase");
            remoteReject(!opts.cacheDir.empty(), "--cache-dir");
            remoteReject(opts.testCrash, "--test-crash");
            const CompileOptions defaults;
            const CompileOptions &c = opts.compile;
            const opt::CostWeights &w = c.optimizer.weights;
            const opt::CostWeights &dw = defaults.optimizer.weights;
            remoteReject(c.mcxStrategy != defaults.mcxStrategy, "--mcx");
            remoteReject(c.optimizer.enablePhasePolynomial !=
                             defaults.optimizer.enablePhasePolynomial,
                         "--phase-poly");
            remoteReject(w.tWeight != dw.tWeight, "--weight-t");
            remoteReject(w.cnotWeight != dw.cnotWeight, "--weight-cnot");
            remoteReject(w.gateWeight != dw.gateWeight, "--weight-gate");
            remoteReject(c.routing.fidelityAware !=
                             defaults.routing.fidelityAware,
                         "--fidelity-aware");
            remoteReject(c.optimizeTechIndependent !=
                             defaults.optimizeTechIndependent,
                         "--no-ti-optimize");
            remoteReject(c.routing.testOmitSwapBack !=
                             defaults.routing.testOmitSwapBack,
                         "--test-omit-swap-back");
        }
    }
    return opts;
}

std::string
cliHelpText()
{
    return
        "qsync - technology-dependent quantum logic synthesis\n"
        "\n"
        "usage: qsync [options] <circuit.{qasm,qc,real,pla}>...\n"
        "\n"
        "Several inputs compile as a batch: QASM is concatenated to\n"
        "stdout in input order (byte-identical for any --jobs value)\n"
        "and per-file statistics go to stderr.\n"
        "\n"
        "options:\n"
        "  -d, --device <name>      built-in target (default ibmqx4);\n"
        "                           'simulator' = unconstrained\n"
        "      --device-file <f>    load a custom coupling-map file\n"
        "      --simulator-qubits N simulator register width\n"
        "  -o, --output <file>     write QASM here (default stdout)\n"
        "  -j, --jobs <n>           compile a multi-input batch on n\n"
        "                           worker threads (0 = one per core)\n"
        "      --placement <p>      identity | greedy\n"
        "      --router <r>         ctr (paper reference) | sabre\n"
        "                           (DAG-lookahead, fewer SWAPs)\n"
        "      --mcx <s>            auto|clean|dirty|split|roots\n"
        "      --fidelity-aware     route around high-error couplings\n"
        "      --phase-poly         phase-polynomial T-count reduction\n"
        "      --weight-t <w>       Eqn. 2 T-gate weight (default 0.5)\n"
        "      --weight-cnot <w>    Eqn. 2 CNOT weight (default 0.25)\n"
        "      --weight-gate <w>    Eqn. 2 volume weight (default 1)\n"
        "      --no-optimize        skip local optimization\n"
        "      --no-ti-optimize     skip the technology-independent\n"
        "                           optimization round\n"
        "      --no-verify          skip QMDD verification (the check\n"
        "                           is a projected alternating miter)\n"
        "      --draw               ASCII-draw input and output\n"
        "      --schedule           print depth/parallelism/idle-wire\n"
        "                           figures of the dependency DAG\n"
        "      --analyze            lint the compiled circuit (dependency\n"
        "                           DAG metrics + QLxxx findings; also\n"
        "                           embedded in --report)\n"
        "      --report <file>      write a JSON compile report\n"
        "      --trace-json <file>  write a Chrome trace-event file\n"
        "                           (open in Perfetto / chrome://tracing)\n"
        "      --metrics-json <file> write a metrics snapshot (counters,\n"
        "                           gauges, QMDD table hit rates)\n"
        "      --metrics-prom <file> write Prometheus text exposition\n"
        "                           (qsyn_* series; scrape or node_\n"
        "                           exporter textfile collector)\n"
        "      --stats-interval <s> while a batch runs, log progress\n"
        "                           and refresh --metrics-prom every\n"
        "                           s seconds\n"
        "      --crash-dump <dir>   arm the flight-recorder crash\n"
        "                           handler; a crash leaves\n"
        "                           qsyn-crash-<pid>.json in <dir>\n"
        "      --log-level <l>      quiet | info | debug | trace\n"
        "                           (default: $QSYN_LOG or quiet)\n"
        "      --rebase <basis>     cz | cnot two-qubit output basis\n"
        "      --cache-dir <dir>    persistent compile cache: identical\n"
        "                           (circuit, device, options) compiles\n"
        "                           replay from disk\n"
        "      --no-cache           disable compile memoization (also\n"
        "                           the in-process batch tier)\n"
        "      --cache-max-mb <n>   on-disk cache budget before LRU\n"
        "                           eviction (default 256)\n"
        "      --deadline <s>       per-compile wall-time budget in\n"
        "                           seconds; an expired compile stops\n"
        "                           cleanly with a diagnosed error\n"
        "      --report-deterministic\n"
        "                           omit timings and QMDD counters from\n"
        "                           --report so the bytes are stable\n"
        "                           across runs (and match --remote)\n"
        "      --remote <socket>    send compiles to a qsynd daemon on\n"
        "                           this Unix socket; QASM and --report\n"
        "                           bytes come back verbatim\n"
        "      --quiet              suppress the statistics report\n"
        "      --no-emit            suppress QASM output\n"
        "      --list-devices       print the device library and exit\n"
        "  -h, --help               this text\n";
}

int
runCli(const CliOptions &options, std::ostream &out, std::ostream &err)
{
    if (options.showHelp) {
        out << cliHelpText();
        return 0;
    }
    if (options.listDevices) {
        for (const Device &dev : allBuiltinDevices())
            out << dev.summary() << "\n";
        out << "simulator (any size; no coupling restrictions)\n";
        return 0;
    }
    ObsSession session(options.obs, "qsync-main");

    if (!options.remoteSocket.empty())
        return runRemote(options, out, err);

    try {
        Device device = [&]() -> Device {
            if (!options.deviceFile.empty())
                return loadDeviceFile(options.deviceFile);
            if (options.deviceName == "simulator")
                return Device::simulator(options.simulatorQubits);
            return builtinDevice(options.deviceName);
        }();

        // The compile cache: always holds the in-process tier for
        // batch dedup; --cache-dir adds the persistent store.
        std::unique_ptr<cache::CompileCache> compile_cache;
        if (options.useCache) {
            cache::CacheConfig ccfg;
            ccfg.dir = options.cacheDir;
            ccfg.maxDiskBytes =
                static_cast<std::uint64_t>(options.cacheMaxMb) << 20;
            compile_cache =
                std::make_unique<cache::CompileCache>(ccfg);
        }
        auto printCacheStats = [&]() {
            if (compile_cache == nullptr || !options.printStats)
                return;
            cache::CacheStats cs = compile_cache->stats();
            if (cs.hits + cs.misses == 0)
                return;
            err << "cache:             " << cs.hits << " hit(s), "
                << cs.misses << " miss(es) (" << cs.diskHits
                << " from disk, " << cs.singleFlightShared
                << " shared in flight)";
            if (!options.cacheDir.empty()) {
                err << ", " << cs.diskEntries << " entr"
                    << (cs.diskEntries == 1 ? "y" : "ies") << " / "
                    << cs.diskBytes << " bytes on disk, "
                    << cs.diskEvictions << " evicted";
            }
            err << "\n";
        };

        if (options.inputs.size() > 1) {
            // Batch mode: one Compiler per input on a worker pool,
            // results reported and emitted strictly in input order.
            BatchCompiler batch(device, options.compile);
            batch.setJobDeadline(options.deadlineSeconds);
            batch.setCache(compile_cache.get());
            batch.setStatsInterval(options.statsIntervalSeconds,
                                   options.obs.metricsPromPath);
            std::vector<BatchItem> items =
                batch.compileFiles(options.inputs, options.jobs);
            const BatchSummary &sum = batch.summary();
            if (options.printStats) {
                err << "device:            " << device.summary() << "\n";
                for (const BatchItem &item : items) {
                    if (item.ok) {
                        err << item.inputPath << ": T "
                            << item.result.optimizedM.tCount << ", gates "
                            << item.result.optimizedM.gates << ", cost "
                            << item.result.optimizedM.cost << " ("
                            << item.result.percentCostDecrease()
                            << "% decrease), " << item.seconds << " s\n";
                    } else {
                        err << item.inputPath << ": error: " << item.error
                            << "\n";
                    }
                }
                err << "batch:             " << sum.succeeded << "/"
                    << sum.circuits << " ok on " << sum.jobs
                    << " worker(s), " << sum.wallSeconds << " s wall ("
                    << sum.sumSeconds << " s summed)\n";
            }
            printCacheStats();
            if (options.emitQasm) {
                for (const BatchItem &item : items) {
                    if (!item.ok)
                        continue;
                    Circuit emitted = item.result.optimized;
                    if (options.rebase == "cz")
                        emitted = decompose::rebaseToCz(emitted);
                    else if (options.rebase == "cnot")
                        emitted = decompose::rebaseToCnot(emitted);
                    frontend::QasmWriterOptions wopts;
                    wopts.headerComment = "qsyn: " + item.inputPath +
                                          " mapped to " + device.name();
                    out << frontend::writeQasm(emitted, wopts);
                }
            }
            batch.publishMetrics();
            if (compile_cache != nullptr)
                compile_cache->publishMetrics();
            session.writeFiles(err);
            if (sum.failed == 0)
                return 0;
            for (const BatchItem &item : items)
                if (item.internalError)
                    return 2;
            return 1;
        }

        Circuit input = loadInputFile(options.inputs.front());

        // A report's per-pass cost deltas must not depend on whether
        // an obs sink happens to be installed (a sink flips the
        // optimizer into detailed pass stats), so any --report, like
        // the debug pass table, asks for them; the deterministic pass
        // table then matches what a qsynd daemon renders byte for byte.
        CompileOptions copts = options.compile;
        if (obs::logEnabled(obs::LogLevel::Debug) ||
            !options.reportPath.empty())
            copts.optimizer.collectPassStats = true;
        Compiler compiler(device, copts);
        deadline::Scope compile_deadline(options.deadlineSeconds);
        // Single-input compiles only consult the cache when it can
        // persist across runs; a process-local tier would never hit.
        std::shared_ptr<const CachedCompile> artifact =
            compiler.compileCached(input,
                                   options.cacheDir.empty()
                                       ? nullptr
                                       : compile_cache.get());
        const CompileResult &result = artifact->result;

        if (options.testCrash) {
            // Fault injection for the crash-dump subprocess test: the
            // ring now holds the compile's span events, so the dump
            // has real content to assert on.
            std::abort();
        }

        if (obs::logEnabled(obs::LogLevel::Debug) &&
            !result.optReport.passes.empty()) {
            err << "optimizer passes (" << result.optReport.rounds
                << " rounds):\n";
            for (const opt::PassReport &p : result.optReport.passes) {
                err << "  " << p.name << ": " << p.invocations
                    << " invocations, " << p.changedRounds
                    << " effective, " << p.gatesRemoved
                    << " gates removed, cost delta " << p.costDelta
                    << "\n";
            }
        }

        if (options.printStats) {
            err << "device:            " << device.summary() << "\n";
            err << "tech-independent:  T " << result.techIndependent.tCount
                << ", gates " << result.techIndependent.gates
                << ", cost " << result.techIndependent.cost << "\n";
            err << "mapped unopt:      T " << result.unoptimized.tCount
                << ", gates " << result.unoptimized.gates << ", cost "
                << result.unoptimized.cost << "\n";
            err << "mapped optimized:  T " << result.optimizedM.tCount
                << ", gates " << result.optimizedM.gates << ", cost "
                << result.optimizedM.cost << " ("
                << result.percentCostDecrease() << "% decrease)\n";
            err << "routing:           "
                << route::routerName(options.compile.routing.router)
                << ": " << result.routeStats.nativeCnots << " native, "
                << result.routeStats.reversedCnots << " reversed, "
                << result.routeStats.reroutedCnots
                << " rerouted CNOTs, " << result.routeStats.swapsInserted
                << " swaps\n";
            if (result.verifyRan) {
                err << "verification:      "
                    << dd::equivalenceName(result.verification) << "\n";
            }
            err << "time:              " << result.totalSeconds << " s\n";
        }
        printCacheStats();
        if (options.drawCircuits) {
            frontend::DrawOptions dopts;
            dopts.maxColumns = 40;
            err << "\n--- input ---\n"
                << frontend::drawCircuit(input, dopts);
            err << "\n--- compiled ---\n"
                << frontend::drawCircuit(result.optimized, dopts)
                << "\n";
        }
        if (options.printSchedule) {
            analysis::DependencyDag dag(result.optimized);
            analysis::DagMetrics dm = analysis::computeDagMetrics(dag);
            err << "schedule:          depth " << dm.depth
                << ", avg parallelism " << dm.parallelism
                << ", widest layer " << dm.maxLayerWidth
                << ", idle wire-layers "
                << analysis::DataflowAnalysis(dag).idleWireLayers()
                << "\n";
        }
        std::optional<analysis::Diagnostics> diagnostics;
        if (options.analyze) {
            analysis::LintOptions lopts;
            lopts.device = &device;
            lopts.ancillas = result.ancillas;
            diagnostics = analysis::analyzeCircuit(
                result.optimized, options.inputs.front(), lopts);
            const analysis::DagMetrics &dm = diagnostics->metrics;
            err << "analysis:          depth " << dm.depth
                << ", critical gates " << dm.criticalGates
                << ", dag edges " << dm.edges << ", parallelism "
                << dm.parallelism << "\n";
            for (const analysis::Finding &f : diagnostics->findings)
                err << findingToString(*diagnostics, f) << "\n";
            err << "analysis:          "
                << diagnostics->countAtLeast(analysis::Severity::Error)
                << " error(s), "
                << (diagnostics->countAtLeast(analysis::Severity::Warning) -
                    diagnostics->countAtLeast(analysis::Severity::Error))
                << " warning(s)\n";
            if (obs::Sink *s = obs::sink()) {
                obs::MetricsRegistry &m = s->metrics();
                m.addCounter("analysis.runs", 1.0);
                m.addCounter(
                    "analysis.findings",
                    static_cast<double>(diagnostics->findings.size()));
                m.addCounter("analysis.errors",
                             static_cast<double>(diagnostics->countAtLeast(
                                 analysis::Severity::Error)));
                m.addCounter("analysis.dag_edges",
                             static_cast<double>(dm.edges));
                m.addCounter("analysis.depth",
                             static_cast<double>(dm.depth));
            }
        }
        if (!options.reportPath.empty()) {
            std::ofstream report(options.reportPath);
            if (!report)
                throw UserError("cannot write report '" +
                                options.reportPath + "'");
            ReportOptions ropts = options.reportDeterministic
                                      ? ReportOptions::deterministic()
                                      : ReportOptions{};
            if (diagnostics)
                ropts.analysis = &*diagnostics;
            report << compileReportJson(result, device, ropts);
            err << "wrote " << options.reportPath << "\n";
        }
        Circuit emitted = result.optimized;
        if (options.rebase == "cz")
            emitted = decompose::rebaseToCz(emitted);
        else if (options.rebase == "cnot")
            emitted = decompose::rebaseToCnot(emitted);
        if (options.emitQasm) {
            frontend::QasmWriterOptions wopts;
            wopts.headerComment = "qsyn: mapped to " + device.name();
            if (options.outputPath.empty()) {
                out << frontend::writeQasm(emitted, wopts);
            } else {
                frontend::writeQasmFile(emitted, options.outputPath,
                                        wopts);
                err << "wrote " << options.outputPath << "\n";
            }
        }
        if (compile_cache != nullptr)
            compile_cache->publishMetrics();
        session.writeFiles(err);
        return 0;
    } catch (const UserError &e) {
        err << "error: " << e.what() << "\n";
        return 1;
    } catch (const Error &e) {
        err << "internal failure: " << e.what() << "\n";
        return 2;
    }
}

} // namespace qsyn::cli
