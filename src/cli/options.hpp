/**
 * @file
 * Command-line interface of the qsync compiler driver: argument
 * grammar, parsed options, and help text. Kept in the library (rather
 * than the tool's main.cpp) so it is unit-testable.
 */

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "obs/obs.hpp"

namespace qsyn::cli {

/** Fully parsed command line. */
struct CliOptions
{
    /**
     * Input circuit files (.qasm/.qc/.real) or PLAs (.pla). One input
     * compiles inline; several compile as a batch (see --jobs),
     * emitted strictly in input order.
     */
    std::vector<std::string> inputs;
    /** Batch worker threads (1 = sequential, 0 = hardware threads). */
    size_t jobs = 1;
    /** Share one concurrent QMDD package across batch workers'
     *  verifications (--no-share-manager turns it off). Output bytes
     *  are identical either way; sharing dedupes node universes. */
    bool shareManager = true;
    /** Output QASM path; empty = stdout. */
    std::string outputPath;
    /** Built-in device name, or empty when deviceFile is used. */
    std::string deviceName = "ibmqx4";
    /** Custom device description file (overrides deviceName). */
    std::string deviceFile;
    /** Simulator width (used when deviceName == "simulator"). */
    Qubit simulatorQubits = 32;

    CompileOptions compile;
    bool printStats = true;
    bool emitQasm = true;
    bool showHelp = false;
    bool listDevices = false;
    /** Print ASCII drawings of the input and compiled circuits. */
    bool drawCircuits = false;
    /** Print the compiled circuit's depth, parallelism, widest layer
     *  and idle wire-layers, all from the dependency DAG. */
    bool printSchedule = false;
    /** Run the static analyzer over the compiled circuit: DAG metrics
     *  plus lint findings to stderr, an "analysis" object in --report,
     *  and analysis.* obs counters. */
    bool analyze = false;
    /** Write a JSON compile report here (empty = none). */
    std::string reportPath;
    /** Write a Chrome trace-event JSON file here (empty = none);
     *  loadable in Perfetto / chrome://tracing. */
    std::string tracePath;
    /** Write a metrics snapshot JSON file here (empty = none). */
    std::string metricsPath;
    /** Write Prometheus text exposition here at exit (empty = none);
     *  with --stats-interval the file is also rewritten periodically
     *  while a batch runs. */
    std::string metricsPromPath;
    /** Periodic batch stats interval, seconds (0 = off). */
    double statsIntervalSeconds = 0.0;
    /** Arm the flight-recorder crash handler; a crashing run dumps
     *  `qsyn-crash-<pid>.json` into this directory (empty = off). */
    std::string crashDumpDir;
    /** Hidden fault-injection flag (--test-crash): abort() after the
     *  compile so the crash-dump path has a deterministic test. */
    bool testCrash = false;
    /** --log-level override; unset = QSYN_LOG env (default quiet). */
    std::optional<obs::LogLevel> logLevel;
    /** Rebase the emitted circuit's two-qubit basis: "" (keep CNOT)
     *  or "cz" (emit CZ + Hadamards, for CZ-native platforms). */
    std::string rebase;

    /** Persistent compile-cache directory (--cache-dir); empty = the
     *  in-process tier only. */
    std::string cacheDir;
    /** Memoize compiles at all (--no-cache clears it). */
    bool useCache = true;
    /** On-disk cache budget in MiB (--cache-max-mb). */
    size_t cacheMaxMb = 256;

    /** Per-compile wall-time budget in seconds (--deadline; 0 = off).
     *  Cooperative: polled at the per-gate QMDD safe point, so an
     *  expired compile unwinds cleanly with a diagnosed error. */
    double deadlineSeconds = 0.0;
    /** Render --report with ReportOptions::deterministic(): no
     *  timings, no QMDD table counters. Byte-comparable across runs
     *  and against a `qsync --remote` report. */
    bool reportDeterministic = false;
    /** qsynd Unix socket (--remote); non-empty sends every compile to
     *  the daemon instead of compiling in-process. */
    std::string remoteSocket;
};

/**
 * Parse argv-style arguments (excluding argv[0]). Throws UserError on
 * malformed input.
 */
CliOptions parseCliArguments(const std::vector<std::string> &args);

/** @name Strict numeric flag-value parsers.
 * Shared by every qsyn tool so a value like "x" or "-2" for --jobs is
 * a diagnosed UserError everywhere, never an uncaught std::stoul
 * exception. `flag` names the offending option in the message.
 */
/// @{
double parseDoubleValue(const std::string &flag, const std::string &value);
size_t parseCountValue(const std::string &flag, const std::string &value);
/// @}

/** The --help text. */
std::string cliHelpText();

/**
 * Run the compiler per the options; returns the process exit code.
 * Output goes to `out`, diagnostics to `err`.
 */
int runCli(const CliOptions &options, std::ostream &out,
           std::ostream &err);

/**
 * `qsync --remote`: ship each input to a qsynd daemon and emit the
 * returned QASM/report bytes verbatim (they match what the same flags
 * would produce locally). Called by runCli; exposed for tests.
 */
int runRemote(const CliOptions &options, std::ostream &out,
              std::ostream &err);

} // namespace qsyn::cli
