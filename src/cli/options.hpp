/**
 * @file
 * Command-line interface of the qsync compiler driver: argument
 * grammar, parsed options, and help text. Kept in the library (rather
 * than the tool's main.cpp) so it is unit-testable.
 */

#pragma once

#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/compiler.hpp"
#include "obs/obs.hpp"

namespace qsyn::cli {

/** The observability flags qsync, qverify and qsim share. */
struct ObsFlags
{
    /** --trace-json: a Chrome trace-event JSON file, loadable in
     *  Perfetto / chrome://tracing (empty = none). */
    std::string tracePath;
    /** --metrics-json: a metrics snapshot JSON file (empty = none). */
    std::string metricsPath;
    /** --metrics-prom: Prometheus text exposition at exit (empty =
     *  none); qsync's --stats-interval also rewrites it while a batch
     *  runs. */
    std::string metricsPromPath;
    /** --crash-dump: arm the flight-recorder crash handler; a crashing
     *  run dumps `qsyn-crash-<pid>.json` into this directory (empty =
     *  off). */
    std::string crashDumpDir;
    /** --log-level override; unset = QSYN_LOG env (default quiet). */
    std::optional<obs::LogLevel> logLevel;
};

/**
 * Parse `flag` when it is one of the five ObsFlags flags, reading its
 * value from `value()`; returns false, reading nothing, for any other
 * argument. Throws UserError on a bad --log-level value.
 */
bool parseObsFlag(const std::string &flag,
                  const std::function<std::string()> &value,
                  ObsFlags *flags);

/**
 * One tool run's observability. The constructor applies the log
 * level, turns the flight recorder on, arms the crash handler for
 * --crash-dump, installs a sink when an output file was requested and
 * names the calling thread; the destructor uninstalls the sink.
 */
class ObsSession
{
  public:
    ObsSession(ObsFlags flags, std::string_view threadName);
    ~ObsSession();

    ObsSession(const ObsSession &) = delete;
    ObsSession &operator=(const ObsSession &) = delete;

    /** Write the requested trace, metrics and Prometheus files, in that
     *  order, each followed by "wrote <path>" on `err`. Throws
     *  UserError when one cannot be written. */
    void writeFiles(std::ostream &err);

  private:
    ObsFlags flags_;
    obs::Sink sink_;
    bool installed_;
};

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
    /** --trace-json, --metrics-json, --metrics-prom, --crash-dump and
     *  --log-level. */
    ObsFlags obs;
    /** Periodic batch stats interval, seconds (0 = off). */
    double statsIntervalSeconds = 0.0;
    /** Hidden fault-injection flag (--test-crash): abort() after the
     *  compile so the crash-dump path has a deterministic test. */
    bool testCrash = false;
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
     *  Cooperative: polled after every QMDD gate step, so an
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
/** A register width: an integer in [1, kMaxRegisterWidth]. */
Qubit parseWidthValue(const std::string &flag, const std::string &value);
/// @}

/** The value of a --log-level flag (quiet|info|debug|trace). Throws
 *  UserError on anything else. */
obs::LogLevel parseLogLevelValue(const std::string &value);

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
