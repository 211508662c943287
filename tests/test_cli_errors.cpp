/**
 * @file
 * Error-path tests for the installed tools (qsync, qverify, qsim),
 * run as real subprocesses: every malformed invocation must exit with
 * a nonzero code and a diagnostic on stderr — never a crash, never an
 * uncaught exception, never silence. Also checks that the figures
 * qsync prints from different flags agree with each other.
 *
 * The tool directory arrives via the QSYN_TOOL_DIR environment
 * variable (set by tests/CMakeLists.txt from the build tree).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

struct RunResult
{
    int exitCode = -1;
    std::string output; // stdout + stderr combined
};

/** Run `<tool> <args>` capturing both streams; fails the test hard if
 *  the tool directory is unset or the process cannot be launched. */
RunResult
runTool(const std::string &tool, const std::string &args)
{
    const char *dir = std::getenv("QSYN_TOOL_DIR");
    EXPECT_NE(dir, nullptr)
        << "QSYN_TOOL_DIR not set; run via ctest";
    RunResult res;
    if (!dir)
        return res;
    std::string cmd =
        std::string(dir) + "/" + tool + " " + args + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    if (!pipe)
        return res;
    char buf[512];
    while (fgets(buf, sizeof buf, pipe))
        res.output += buf;
    int status = pclose(pipe);
    if (WIFEXITED(status))
        res.exitCode = WEXITSTATUS(status);
    else
        res.exitCode = 128; // killed by a signal = crash
    return res;
}

/** The invocation must fail in a controlled way: exit code 1 or 2
 *  (diagnosed error), not 0 (silent success) and not >= 126 (signal,
 *  abort, or missing binary). */
void
expectDiagnosedFailure(const RunResult &res, const std::string &needle)
{
    EXPECT_GE(res.exitCode, 1) << res.output;
    EXPECT_LE(res.exitCode, 2) << res.output;
    EXPECT_NE(res.output.find(needle), std::string::npos)
        << "diagnostic missing '" << needle << "' in:\n"
        << res.output;
}

/** Write a scratch file under the test's temp dir; returns its path. */
std::string
scratchFile(const std::string &name, const std::string &content)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() / "qsyn_cli_errors";
    fs::create_directories(dir);
    fs::path path = dir / name;
    std::ofstream out(path);
    out << content;
    return path.string();
}

const char *kBadQasm = "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[5];\n";

/** The number printed after `key` on the line of a qsync stats dump
 *  that starts with `label`, or -1 when either is missing. Parsed as
 *  a double so a wrapped-around unsigned figure still compares. */
double
numberAfter(const std::string &output, const std::string &label,
            const std::string &key)
{
    size_t line = output.find(label);
    if (line == std::string::npos)
        return -1;
    size_t end = output.find('\n', line);
    size_t at = output.find(key, line);
    if (at == std::string::npos || at > end)
        return -1;
    return std::stod(output.substr(at + key.size()));
}

} // namespace

// ---------------------------------------------------------------------
// qsync
// ---------------------------------------------------------------------

TEST(QsyncErrors, UnknownFlag)
{
    expectDiagnosedFailure(runTool("qsync", "--frobnicate"),
                           "unknown option");
}

TEST(QsyncErrors, NoInputFile)
{
    expectDiagnosedFailure(runTool("qsync", ""), "no input file");
}

TEST(QsyncErrors, MissingInputFile)
{
    expectDiagnosedFailure(
        runTool("qsync", "/nonexistent/circuit.qasm"), "error");
}

TEST(QsyncErrors, MalformedQasm)
{
    std::string bad = scratchFile("bad.qasm", kBadQasm);
    expectDiagnosedFailure(runTool("qsync", bad), "error");
}

TEST(QsyncErrors, BadJobsValue)
{
    std::string ok = scratchFile(
        "ok.qasm", "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n");
    expectDiagnosedFailure(runTool("qsync", "--jobs x " + ok),
                           "bad count");
    expectDiagnosedFailure(runTool("qsync", "--jobs -3 " + ok),
                           "bad count");
}

TEST(QsyncErrors, MissingFlagValue)
{
    expectDiagnosedFailure(runTool("qsync", "--device"),
                           "missing value");
}

TEST(QsyncErrors, OutOfRangeAngleIsDiagnosed)
{
    // rz(1e999) used to escape as an uncaught std::out_of_range and
    // kill the process (exit >= 126).
    std::string huge = scratchFile(
        "huge_angle.qasm",
        "OPENQASM 2.0;\nqreg q[1];\nrz(1e999) q[0];\n");
    expectDiagnosedFailure(runTool("qsync", huge), "1e999");
}

TEST(QsyncErrors, OversizedRegisterIsDiagnosed)
{
    std::string wide = scratchFile(
        "wide.qasm", "OPENQASM 2.0;\nqreg q[99999999999999999999];\n");
    expectDiagnosedFailure(runTool("qsync", wide), "out of range");
}

TEST(QsyncErrors, MalformedRealCountsAreDiagnosed)
{
    std::string real = scratchFile(
        "overflow.real",
        ".numvars 99999999999999999999\n.begin\n.end\n");
    expectDiagnosedFailure(runTool("qsync", real), ".numvars");
}

TEST(QsyncErrors, MalformedPlaCountsAreDiagnosed)
{
    std::string pla = scratchFile(
        "overflow.pla",
        ".i 99999999999999999999\n.o 1\n.type esop\n.e\n");
    expectDiagnosedFailure(runTool("qsync", pla),
                           "input count must be in [1, 62]");
}

TEST(QsyncErrors, DeviceFileErrorsCarryLineAndColumn)
{
    // Bad target token "x" on line 2 starts at column 6; the loader
    // used to report column 0 for every device-file diagnostic.
    std::string dev = scratchFile("bad_column.dev",
                                  "device d 2\n0: 1 x\n");
    std::string ok = scratchFile(
        "ok.qasm", "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n");
    expectDiagnosedFailure(
        runTool("qsync", "--device-file " + dev + " " + ok), "2:6");
}

TEST(QsyncErrors, BadCacheFlagValues)
{
    std::string ok = scratchFile(
        "ok.qasm", "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n");
    expectDiagnosedFailure(
        runTool("qsync", "--cache-max-mb zero " + ok), "bad count");
    expectDiagnosedFailure(
        runTool("qsync", "--cache-max-mb 0 " + ok), "--cache-max-mb");
}

TEST(QsyncErrors, UnknownDevice)
{
    std::string ok = scratchFile(
        "ok.qasm", "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n");
    expectDiagnosedFailure(
        runTool("qsync", "--device not_a_machine " + ok), "error");
}

TEST(QsyncFigures, ScheduleAndAnalyzeAgreeOnDepth)
{
    // --schedule and --analyze both describe the compiled circuit's
    // dependency DAG, so their depths must be the same number. A wire
    // can be idle in at most every layer, so the idle figure is at
    // most depth x width.
    for (const char *name : {"toffoli.qasm", "adder.pla",
                             "clifford_t.qc", "mod5_cascade.real"}) {
        std::string input = std::string(QSYN_DATA_DIR) + "/" + name;
        RunResult res =
            runTool("qsync", "--schedule --analyze --no-emit " + input);
        ASSERT_EQ(res.exitCode, 0) << res.output;
        double schedule =
            numberAfter(res.output, "schedule:          ", "depth ");
        double analysis =
            numberAfter(res.output, "analysis:          ", "depth ");
        EXPECT_GT(schedule, 0) << name << "\n" << res.output;
        EXPECT_EQ(schedule, analysis) << name << "\n" << res.output;
        double width =
            numberAfter(res.output, "device:            ", " (");
        double idle = numberAfter(res.output, "schedule:          ",
                                  "idle wire-layers ");
        ASSERT_GT(width, 0) << name << "\n" << res.output;
        ASSERT_GE(idle, 0) << name << "\n" << res.output;
        EXPECT_LE(idle, schedule * width) << name << "\n" << res.output;
    }
}

// ---------------------------------------------------------------------
// qverify
// ---------------------------------------------------------------------

TEST(QverifyErrors, UnknownFlag)
{
    expectDiagnosedFailure(runTool("qverify", "--frobnicate"),
                           "error");
}

TEST(QverifyErrors, OddFileCount)
{
    std::string ok = scratchFile(
        "ok.qasm", "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n");
    expectDiagnosedFailure(runTool("qverify", ok), "error");
}

TEST(QverifyErrors, MissingFile)
{
    expectDiagnosedFailure(
        runTool("qverify", "/nonexistent/a.qasm /nonexistent/b.qasm"),
        "error");
}

TEST(QverifyErrors, MalformedQasm)
{
    std::string bad = scratchFile("bad.qasm", kBadQasm);
    expectDiagnosedFailure(runTool("qverify", bad + " " + bad),
                           "error");
}

TEST(QverifyErrors, BadNumericValues)
{
    std::string ok = scratchFile(
        "ok.qasm", "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n");
    std::string pair = ok + " " + ok;
    expectDiagnosedFailure(
        runTool("qverify", "--jobs many " + pair), "bad count");
    expectDiagnosedFailure(
        runTool("qverify", "--budget 10q " + pair), "bad count");
    expectDiagnosedFailure(
        runTool("qverify", "--ancilla 1,x " + pair), "bad count");
}

// ---------------------------------------------------------------------
// qsim
// ---------------------------------------------------------------------

TEST(QsimErrors, UnknownFlag)
{
    expectDiagnosedFailure(runTool("qsim", "--frobnicate"), "error");
}

TEST(QsimErrors, MissingFile)
{
    expectDiagnosedFailure(runTool("qsim", "/nonexistent/c.qasm"),
                           "error");
}

TEST(QsimErrors, MalformedQasm)
{
    std::string bad = scratchFile("bad.qasm", kBadQasm);
    expectDiagnosedFailure(runTool("qsim", bad), "error");
}

TEST(QsimErrors, BadNumericValues)
{
    std::string ok = scratchFile(
        "ok.qasm", "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n");
    expectDiagnosedFailure(runTool("qsim", "--top lots " + ok),
                           "bad count");
    expectDiagnosedFailure(
        runTool("qsim", "--threshold tiny " + ok), "bad numeric");
}
