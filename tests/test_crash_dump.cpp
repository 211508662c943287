/**
 * @file
 * End-to-end crash-dump and exposition tests against the real qsync
 * binary, run as a subprocess: `--crash-dump` + the hidden
 * `--test-crash` fault-injection flag must die by SIGABRT *and* leave
 * a parseable `qsyn-crash-<pid>.json` black box behind, and
 * `--metrics-prom` must produce a well-formed Prometheus page.
 *
 * The tool directory arrives via the QSYN_TOOL_DIR environment
 * variable (set by tests/CMakeLists.txt from the build tree).
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "service/json.hpp"

namespace fs = std::filesystem;
namespace service = qsyn::service;
using service::Json;

namespace {

struct RunResult
{
    int exitCode = -1;
    bool signalled = false;
    int termSignal = 0;
    std::string output; // stdout + stderr combined
};

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
    if (WIFEXITED(status)) {
        res.exitCode = WEXITSTATUS(status);
        // popen runs through the shell, which reports a child killed
        // by signal N as exit code 128+N.
        if (res.exitCode > 128) {
            res.signalled = true;
            res.termSignal = res.exitCode - 128;
        }
    } else if (WIFSIGNALED(status)) {
        res.signalled = true;
        res.termSignal = WTERMSIG(status);
    }
    return res;
}

/** Fresh scratch directory for one test (wiped first). */
fs::path
scratchDir(const std::string &name)
{
    fs::path dir = fs::temp_directory_path() / "qsyn_crash_dump" / name;
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir);
    return dir;
}

std::string
writeCircuit(const fs::path &dir)
{
    fs::path path = dir / "c.qasm";
    std::ofstream out(path);
    out << "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0], q[1];\n"
           "cx q[1], q[2];\n";
    return path.string();
}

std::vector<fs::path>
crashDumps(const fs::path &dir)
{
    std::vector<fs::path> dumps;
    for (const fs::directory_entry &e : fs::directory_iterator(dir)) {
        std::string name = e.path().filename().string();
        if (name.rfind("qsyn-crash-", 0) == 0 &&
            name.size() > 5 &&
            name.compare(name.size() - 5, 5, ".json") == 0)
            dumps.push_back(e.path());
    }
    return dumps;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

TEST(CrashDump, InjectedAbortLeavesParseableBlackBox)
{
    fs::path dir = scratchDir("abort");
    std::string circuit = writeCircuit(dir);
    RunResult res = runTool("qsync", "--crash-dump " + dir.string() +
                                         " --test-crash --no-emit "
                                         "--quiet " +
                                         circuit);
    // The injected abort() must kill the process via SIGABRT (the
    // handler re-raises after dumping), not exit cleanly.
    EXPECT_TRUE(res.signalled) << res.output;
    EXPECT_EQ(res.termSignal, SIGABRT) << res.output;

    std::vector<fs::path> dumps = crashDumps(dir);
    ASSERT_EQ(dumps.size(), 1u) << res.output;
    Json v;
    std::string error;
    ASSERT_TRUE(service::parseJson(slurp(dumps[0]), &v, &error))
        << error;
    EXPECT_DOUBLE_EQ(v.at("qsyn_crash_version").number, 1.0);
    EXPECT_EQ(v.at("signal").str, "SIGABRT");
    EXPECT_GT(v.at("pid").number, 0.0);

    // The flight recorder captured the compile that preceded the
    // crash: span begin/end pairs for the pipeline stages.
    const Json &ring = v.at("flight_recorder");
    ASSERT_FALSE(ring.array.empty());
    bool sawCompile = false;
    for (const Json &e : ring.array) {
        EXPECT_NE(e.find("seq"), nullptr);
        EXPECT_NE(e.find("kind"), nullptr);
        if (e.at("name").str == "compile")
            sawCompile = true;
    }
    EXPECT_TRUE(sawCompile);

    // The main thread registered its crash name.
    bool sawMain = false;
    for (const auto &[tid, entry] : v.at("thread_spans").object)
        if (entry.at("name").str == "qsync-main")
            sawMain = true;
    EXPECT_TRUE(sawMain);
}

TEST(CrashDump, CleanRunLeavesNoDump)
{
    fs::path dir = scratchDir("clean");
    std::string circuit = writeCircuit(dir);
    RunResult res = runTool("qsync", "--crash-dump " + dir.string() +
                                         " --no-emit --quiet " +
                                         circuit);
    EXPECT_EQ(res.exitCode, 0) << res.output;
    EXPECT_TRUE(crashDumps(dir).empty());
}

TEST(CrashDump, PrometheusFileIsWellFormed)
{
    fs::path dir = scratchDir("prom");
    std::string circuit = writeCircuit(dir);
    fs::path prom = dir / "metrics.prom";
    RunResult res = runTool("qsync", "--metrics-prom " + prom.string() +
                                         " --no-emit --quiet " +
                                         circuit);
    ASSERT_EQ(res.exitCode, 0) << res.output;
    std::string page = slurp(prom);
    ASSERT_FALSE(page.empty());

    // Structural validation: every line is a comment or a
    // `name{labels} value` sample, names carry the qsyn_ prefix, and
    // every histogram closes with +Inf / _sum / _count.
    std::istringstream in(page);
    std::string line;
    std::vector<std::string> histograms;
    bool sawCompileLatency = false;
    while (std::getline(in, line)) {
        ASSERT_FALSE(line.empty());
        if (line.rfind("# TYPE ", 0) == 0) {
            std::istringstream ls(line);
            std::string hash, type, name, kind;
            ls >> hash >> type >> name >> kind;
            EXPECT_EQ(name.rfind("qsyn_", 0), 0u) << line;
            EXPECT_TRUE(kind == "counter" || kind == "gauge" ||
                        kind == "histogram")
                << line;
            if (kind == "histogram")
                histograms.push_back(name);
            if (name == "qsyn_compile_latency_us")
                sawCompileLatency = true;
            continue;
        }
        EXPECT_EQ(line.rfind("qsyn_", 0), 0u) << line;
        size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        // The value must parse as a number (or +Inf/NaN).
        std::string value = line.substr(space + 1);
        EXPECT_FALSE(value.empty()) << line;
    }
    EXPECT_TRUE(sawCompileLatency) << page;
    ASSERT_FALSE(histograms.empty());
    for (const std::string &h : histograms) {
        EXPECT_NE(page.find(h + "_bucket{le=\"+Inf\"} "),
                  std::string::npos)
            << h;
        EXPECT_NE(page.find(h + "_sum "), std::string::npos) << h;
        EXPECT_NE(page.find(h + "_count "), std::string::npos) << h;
    }
}

TEST(CrashDump, ReportJsonCarriesResourceAccounting)
{
    fs::path dir = scratchDir("report");
    std::string circuit = writeCircuit(dir);
    fs::path report = dir / "report.json";
    RunResult res = runTool("qsync", "--report " + report.string() +
                                         " --no-emit --quiet " +
                                         circuit);
    ASSERT_EQ(res.exitCode, 0) << res.output;
    Json v;
    std::string error;
    ASSERT_TRUE(service::parseJson(slurp(report), &v, &error))
        << error;
    const Json &resources = v.at("resources");
    EXPECT_TRUE(resources.at("valid").boolean);
    EXPECT_GT(resources.at("wall_seconds").number, 0.0);
    EXPECT_GE(resources.at("user_cpu_seconds").number, 0.0);
    EXPECT_GT(resources.at("peak_rss_kb").number, 0.0);
    EXPECT_GT(resources.at("qmdd_peak_nodes").number, 0.0);
    EXPECT_GT(resources.at("qmdd_arena_bytes").number, 0.0);
}
