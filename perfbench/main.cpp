/**
 * @file
 * The qsyn benchmark harness. One invocation runs one workload:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--qsynd <path>] [--out-dir <dir>] [--git <rev>]
 *             [--counts-record <file>]
 *
 * --qsynd defaults to the qsynd next to this binary, --out-dir to
 * .bench_build/out. --counts-record names the file in which the first
 * untraced run of a build records its output counts; later runs of
 * that build fail their check when their counts differ.
 *
 * It prints run metadata, a human-readable report and any output-check
 * failures, then as its last line one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end ones, with --trace 1 the per-layer ones
 * (and the spans are written as Chrome-trace JSON to the out dir).
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.hpp"
#include "common/numeric.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

using namespace perfbench;

namespace {

/**
 * Machine probe, recorded as metadata: ns per step of a dependent
 * pointer chase over 128 MiB (larger than this host's L3) and of a pure
 * ALU chain. A drift between two sets of runs that shows here too
 * comes from the machine (memory contention), not from the code.
 */
std::pair<double, double>
machineProbe()
{
    const size_t n = size_t{1} << 25; // 32 Mi x 4 B = 128 MiB
    std::vector<std::uint32_t> next(n);
    // x -> (a x + c) mod 2^25 is one full cycle (Hull-Dobell), so the
    // chase visits every slot in a scattered order.
    for (size_t i = 0; i < n; ++i)
        next[i] = static_cast<std::uint32_t>((i * 1664525u + 1013904223u) &
                                             (n - 1));
    const size_t chaseSteps = size_t{1} << 21;
    std::uint32_t x = 0;
    Clock::time_point a = Clock::now();
    for (size_t s = 0; s < chaseSteps; ++s)
        x = next[x];
    double chase = secondsBetween(a, Clock::now()) * 1e9 /
                   static_cast<double>(chaseSteps);
    const size_t aluSteps = size_t{1} << 27;
    std::uint64_t y = x | 1;
    a = Clock::now();
    for (size_t s = 0; s < aluSteps; ++s) {
        y ^= y << 13;
        y ^= y >> 7;
        y ^= y << 17;
    }
    double alu = secondsBetween(a, Clock::now()) * 1e9 /
                 static_cast<double>(aluSteps);
    // Keep both chains observable so neither loop is folded away.
    if (y == 0 && x == 1)
        std::printf("probe sentinel\n");
    return {chase, alu};
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload "
                 "paper_tables|wide96|service_mix|deep5 --seed <n> "
                 "--seconds <s> --trace <0|1> [--qsynd <path>] "
                 "[--out-dir <dir>] [--git <rev>] "
                 "[--counts-record <file>]\n";
    std::exit(2);
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * Output counts repeat exactly between runs of one build, whatever the
 * seed: the first run whose checks all passed records them in `path`,
 * later runs compare. Returns the difference as a check failure, or an
 * empty string.
 */
std::string
compareRecordedCounts(const std::string &path,
                      const std::vector<Metric> &metrics, bool mayRecord)
{
    std::string counts;
    for (const Metric &m : metrics) {
        if (m.name == "cost_out" || m.name == "t_count_out" ||
            m.name == "gates_out" || m.name == "depth_out")
            counts += m.name + "=" + jsonNumber(m.value) + " ";
    }
    std::string recorded;
    std::ifstream in(path);
    if (std::getline(in, recorded)) {
        if (recorded == counts)
            return "";
        return "output counts differ from an earlier run of this build: " +
               counts + "against " + recorded;
    }
    if (!mayRecord)
        return "";
    const std::string tmp = path + ".tmp";
    std::ofstream(tmp) << counts << "\n";
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    return ec ? "cannot record output counts in " + path : "";
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig config;
    config.processStart = Clock::now();
    config.outDir = ".bench_build/out";
    std::string git = "unknown";
    std::string countsRecord;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        std::string value = argv[++i];
        if (arg == "--workload") {
            config.workload = value;
            haveWorkload = true;
        } else if (arg == "--seed") {
            unsigned long long seed = 0;
            if (!qsyn::parseUnsigned(value, &seed))
                usage("--seed wants an unsigned integer");
            config.seed = seed;
            haveSeed = true;
        } else if (arg == "--seconds") {
            if (!qsyn::parseFiniteDouble(value, &config.seconds))
                usage("--seconds wants a number");
            haveSeconds = config.seconds > 0;
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace wants 0 or 1");
            config.trace = value == "1";
        } else if (arg == "--qsynd") {
            config.qsyndPath = value;
        } else if (arg == "--out-dir") {
            config.outDir = value;
        } else if (arg == "--git") {
            git = value;
        } else if (arg == "--counts-record") {
            countsRecord = value;
        } else {
            usage("unknown option " + arg);
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds)
        usage("--workload, --seed and --seconds > 0 are required");
    if (config.qsyndPath.empty()) {
        std::filesystem::path self(argv[0]);
        config.qsyndPath = (self.parent_path() / "qsynd").string();
    }
    std::error_code ignored;
    std::filesystem::create_directories(config.outDir, ignored);

    RunResult run;
    try {
        if (config.workload == "paper_tables")
            run = runPaperTables(config);
        else if (config.workload == "wide96")
            run = runWide96(config);
        else if (config.workload == "deep5")
            run = runDeep5(config);
        else if (config.workload == "service_mix")
            run = runServiceMix(config);
        else
            usage("unknown workload '" + config.workload + "'");
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << config.workload << ": " << e.what()
                  << "\n";
        return 1;
    }
    if (!config.trace && !countsRecord.empty()) {
        std::string why = compareRecordedCounts(countsRecord, run.metrics,
                                                run.problems.empty());
        if (!why.empty())
            run.problems.push_back(why);
    }
    auto [chase, alu] = machineProbe();

    std::printf("workload %s seed %llu seconds %g trace %d\n",
                config.workload.c_str(),
                static_cast<unsigned long long>(config.seed),
                config.seconds, config.trace ? 1 : 0);
    std::printf("compiler %s, build %s, flags \"%s\", nproc %u, git %s\n",
                __VERSION__, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
                std::thread::hardware_concurrency(), git.c_str());
    std::printf("machine probe: pointer chase %.2f ns/step, ALU %.3f "
                "ns/step\n",
                chase, alu);
    for (const std::string &line : run.report)
        std::printf("%s\n", line.c_str());
    const size_t shown = std::min<size_t>(run.problems.size(), 50);
    for (size_t i = 0; i < shown; ++i)
        std::printf("CHECK FAILED: %s\n", run.problems[i].c_str());
    if (run.problems.size() > shown)
        std::printf("CHECK FAILED: ... %zu more\n",
                    run.problems.size() - shown);
    for (const Metric &m : run.metrics)
        std::printf("%-40s %20.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::string json = "{\"correct\": ";
    json += run.problems.empty() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(run.attempted);
    json += ", \"failed\": " + std::to_string(run.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < run.metrics.size(); ++i) {
        const Metric &m = run.metrics[i];
        json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
                jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
