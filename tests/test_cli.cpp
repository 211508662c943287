/**
 * @file
 * Tests for the qsync command-line driver: argument parsing, help and
 * device listing, and end-to-end file compilation through runCli.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli/options.hpp"
#include "common/errors.hpp"
#include "frontend/qasm_parser.hpp"
#include "obs/obs.hpp"
#include "qmdd/equivalence.hpp"
#include "service/json.hpp"

using namespace qsyn;
using namespace qsyn::cli;

namespace {

/** Write a temp file; returns its path. */
std::string
writeTemp(const std::string &name, const std::string &content)
{
    std::string path = ::testing::TempDir() + name;
    std::ofstream out(path);
    out << content;
    return path;
}

} // namespace

TEST(CliParse, Defaults)
{
    CliOptions opts = parseCliArguments({"circuit.qasm"});
    ASSERT_EQ(opts.inputs.size(), 1u);
    EXPECT_EQ(opts.inputs[0], "circuit.qasm");
    EXPECT_EQ(opts.jobs, 1u);
    EXPECT_EQ(opts.deviceName, "ibmqx4");
    EXPECT_TRUE(opts.compile.optimize);
    EXPECT_EQ(opts.compile.verify, VerifyMode::Full);
}

TEST(CliParse, AllTheFlags)
{
    CliOptions opts = parseCliArguments(
        {"-d", "ibmqx5", "-o", "out.qasm", "--placement", "greedy",
         "--mcx", "dirty", "--weight-t", "2", "--weight-cnot", "0.5",
         "--weight-gate", "3", "--no-verify", "--quiet", "in.real"});
    EXPECT_EQ(opts.deviceName, "ibmqx5");
    EXPECT_EQ(opts.outputPath, "out.qasm");
    EXPECT_EQ(opts.compile.placement, route::PlacementStrategy::Greedy);
    EXPECT_EQ(opts.compile.mcxStrategy,
              decompose::McxStrategy::DirtyVChain);
    EXPECT_DOUBLE_EQ(opts.compile.optimizer.weights.tWeight, 2.0);
    EXPECT_DOUBLE_EQ(opts.compile.optimizer.weights.cnotWeight, 0.5);
    EXPECT_DOUBLE_EQ(opts.compile.optimizer.weights.gateWeight, 3.0);
    EXPECT_EQ(opts.compile.verify, VerifyMode::Off);
    EXPECT_FALSE(opts.printStats);
    ASSERT_EQ(opts.inputs.size(), 1u);
    EXPECT_EQ(opts.inputs[0], "in.real");
}

TEST(CliParse, RouterSelection)
{
    EXPECT_EQ(parseCliArguments({"a.qasm"}).compile.routing.router,
              route::RouterKind::Ctr);
    EXPECT_EQ(parseCliArguments({"--router", "sabre", "a.qasm"})
                  .compile.routing.router,
              route::RouterKind::Sabre);
    EXPECT_EQ(parseCliArguments({"--router", "ctr", "a.qasm"})
                  .compile.routing.router,
              route::RouterKind::Ctr);
    EXPECT_THROW(parseCliArguments({"--router", "astar", "a.qasm"}),
                 UserError);
    EXPECT_THROW(parseCliArguments({"--router"}), UserError);
}

TEST(CliParse, BatchInputsAndJobs)
{
    CliOptions opts = parseCliArguments(
        {"--jobs", "4", "a.qasm", "b.qc", "c.real"});
    EXPECT_EQ(opts.jobs, 4u);
    ASSERT_EQ(opts.inputs.size(), 3u);
    EXPECT_EQ(opts.inputs[0], "a.qasm");
    EXPECT_EQ(opts.inputs[1], "b.qc");
    EXPECT_EQ(opts.inputs[2], "c.real");

    EXPECT_EQ(parseCliArguments({"-j", "0", "a.qasm"}).jobs, 0u);
    EXPECT_THROW(parseCliArguments({"--jobs", "x", "a.qasm"}),
                 UserError);
    EXPECT_THROW(parseCliArguments({"--jobs", "-2", "a.qasm"}),
                 UserError);
    // Single-file side channels reject multi-input batches.
    EXPECT_THROW(
        parseCliArguments({"-o", "out.qasm", "a.qasm", "b.qasm"}),
        UserError);
    EXPECT_THROW(
        parseCliArguments({"--report", "r.json", "a.qasm", "b.qasm"}),
        UserError);
    EXPECT_THROW(parseCliArguments({"--draw", "a.qasm", "b.qasm"}),
                 UserError);
    EXPECT_THROW(parseCliArguments({"--schedule", "a.qasm", "b.qasm"}),
                 UserError);
}

TEST(CliParse, Errors)
{
    EXPECT_THROW(parseCliArguments({}), UserError);
    EXPECT_THROW(parseCliArguments({"--bogus", "x.qasm"}), UserError);
    EXPECT_THROW(parseCliArguments({"--device"}), UserError);
    EXPECT_THROW(parseCliArguments({"--weight-t", "abc", "x.qasm"}),
                 UserError);
    EXPECT_THROW(parseCliArguments({"--mcx", "magic", "x.qasm"}),
                 UserError);
    // The miter is the only check, so there is no flag to select it.
    EXPECT_THROW(parseCliArguments({"--verify-miter", "x.qasm"}),
                 UserError);
}

TEST(CliParse, RemoteRejectsWhatItCannotSend)
{
    // Local-only flags, then compile options the qsynd request has no
    // field for: each is refused by name rather than ignored.
    const std::vector<std::vector<std::string>> rejected = {
        {"--device-file", "dev.txt"}, {"--draw"}, {"--schedule"},
        {"--analyze"}, {"--trace-json", "t.json"},
        {"--metrics-json", "m.json"}, {"--metrics-prom", "m.prom"},
        {"--rebase", "cz"}, {"--cache-dir", "cache"}, {"--test-crash"},
        {"--mcx", "roots"}, {"--phase-poly"}, {"--weight-t", "3"},
        {"--weight-cnot", "1"}, {"--weight-gate", "2"},
        {"--fidelity-aware"}, {"--no-ti-optimize"},
        {"--test-omit-swap-back"}};
    for (const std::vector<std::string> &flag : rejected) {
        std::vector<std::string> args = {"--remote", "qsynd.sock"};
        args.insert(args.end(), flag.begin(), flag.end());
        args.push_back("x.qasm");
        try {
            parseCliArguments(args);
            ADD_FAILURE() << flag[0] << " was accepted with --remote";
        } catch (const UserError &e) {
            EXPECT_EQ(std::string(e.what()).rfind(flag[0] + " ", 0), 0u)
                << e.what();
        }
    }
    // A value equal to the default changes nothing and is accepted.
    EXPECT_NO_THROW(parseCliArguments({"--remote", "qsynd.sock", "--mcx",
                                       "auto", "--weight-t", "0.5",
                                       "x.qasm"}));
}

TEST(CliRun, HelpAndDeviceList)
{
    std::ostringstream out, err;
    CliOptions help = parseCliArguments({"--help"});
    EXPECT_EQ(runCli(help, out, err), 0);
    EXPECT_NE(out.str().find("qsync"), std::string::npos);

    std::ostringstream out2, err2;
    CliOptions list = parseCliArguments({"--list-devices"});
    EXPECT_EQ(runCli(list, out2, err2), 0);
    EXPECT_NE(out2.str().find("ibmqx4"), std::string::npos);
    EXPECT_NE(out2.str().find("proposed_96"), std::string::npos);
}

TEST(CliRun, CompilesQasmFileEndToEnd)
{
    std::string path = writeTemp(
        "cli_in.qasm",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n"
        "ccx q[0],q[1],q[2];\n");
    std::ostringstream out, err;
    CliOptions opts = parseCliArguments({"-d", "ibmqx4", path});
    EXPECT_EQ(runCli(opts, out, err), 0);
    // Output must be valid QASM of the device width.
    Circuit compiled = frontend::parseQasm(out.str());
    EXPECT_EQ(compiled.numQubits(), 5u);
    EXPECT_NE(err.str().find("verification:      equivalent"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(CliRun, CompilesPlaThroughEsopFrontEnd)
{
    std::string path = writeTemp("cli_in.pla", ".i 2\n.o 1\n"
                                               ".type esop\n"
                                               "11 1\n.e\n");
    std::ostringstream out, err;
    CliOptions opts = parseCliArguments({"-d", "simulator", path});
    EXPECT_EQ(runCli(opts, out, err), 0);
    EXPECT_NE(out.str().find("OPENQASM"), std::string::npos);
    std::remove(path.c_str());
}

TEST(CliRun, CustomDeviceFile)
{
    std::string dev_path = writeTemp("cli_ring.txt", "device ring3 3\n"
                                                     "0: 1\n1: 2\n2: 0\n");
    std::string circ_path = writeTemp(
        "cli_ring.qasm", "OPENQASM 2.0;\nqreg q[3];\ncx q[2],q[1];\n");
    std::ostringstream out, err;
    CliOptions opts = parseCliArguments(
        {"--device-file", dev_path, circ_path});
    EXPECT_EQ(runCli(opts, out, err), 0);
    EXPECT_NE(err.str().find("ring3"), std::string::npos);
    std::remove(dev_path.c_str());
    std::remove(circ_path.c_str());
}

TEST(CliRun, BatchOutputIsOrderedAndJobsInvariant)
{
    std::string a = writeTemp(
        "cli_batch_a.qasm",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n"
        "ccx q[0],q[1],q[2];\n");
    std::string b = writeTemp(
        "cli_batch_b.qasm",
        "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n");
    std::string c = writeTemp(
        "cli_batch_c.qasm",
        "OPENQASM 2.0;\nqreg q[2];\ncx q[1],q[0];\nh q[1];\n");

    auto run = [&](const char *jobs) {
        std::ostringstream out, err;
        CliOptions opts = parseCliArguments(
            {"-d", "ibmqx4", "--jobs", jobs, a, b, c});
        EXPECT_EQ(runCli(opts, out, err), 0);
        return std::make_pair(out.str(), err.str());
    };
    auto seq = run("1");
    // QASM concatenated to stdout strictly in input order.
    size_t pos_a = seq.first.find(a);
    size_t pos_b = seq.first.find(b);
    size_t pos_c = seq.first.find(c);
    ASSERT_NE(pos_a, std::string::npos);
    ASSERT_NE(pos_b, std::string::npos);
    ASSERT_NE(pos_c, std::string::npos);
    EXPECT_LT(pos_a, pos_b);
    EXPECT_LT(pos_b, pos_c);
    EXPECT_NE(seq.second.find("batch:"), std::string::npos);

    // Parallel stdout is byte-identical to the sequential run.
    auto par = run("4");
    EXPECT_EQ(seq.first, par.first);

    std::remove(a.c_str());
    std::remove(b.c_str());
    std::remove(c.c_str());
}

TEST(CliRun, BatchIsolatesFailedInputs)
{
    std::string good = writeTemp(
        "cli_batch_good.qasm",
        "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n");
    std::ostringstream out, err;
    CliOptions opts = parseCliArguments(
        {"-d", "ibmqx4", "/nonexistent/bad.qasm", good});
    EXPECT_EQ(runCli(opts, out, err), 1);
    // The good input still compiles and is emitted.
    EXPECT_NE(out.str().find("OPENQASM"), std::string::npos);
    EXPECT_NE(err.str().find("error"), std::string::npos);
    EXPECT_NE(err.str().find("1/2"), std::string::npos);
    std::remove(good.c_str());
}

TEST(CliRun, MissingInputReportsError)
{
    std::ostringstream out, err;
    CliOptions opts = parseCliArguments({"/nonexistent/foo.qasm"});
    EXPECT_EQ(runCli(opts, out, err), 1);
    EXPECT_NE(err.str().find("error:"), std::string::npos);
}

TEST(CliRun, WritesOutputFile)
{
    std::string in_path = writeTemp(
        "cli_out_test.qasm", "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n");
    std::string out_path = ::testing::TempDir() + "cli_result.qasm";
    std::ostringstream out, err;
    CliOptions opts = parseCliArguments(
        {"-d", "ibmqx2", "-o", out_path, "--quiet", in_path});
    EXPECT_EQ(runCli(opts, out, err), 0);
    std::ifstream check(out_path);
    EXPECT_TRUE(check.good());
    std::remove(in_path.c_str());
    std::remove(out_path.c_str());
}

TEST(CliRun, DrawScheduleAndReportFlags)
{
    std::string in_path = writeTemp(
        "cli_extras.qasm",
        "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n");
    std::string report_path = ::testing::TempDir() + "cli_report.json";
    std::ostringstream out, err;
    CliOptions opts = parseCliArguments({"-d", "ibmqx2", "--draw",
                                         "--schedule", "--report",
                                         report_path, "--no-emit",
                                         in_path});
    EXPECT_TRUE(opts.drawCircuits);
    EXPECT_TRUE(opts.printSchedule);
    EXPECT_EQ(opts.reportPath, report_path);
    EXPECT_EQ(runCli(opts, out, err), 0);
    EXPECT_NE(err.str().find("--- input ---"), std::string::npos);
    EXPECT_NE(err.str().find("schedule:"), std::string::npos);
    std::ifstream report(report_path);
    ASSERT_TRUE(report.good());
    std::stringstream buffer;
    buffer << report.rdbuf();
    EXPECT_NE(buffer.str().find("\"verification\": \"equivalent\""),
              std::string::npos);
    std::remove(in_path.c_str());
    std::remove(report_path.c_str());
}

TEST(CliRun, FidelityAndPhasePolyFlagsParse)
{
    CliOptions opts = parseCliArguments(
        {"--fidelity-aware", "--phase-poly", "x.qasm"});
    EXPECT_TRUE(opts.compile.routing.fidelityAware);
    EXPECT_TRUE(opts.compile.optimizer.enablePhasePolynomial);
}

TEST(CliParse, ObservabilityFlags)
{
    CliOptions opts = parseCliArguments(
        {"--trace-json", "t.json", "--metrics-json", "m.json",
         "--log-level", "debug", "x.qasm"});
    EXPECT_EQ(opts.obs.tracePath, "t.json");
    EXPECT_EQ(opts.obs.metricsPath, "m.json");
    ASSERT_TRUE(opts.obs.logLevel.has_value());
    EXPECT_EQ(*opts.obs.logLevel, obs::LogLevel::Debug);
    EXPECT_THROW(parseCliArguments({"--log-level", "loud", "x.qasm"}),
                 UserError);
    EXPECT_THROW(parseCliArguments({"--trace-json"}), UserError);
}

TEST(CliRun, TraceAndMetricsJsonFiles)
{
    std::string in_path = writeTemp(
        "cli_trace.qasm",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n"
        "ccx q[0],q[1],q[2];\n");
    std::string trace_path = ::testing::TempDir() + "cli_trace.json";
    std::string metrics_path = ::testing::TempDir() + "cli_metrics.json";
    std::ostringstream out, err;
    CliOptions opts = parseCliArguments(
        {"-d", "ibmqx4", "--trace-json", trace_path, "--metrics-json",
         metrics_path, "--no-emit", "--quiet", in_path});
    EXPECT_EQ(runCli(opts, out, err), 0);

    std::ifstream trace_in(trace_path);
    ASSERT_TRUE(trace_in.good());
    std::stringstream trace;
    trace << trace_in.rdbuf();
    // Chrome trace-event shape with spans from every compile stage.
    EXPECT_NE(trace.str().find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.str().find("\"ph\": \"X\""), std::string::npos);
    for (const char *span :
         {"compile.decompose", "compile.place", "compile.route",
          "compile.optimize", "compile.verify", "frontend.parse",
          "opt.cancellation", "qmdd.equivalence_check"})
        EXPECT_NE(trace.str().find(span), std::string::npos) << span;

    std::ifstream metrics_in(metrics_path);
    ASSERT_TRUE(metrics_in.good());
    std::stringstream metrics;
    metrics << metrics_in.rdbuf();
    for (const char *metric :
         {"qmdd.unique_hit_rate", "qmdd.compute_hit_rate",
          "qmdd.compute_cache_bytes", "route.swaps_inserted",
          "opt.gates_removed", "frontend.gates_parsed"})
        EXPECT_NE(metrics.str().find(metric), std::string::npos)
            << metric;

    // The sink must be uninstalled once runCli returns.
    EXPECT_EQ(obs::sink(), nullptr);
    std::remove(in_path.c_str());
    std::remove(trace_path.c_str());
    std::remove(metrics_path.c_str());
}

TEST(CliRun, DebugLogLevelPrintsPassBreakdown)
{
    std::string in_path = writeTemp(
        "cli_debug.qasm",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n"
        "ccx q[0],q[1],q[2];\n");
    std::ostringstream out, err, log;
    obs::setLogStream(&log); // keep test output clean
    CliOptions opts = parseCliArguments(
        {"-d", "ibmqx4", "--log-level", "debug", "--no-emit", in_path});
    int rc = runCli(opts, out, err);
    obs::setLogStream(nullptr);
    obs::setLogLevel(obs::LogLevel::Quiet); // undo runCli's override
    EXPECT_EQ(rc, 0);
    EXPECT_NE(err.str().find("optimizer passes"), std::string::npos);
    EXPECT_NE(err.str().find("cancellation"), std::string::npos);
    std::remove(in_path.c_str());
}

TEST(CliRun, PlainReportCarriesPassCostDeltas)
{
    // The per-pass cost deltas of a --report must not depend on
    // whether an obs sink happens to be installed: the plain report
    // agrees with the deterministic one.
    const std::string input =
        std::string(QSYN_DATA_DIR) + "/mod5_cascade.real";
    auto cancellationDelta = [&](bool deterministic) {
        std::string path = ::testing::TempDir() + "cli_pass_report.json";
        std::vector<std::string> args = {"-d", "ibmqx4", "--report", path,
                                         "--no-emit", "--quiet", input};
        if (deterministic)
            args.push_back("--report-deterministic");
        std::ostringstream out, err;
        EXPECT_EQ(runCli(parseCliArguments(args), out, err), 0)
            << err.str();
        std::ifstream in(path);
        std::stringstream buffer;
        buffer << in.rdbuf();
        std::remove(path.c_str());
        service::Json report;
        std::string error;
        EXPECT_TRUE(service::parseJson(buffer.str(), &report, &error))
            << error;
        for (const service::Json &p : report.at("optimizer_passes").array)
            if (p.at("name").str == "cancellation")
                return p.at("cost_delta").number;
        ADD_FAILURE() << "no cancellation pass in " << buffer.str();
        return 0.0;
    };
    double plain = cancellationDelta(false);
    EXPECT_GT(plain, 0.0);
    EXPECT_EQ(plain, cancellationDelta(true));
}

TEST(CliRun, RebaseToCzEmitsCzBasis)
{
    std::string in_path = writeTemp(
        "cli_rebase.qasm",
        "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n");
    std::ostringstream out, err;
    CliOptions opts = parseCliArguments(
        {"-d", "ibmqx2", "--rebase", "cz", "--quiet", in_path});
    EXPECT_EQ(runCli(opts, out, err), 0);
    EXPECT_NE(out.str().find("cz "), std::string::npos);
    EXPECT_EQ(out.str().find("cx "), std::string::npos);
    // The rebased output still parses and equals the original.
    Circuit emitted = frontend::parseQasm(out.str());
    Circuit original(5);
    original.addCnot(0, 1);
    dd::Package pkg;
    dd::EquivalenceChecker checker(pkg);
    EXPECT_TRUE(dd::isEquivalent(checker.check(original, emitted)));
    std::remove(in_path.c_str());
    EXPECT_THROW(parseCliArguments({"--rebase", "xy", "a.qasm"}),
                 UserError);
}
