/**
 * @file
 * qlint: the static analyzer as a standalone CI tool. Lints one or
 * more circuit files against an optional target device and renders
 * findings as human text, JSON, or SARIF 2.1.0 (for upload to code-
 * scanning dashboards).
 *
 * Exit codes are CI-suitable:
 *   0  no findings at failing severity (clean, or warnings without
 *      --Werror)
 *   1  at least one error-severity finding (or warning with --Werror)
 *   2  usage or I/O error
 */

#include <fstream>
#include <iostream>
#include <optional>
#include <vector>

#include "analysis/rules.hpp"
#include "cli/options.hpp"
#include "common/errors.hpp"
#include "device/loader.hpp"
#include "device/registry.hpp"
#include "frontend/loader.hpp"

namespace {

constexpr const char *kHelp =
    "usage: qlint [options] <circuit>...\n"
    "\n"
    "Statically analyze quantum circuits (.qasm/.qc/.real): build the\n"
    "commutation-aware dependency DAG, compute depth/parallelism\n"
    "metrics, and report lint findings with stable QLxxx rule IDs.\n"
    "\n"
    "options:\n"
    "  -d, --device <name>      lint against a built-in device\n"
    "      --device-file <file> lint against a custom device file\n"
    "      --simulator-qubits <n>\n"
    "                           width of the simulator device\n"
    "                           (with --device simulator; default 32)\n"
    "      --format <fmt>       output format: text (default), json,\n"
    "                           or sarif (SARIF 2.1.0)\n"
    "  -o, --output <file>      write the report here (default stdout)\n"
    "      --ancilla <q>        declare wire q an ancilla that must be\n"
    "                           restored to |0> (repeatable)\n"
    "      --rule <QLxxx>       only run this rule (repeatable)\n"
    "      --no-rule <QLxxx>    disable this rule (repeatable)\n"
    "      --no-commutation     per-wire program-order DAG edges only\n"
    "      --Werror             exit 1 on warnings, not just errors\n"
    "      --list-rules         print the rule catalog and exit\n"
    "  -h, --help               this text\n"
    "\n"
    "Without a device, only device-independent rules run (dead qubits,\n"
    "dead gate pairs, ancilla restoration).\n";

struct QlintOptions
{
    std::vector<std::string> inputs;
    std::string deviceName;
    std::string deviceFile;
    qsyn::Qubit simulatorQubits = 32;
    std::string format = "text";
    std::string outputPath;
    std::vector<qsyn::Qubit> ancillas;
    std::vector<std::string> onlyRules;
    std::vector<std::string> disabledRules;
    bool commutationAware = true;
    bool warningsAsErrors = false;
    bool showHelp = false;
    bool listRules = false;
};

QlintOptions
parseArgs(const std::vector<std::string> &args)
{
    using qsyn::UserError;
    QlintOptions opts;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto next_value = [&](const std::string &flag) -> std::string {
            if (i + 1 >= args.size())
                throw UserError("missing value for " + flag);
            return args[++i];
        };
        if (arg == "-h" || arg == "--help") {
            opts.showHelp = true;
        } else if (arg == "-d" || arg == "--device") {
            opts.deviceName = next_value(arg);
        } else if (arg == "--device-file") {
            opts.deviceFile = next_value(arg);
        } else if (arg == "--simulator-qubits") {
            opts.simulatorQubits =
                qsyn::cli::parseWidthValue(arg, next_value(arg));
        } else if (arg == "--format") {
            opts.format = next_value(arg);
            if (opts.format != "text" && opts.format != "json" &&
                opts.format != "sarif")
                throw UserError("unknown format '" + opts.format +
                                "' (text|json|sarif)");
        } else if (arg == "-o" || arg == "--output") {
            opts.outputPath = next_value(arg);
        } else if (arg == "--ancilla") {
            opts.ancillas.push_back(static_cast<qsyn::Qubit>(
                qsyn::cli::parseCountValue(arg, next_value(arg))));
        } else if (arg == "--rule") {
            opts.onlyRules.push_back(next_value(arg));
        } else if (arg == "--no-rule") {
            opts.disabledRules.push_back(next_value(arg));
        } else if (arg == "--no-commutation") {
            opts.commutationAware = false;
        } else if (arg == "--Werror") {
            opts.warningsAsErrors = true;
        } else if (arg == "--list-rules") {
            opts.listRules = true;
        } else if (!arg.empty() && arg[0] == '-') {
            throw UserError("unknown option '" + arg + "'");
        } else {
            opts.inputs.push_back(arg);
        }
    }
    if (!opts.showHelp && !opts.listRules && opts.inputs.empty())
        throw UserError("no input file (try --help)");
    for (const std::string &id : opts.onlyRules) {
        if (qsyn::analysis::findRule(id) == nullptr)
            throw UserError("unknown rule '" + id + "'");
    }
    for (const std::string &id : opts.disabledRules) {
        if (qsyn::analysis::findRule(id) == nullptr)
            throw UserError("unknown rule '" + id + "'");
    }
    return opts;
}

int
run(const QlintOptions &opts)
{
    namespace analysis = qsyn::analysis;

    if (opts.showHelp) {
        std::cout << kHelp;
        return 0;
    }
    if (opts.listRules) {
        for (const analysis::RuleInfo &rule : analysis::ruleCatalog()) {
            std::cout << rule.id << "  " << rule.name << " ("
                      << analysis::severityName(rule.defaultSeverity)
                      << ")\n    " << rule.description << "\n";
        }
        return 0;
    }

    std::optional<qsyn::Device> device;
    if (!opts.deviceFile.empty())
        device = qsyn::loadDeviceFile(opts.deviceFile);
    else if (opts.deviceName == "simulator")
        device = qsyn::Device::simulator(opts.simulatorQubits);
    else if (!opts.deviceName.empty())
        device = qsyn::builtinDevice(opts.deviceName);

    analysis::LintOptions lopts;
    if (device)
        lopts.device = &*device;
    lopts.ancillas = opts.ancillas;
    lopts.onlyRules = opts.onlyRules;
    lopts.disabledRules = opts.disabledRules;

    std::vector<analysis::Diagnostics> reports;
    for (const std::string &input : opts.inputs) {
        qsyn::Circuit circuit = qsyn::frontend::loadCircuitFile(input);
        analysis::DagOptions dopts;
        dopts.commutationAware = opts.commutationAware;
        analysis::DependencyDag dag(circuit, dopts);
        analysis::DataflowAnalysis dataflow(dag);
        analysis::Diagnostics report;
        report.artifact = input;
        report.metrics = analysis::computeDagMetrics(dag);
        report.findings = analysis::lintCircuit(dag, dataflow, lopts);
        reports.push_back(std::move(report));
    }

    std::string rendered;
    if (opts.format == "json")
        rendered = analysis::renderJson(reports);
    else if (opts.format == "sarif")
        rendered = analysis::renderSarif(reports);
    else
        rendered = analysis::renderText(reports);

    if (opts.outputPath.empty()) {
        std::cout << rendered;
    } else {
        std::ofstream out(opts.outputPath);
        if (!out)
            throw qsyn::UserError("cannot write '" + opts.outputPath +
                                  "'");
        out << rendered;
        std::cerr << "wrote " << opts.outputPath << "\n";
    }

    analysis::Severity failing = opts.warningsAsErrors
                                     ? analysis::Severity::Warning
                                     : analysis::Severity::Error;
    for (const analysis::Diagnostics &report : reports) {
        if (report.countAtLeast(failing) > 0)
            return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    try {
        return run(parseArgs(args));
    } catch (const qsyn::Error &e) {
        std::cerr << "qlint: error: " << e.what() << "\n";
        return 2;
    }
}
