#include "check/corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/options.hpp"
#include "common/errors.hpp"
#include "common/strings.hpp"
#include "device/loader.hpp"
#include "frontend/loader.hpp"
#include "frontend/qasm_writer.hpp"

namespace fs = std::filesystem;

namespace qsyn::check {

std::vector<std::string>
compileOptionsToFlags(const CompileOptions &options)
{
    const CompileOptions defaults;
    std::vector<std::string> flags;
    auto push = [&](const std::string &flag) { flags.push_back(flag); };

    if (options.mcxStrategy != defaults.mcxStrategy) {
        push("--mcx");
        switch (options.mcxStrategy) {
          case decompose::McxStrategy::Auto: push("auto"); break;
          case decompose::McxStrategy::CleanVChain: push("clean"); break;
          case decompose::McxStrategy::DirtyVChain: push("dirty"); break;
          case decompose::McxStrategy::Split: push("split"); break;
          case decompose::McxStrategy::Roots: push("roots"); break;
        }
    }
    if (options.placement == route::PlacementStrategy::Greedy) {
        push("--placement");
        push("greedy");
    }
    if (options.routing.router != defaults.routing.router) {
        push("--router");
        push(route::routerName(options.routing.router));
    }
    if (options.routing.fidelityAware)
        push("--fidelity-aware");
    if (options.routing.testOmitSwapBack)
        push("--test-omit-swap-back");
    if (!options.optimize)
        push("--no-optimize");
    if (!options.optimizeTechIndependent)
        push("--no-ti-optimize");
    if (options.optimizer.enablePhasePolynomial)
        push("--phase-poly");

    const opt::CostWeights &w = options.optimizer.weights;
    const opt::CostWeights &dw = defaults.optimizer.weights;
    auto pushWeight = [&](const char *flag, double value) {
        std::ostringstream os;
        os << value;
        push(flag);
        push(os.str());
    };
    if (w.tWeight != dw.tWeight)
        pushWeight("--weight-t", w.tWeight);
    if (w.cnotWeight != dw.cnotWeight)
        pushWeight("--weight-cnot", w.cnotWeight);
    if (w.gateWeight != dw.gateWeight)
        pushWeight("--weight-gate", w.gateWeight);

    if (options.verify == VerifyMode::Off)
        push("--no-verify");
    return flags;
}

CompileOptions
compileOptionsFromFlags(const std::vector<std::string> &tokens)
{
    // Reuse the real CLI grammar; the dummy input satisfies its
    // "no input file" validation and is otherwise ignored.
    std::vector<std::string> args = tokens;
    args.push_back("corpus-entry.qasm");
    return cli::parseCliArguments(args).compile;
}

namespace {

std::string
flagsFileText(const Reproducer &repro)
{
    std::ostringstream os;
    for (const std::string &note : repro.notes)
        os << "# " << note << "\n";
    for (const std::string &flag :
         compileOptionsToFlags(repro.options))
        os << flag << "\n";
    return os.str();
}

void
writeFileOrThrow(const fs::path &path, const std::string &content)
{
    std::ofstream out(path);
    if (!out)
        throw UserError("cannot write '" + path.string() + "'");
    out << content;
}

} // namespace

std::string
saveReproducer(const std::string &corpus_dir, const Reproducer &repro)
{
    fs::path root(corpus_dir);
    std::error_code ec;
    fs::create_directories(root, ec);
    if (ec)
        throw UserError("cannot create corpus directory '" +
                        corpus_dir + "': " + ec.message());

    std::string name = repro.name;
    if (name.empty())
        name = "repro-" +
               std::to_string(listCorpus(corpus_dir).size() + 1);
    fs::path entry = root / name;
    fs::create_directories(entry, ec);
    if (ec)
        throw UserError("cannot create corpus entry '" +
                        entry.string() + "': " + ec.message());

    frontend::QasmWriterOptions wopts;
    wopts.headerComment =
        "qfuzz reproducer; replay: qsync circuit.qasm "
        "--device-file device.txt $(grep -v '^#' flags.txt)";
    writeFileOrThrow(entry / "circuit.qasm",
                     frontend::writeQasm(repro.circuit, wopts));
    writeFileOrThrow(entry / "device.txt", deviceToText(repro.device));
    writeFileOrThrow(entry / "flags.txt", flagsFileText(repro));
    return entry.string();
}

Reproducer
loadReproducer(const std::string &entry_dir)
{
    fs::path entry(entry_dir);
    Reproducer repro;
    repro.name = entry.filename().string();
    repro.circuit =
        frontend::loadCircuitFile((entry / "circuit.qasm").string());
    repro.device = loadDeviceFile((entry / "device.txt").string());

    std::ifstream flags(entry / "flags.txt");
    if (!flags)
        throw UserError("corpus entry '" + entry_dir +
                        "' has no flags.txt");
    std::vector<std::string> tokens;
    std::string line;
    while (std::getline(flags, line)) {
        std::string trimmed = trim(line);
        if (trimmed.empty())
            continue;
        if (trimmed[0] == '#') {
            repro.notes.push_back(trim(trimmed.substr(1)));
            continue;
        }
        // A line may hold a flag and its value ("--mcx clean").
        std::istringstream words(trimmed);
        std::string word;
        while (words >> word)
            tokens.push_back(word);
    }
    repro.options = compileOptionsFromFlags(tokens);
    return repro;
}

std::vector<std::string>
listCorpus(const std::string &corpus_dir)
{
    std::vector<std::string> entries;
    std::error_code ec;
    fs::directory_iterator it(corpus_dir, ec);
    if (ec)
        return entries;
    for (const fs::directory_entry &e : it) {
        if (e.is_directory() &&
            fs::exists(e.path() / "circuit.qasm"))
            entries.push_back(e.path().string());
    }
    std::sort(entries.begin(), entries.end());
    return entries;
}

CaseOutcome
replayReproducer(const Reproducer &repro, const OracleOptions &opts)
{
    return runCase(repro.circuit, repro.device, repro.options, opts);
}

} // namespace qsyn::check
