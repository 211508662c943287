/**
 * @file
 * `qsync --remote`: the thin-client side of the qsynd daemon. Reads
 * each input file, ships its bytes to the daemon, and relays the
 * returned QASM and report verbatim — the daemon renders both with
 * the same writer the local path uses, so `qsync --remote` and
 * `qsync --report-deterministic` produce byte-identical artifacts for
 * the same inputs and flags.
 */

#include "cli/options.hpp"

#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/errors.hpp"
#include "common/strings.hpp"
#include "service/client.hpp"

namespace qsyn::cli {

namespace {

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw UserError("cannot open '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

const char *
wireFormat(const std::string &path)
{
    std::string lower = toLower(path);
    if (endsWith(lower, ".qc"))
        return "qc";
    if (endsWith(lower, ".real"))
        return "real";
    if (endsWith(lower, ".pla"))
        return "pla";
    return "qasm";
}

} // namespace

int
runRemote(const CliOptions &options, std::ostream &out,
          std::ostream &err)
{
    try {
        service::Client client =
            service::Client::connectUnix(options.remoteSocket);

        std::string qasm;
        for (const std::string &inputPath : options.inputs) {
            using service::Json;
            Json request = Json::makeObject();
            request.object["op"] = Json::makeString("compile");
            request.object["source"] =
                Json::makeString(readFileBytes(inputPath));
            request.object["format"] =
                Json::makeString(wireFormat(inputPath));
            // The daemon names the circuit from this field the same
            // way the local loader names it from the path (its stem),
            // so report bytes agree.
            request.object["name"] = Json::makeString(
                std::filesystem::path(inputPath).stem().string());
            request.object["device"] =
                Json::makeString(options.deviceName);
            request.object["simulator_qubits"] = Json::makeNumber(
                static_cast<double>(options.simulatorQubits));
            request.object["optimize"] =
                Json::makeBool(options.compile.optimize);
            request.object["verify"] = Json::makeString(
                options.compile.verify == VerifyMode::Off ? "off"
                                                          : "full");
            request.object["placement"] = Json::makeString(
                options.compile.placement ==
                        route::PlacementStrategy::Greedy
                    ? "greedy"
                    : "identity");
            request.object["router"] = Json::makeString(
                route::routerName(options.compile.routing.router));
            if (options.deadlineSeconds > 0.0) {
                request.object["deadline_ms"] = Json::makeNumber(
                    options.deadlineSeconds * 1e3);
            }

            Json response = client.call(request);
            if (!response.boolOr("ok", false))
                service::Client::throwError(response);

            qasm += response.stringOr("qasm", "");
            if (options.printStats) {
                err << inputPath << ": gates "
                    << response.numberOr("gates", 0.0) << ", cost "
                    << response.numberOr("cost", 0.0)
                    << (response.boolOr("verified", false)
                            ? ", verified"
                            : "")
                    << " (remote)\n";
            }
            if (!options.reportPath.empty()) {
                std::ofstream report(options.reportPath);
                if (!report)
                    throw UserError("cannot write report '" +
                                    options.reportPath + "'");
                report << response.stringOr("report", "");
                err << "wrote " << options.reportPath << "\n";
            }
        }

        if (options.emitQasm) {
            if (options.outputPath.empty()) {
                out << qasm;
            } else {
                std::ofstream file(options.outputPath,
                                   std::ios::binary);
                if (!file)
                    throw UserError("cannot write '" +
                                    options.outputPath + "'");
                file << qasm;
                err << "wrote " << options.outputPath << "\n";
            }
        }
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
