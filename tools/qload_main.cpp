/**
 * @file
 * qload: load generator for a running qsynd daemon. N concurrent
 * clients each fire sequential compile requests at the socket for a
 * fixed count (or time budget), and the per-request latencies are
 * folded into p50/p95/p99 percentiles. `--json` prints them as
 * service_warm_* keys for scripts.
 */

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/options.hpp"
#include "common/errors.hpp"
#include "common/stopwatch.hpp"
#include "service/client.hpp"

namespace {

const char *kHelp =
    "qload - load generator for a qsynd daemon\n"
    "\n"
    "usage: qload --socket <path> [options]\n"
    "\n"
    "options:\n"
    "      --socket <path>     qsynd Unix socket (required)\n"
    "      --clients <n>       concurrent connections (default 4)\n"
    "      --requests <n>      requests per client (default 25)\n"
    "      --input <file>      circuit to compile (default: a small\n"
    "                          built-in QASM program)\n"
    "      --device <name>     target device (default ibmqx4)\n"
    "      --no-verify        ask the daemon to skip verification\n"
    "      --json              print a JSON summary with\n"
    "                          service_warm_p50/p95/p99 keys\n"
    "  -h, --help              this text\n";

/** Small but non-trivial: wide enough to route, cheap enough to spam. */
const char *kDefaultQasm =
    "OPENQASM 2.0;\n"
    "include \"qelib1.inc\";\n"
    "qreg q[4];\n"
    "h q[0];\n"
    "cx q[0],q[1];\n"
    "cx q[1],q[2];\n"
    "t q[2];\n"
    "cx q[2],q[3];\n"
    "h q[3];\n"
    "cx q[0],q[3];\n";

double
quantileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    // Type-7 (linear interpolation between the closest ranks).
    double pos = q * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace qsyn;
    std::vector<std::string> args(argv + 1, argv + argc);
    try {
        std::string socketPath;
        std::string inputPath;
        std::string deviceName = "ibmqx4";
        size_t clients = 4;
        size_t requestsPerClient = 25;
        bool verify = true;
        bool jsonOut = false;

        size_t i = 0;
        auto next = [&](const std::string &flag) -> std::string {
            if (i + 1 >= args.size())
                throw UserError("missing value for " + flag);
            return args[++i];
        };
        for (; i < args.size(); ++i) {
            const std::string &arg = args[i];
            if (arg == "-h" || arg == "--help") {
                std::cout << kHelp;
                return 0;
            } else if (arg == "--socket") {
                socketPath = next(arg);
            } else if (arg == "--clients") {
                clients = cli::parseCountValue(arg, next(arg));
                if (clients == 0)
                    throw UserError("--clients must be >= 1");
            } else if (arg == "--requests") {
                requestsPerClient =
                    cli::parseCountValue(arg, next(arg));
                if (requestsPerClient == 0)
                    throw UserError("--requests must be >= 1");
            } else if (arg == "--input") {
                inputPath = next(arg);
            } else if (arg == "--device") {
                deviceName = next(arg);
            } else if (arg == "--no-verify") {
                verify = false;
            } else if (arg == "--json") {
                jsonOut = true;
            } else {
                throw UserError("unknown option '" + arg +
                                "' (try --help)");
            }
        }
        if (socketPath.empty())
            throw UserError("--socket is required (try --help)");

        std::string source = kDefaultQasm;
        if (!inputPath.empty()) {
            std::ifstream in(inputPath, std::ios::binary);
            if (!in)
                throw UserError("cannot open '" + inputPath + "'");
            std::ostringstream buffer;
            buffer << in.rdbuf();
            source = buffer.str();
        }

        std::mutex mu;
        std::vector<double> latenciesMs;
        std::atomic<size_t> failures{0};
        std::atomic<size_t> overloaded{0};
        std::vector<std::string> errors;

        Stopwatch wall;
        std::vector<std::thread> pool;
        pool.reserve(clients);
        for (size_t c = 0; c < clients; ++c) {
            pool.emplace_back([&, c] {
                try {
                    service::Client client =
                        service::Client::connectUnix(socketPath);
                    for (size_t r = 0; r < requestsPerClient; ++r) {
                        using service::Json;
                        Json request = Json::makeObject();
                        request.object["op"] =
                            Json::makeString("compile");
                        request.object["source"] =
                            Json::makeString(source);
                        request.object["device"] =
                            Json::makeString(deviceName);
                        request.object["verify"] = Json::makeString(
                            verify ? "full" : "off");
                        request.object["id"] = Json::makeNumber(
                            static_cast<double>(
                                c * requestsPerClient + r));
                        Stopwatch sw;
                        Json response = client.call(request);
                        double ms = sw.millis();
                        if (response.boolOr("ok", false)) {
                            std::lock_guard<std::mutex> lock(mu);
                            latenciesMs.push_back(ms);
                        } else {
                            const Json *e = response.find("error");
                            std::string code =
                                e != nullptr
                                    ? e->stringOr("code", "internal")
                                    : "internal";
                            if (code == "overloaded") {
                                ++overloaded;
                            } else {
                                ++failures;
                                std::lock_guard<std::mutex> lock(mu);
                                if (errors.size() < 5)
                                    errors.push_back(code);
                            }
                        }
                    }
                } catch (const Error &e) {
                    ++failures;
                    std::lock_guard<std::mutex> lock(mu);
                    if (errors.size() < 5)
                        errors.push_back(e.what());
                }
            });
        }
        for (std::thread &t : pool)
            t.join();
        double wallSeconds = wall.seconds();

        std::sort(latenciesMs.begin(), latenciesMs.end());
        double p50 = quantileSorted(latenciesMs, 0.50);
        double p95 = quantileSorted(latenciesMs, 0.95);
        double p99 = quantileSorted(latenciesMs, 0.99);
        double throughput =
            wallSeconds > 0.0
                ? static_cast<double>(latenciesMs.size()) / wallSeconds
                : 0.0;

        if (jsonOut) {
            std::ostringstream os;
            os.precision(6);
            os << "{\n"
               << "  \"clients\": " << clients << ",\n"
               << "  \"requests_ok\": " << latenciesMs.size() << ",\n"
               << "  \"requests_failed\": " << failures.load() << ",\n"
               << "  \"overloaded\": " << overloaded.load() << ",\n"
               << "  \"wall_seconds\": " << wallSeconds << ",\n"
               << "  \"throughput_rps\": " << throughput << ",\n"
               << "  \"service_warm_p50\": " << p50 << ",\n"
               << "  \"service_warm_p95\": " << p95 << ",\n"
               << "  \"service_warm_p99\": " << p99 << "\n"
               << "}\n";
            std::cout << os.str();
        } else {
            std::cerr << "qload: " << latenciesMs.size() << " ok, "
                      << failures.load() << " failed, "
                      << overloaded.load() << " overloaded over "
                      << wallSeconds << " s (" << throughput
                      << " req/s)\n"
                      << "latency ms: p50 " << p50 << ", p95 " << p95
                      << ", p99 " << p99 << "\n";
            for (const std::string &e : errors)
                std::cerr << "  error: " << e << "\n";
        }
        return failures.load() == 0 ? 0 : 1;
    } catch (const UserError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    } catch (const Error &e) {
        std::cerr << "internal failure: " << e.what() << "\n";
        return 2;
    }
}
