/**
 * @file
 * qverify: standalone QMDD equivalence checking between circuit
 * files — the paper's formal-verification step as a tool of its own
 * (compare compiler outputs, hand edits, or third-party transpiles).
 *
 * usage: qverify [options] <a.{qasm,qc,real}> <b.{qasm,qc,real}>...
 *
 * More than two files are checked as consecutive pairs (a b c d =
 * a-vs-b and c-vs-d), optionally in parallel with --jobs; each pair
 * is checked on a QMDD package of its own, and verdicts print in
 * input order.
 *
 * Exit code 0: all equivalent; 1: any not equivalent; 2: any
 * inconclusive, or a usage/internal error.
 */

#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/fingerprint.hpp"
#include "cache/store.hpp"
#include "cli/options.hpp"
#include "common/errors.hpp"
#include "common/stopwatch.hpp"
#include "core/batch.hpp"
#include "frontend/loader.hpp"
#include "qmdd/equivalence.hpp"

namespace {

void
printHelp()
{
    std::cout
        << "qverify - QMDD formal equivalence checking\n\n"
           "usage: qverify [options] <a> <b> [<c> <d> ...]\n\n"
           "More than two files are checked as consecutive pairs;\n"
           "verdicts print in input order. Each pair is decided by a\n"
           "projected alternating miter: U_b . P . U_a^dagger is\n"
           "accumulated gate by gate and compared with P, the\n"
           "projector onto |0> of the --ancilla wires.\n\n"
           "options:\n"
           "  -j, --jobs <n>     check pairs on n worker threads\n"
           "                     (0 = one per core), each pair on a\n"
           "                     QMDD package of its own\n"
           "  --strict           require exact equality (no global "
           "phase slack)\n"
           "  --ancilla <list>   comma-separated wires required |0> at\n"
           "                     input and output (clean ancillas);\n"
           "                     if <a> acts on one, the pair is\n"
           "                     checked by two full builds instead\n"
           "  --budget <n>       node budget (0 = unlimited)\n"
           "  --no-quick-refute  skip the random-stimuli pre-check\n"
           "  --cache-dir <d>    memoize verdicts in a persistent\n"
           "                     cache directory (keyed by both\n"
           "                     circuits and every option)\n"
           "  --no-cache         ignore --cache-dir for this run\n"
           "  --trace-json <f>   write a Chrome trace-event file\n"
           "  --metrics-json <f> write a metrics snapshot\n"
           "  --metrics-prom <f> write Prometheus text exposition\n"
           "  --crash-dump <d>   arm the crash handler; a crash\n"
           "                     leaves qsyn-crash-<pid>.json in <d>\n"
           "  --log-level <l>    quiet | info | debug | trace\n"
           "  -h, --help         this text\n";
}

std::vector<qsyn::Qubit>
parseAncillaList(const std::string &text)
{
    std::vector<qsyn::Qubit> wires;
    size_t start = 0;
    while (start <= text.size()) {
        size_t comma = text.find(',', start);
        if (comma == std::string::npos)
            comma = text.size();
        std::string token = text.substr(start, comma - start);
        if (!token.empty())
            wires.push_back(static_cast<qsyn::Qubit>(
                qsyn::cli::parseCountValue("--ancilla", token)));
        start = comma + 1;
    }
    return wires;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace qsyn;
    std::vector<std::string> files;
    cli::ObsFlags obs_flags;
    std::string cache_dir;
    bool use_cache = true;
    size_t jobs = 1;
    dd::EquivalenceOptions options;
    options.quickRefuteSamples = 4;

    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw UserError("missing value for " + arg);
                return argv[++i];
            };
            if (cli::parseObsFlag(arg, next, &obs_flags))
                continue;
            if (arg == "-h" || arg == "--help") {
                printHelp();
                return 0;
            } else if (arg == "--strict") {
                options.upToGlobalPhase = false;
            } else if (arg == "--ancilla") {
                options.ancillaWires = parseAncillaList(next());
            } else if (arg == "--budget") {
                options.nodeBudget = cli::parseCountValue(arg, next());
            } else if (arg == "-j" || arg == "--jobs") {
                jobs = cli::parseCountValue(arg, next());
            } else if (arg == "--no-quick-refute") {
                options.quickRefuteSamples = 0;
            } else if (arg == "--cache-dir") {
                cache_dir = next();
            } else if (arg == "--no-cache") {
                use_cache = false;
            } else if (!arg.empty() && arg[0] == '-') {
                throw UserError("unknown option '" + arg + "'");
            } else {
                files.push_back(arg);
            }
        }
        if (files.size() < 2 || files.size() % 2 != 0)
            throw UserError(
                "expected an even number of circuit files (>= 2)");

        cli::ObsSession session(obs_flags, "qverify-main");

        /** One consecutive file pair, checked on its own package. */
        struct PairOutcome
        {
            dd::Equivalence verdict = dd::Equivalence::Inconclusive;
            bool errored = false;
            std::string errText;  // per-pair stderr, printed in order
            std::string outText;  // per-pair stdout (the verdict line)
        };
        const size_t pairs = files.size() / 2;
        std::vector<PairOutcome> outcomes(pairs);

        // Persistent verdict memoization: one byte per (pair, options)
        // fingerprint, sharing the compile cache's store machinery.
        std::unique_ptr<cache::CacheStore> verdict_cache;
        if (use_cache && !cache_dir.empty())
            verdict_cache =
                std::make_unique<cache::CacheStore>(
                    cache::StoreConfig{cache_dir, 256ull << 20});

        parallelFor(
            pairs, jobs,
            [&](size_t p) {
            PairOutcome &res = outcomes[p];
            const std::string &fa = files[2 * p];
            const std::string &fb = files[2 * p + 1];
            std::ostringstream err_os, out_os;
            try {
                Circuit a = frontend::loadCircuitFile(fa);
                Circuit b = frontend::loadCircuitFile(fb);
                err_os << fa << ": " << a.numQubits() << " qubits, "
                       << a.size() << " gates\n";
                err_os << fb << ": " << b.numQubits() << " qubits, "
                       << b.size() << " gates\n";
                Stopwatch sw;
                std::string key;
                if (verdict_cache) {
                    key = cache::equivalenceCacheKey(
                        a, b, options, cache::kCacheVersionSalt);
                    std::vector<std::uint8_t> payload;
                    if (verdict_cache->load(key, &payload) &&
                        payload.size() == 1 &&
                        payload[0] <= static_cast<std::uint8_t>(
                                          dd::Equivalence::Inconclusive)) {
                        res.verdict =
                            static_cast<dd::Equivalence>(payload[0]);
                        out_os << dd::equivalenceName(res.verdict)
                               << "\n";
                        err_os << "verdict served from cache\n";
                        res.errText = err_os.str();
                        res.outText = out_os.str();
                        return;
                    }
                }
                dd::Package pkg;
                dd::EquivalenceChecker checker(pkg);
                res.verdict = checker.check(a, b, options);
                // Per-package gauges only make sense for a single pair,
                // which runs on the main thread; trace spans from all
                // pairs are in the sink regardless.
                if (pairs == 1)
                    pkg.publishMetrics();
                out_os << dd::equivalenceName(res.verdict) << "\n";
                err_os << "checked in " << sw.seconds() << " s ("
                       << pkg.activeNodes() << " live nodes)\n";
                // Inconclusive is budget-dependent; keep it out of the
                // cache so a rerun with more budget can still decide.
                if (verdict_cache &&
                    res.verdict != dd::Equivalence::Inconclusive) {
                    verdict_cache->store(
                        key, {static_cast<std::uint8_t>(res.verdict)});
                }
            } catch (const UserError &e) {
                res.errored = true;
                err_os << "error: " << e.what() << "\n";
            } catch (const Error &e) {
                res.errored = true;
                err_os << "internal failure: " << e.what() << "\n";
            }
            res.errText = err_os.str();
            res.outText = out_os.str();
            },
            "qverify-worker");

        bool any_not_equivalent = false;
        bool any_inconclusive = false;
        for (const PairOutcome &res : outcomes) {
            std::cerr << res.errText;
            std::cout << res.outText;
            if (res.verdict == dd::Equivalence::NotEquivalent)
                any_not_equivalent = true;
            else if (res.errored || !dd::isEquivalent(res.verdict))
                any_inconclusive = true;
        }
        session.writeFiles(std::cerr);

        if (any_not_equivalent)
            return 1;
        return any_inconclusive ? 2 : 0;
    } catch (const UserError &e) {
        std::cerr << "error: " << e.what() << "\n";
        printHelp();
        return 2;
    } catch (const Error &e) {
        std::cerr << "internal failure: " << e.what() << "\n";
        return 2;
    }
}
