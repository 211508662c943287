#include "check/fuzzer.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <sstream>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "device/registry.hpp"
#include "ir/random_circuit.hpp"
#include "obs/obs.hpp"

namespace qsyn::check {

bool
FuzzSummary::oracleExercised(OracleId id) const
{
    return std::find(oraclesExercised.begin(), oraclesExercised.end(),
                     id) != oraclesExercised.end();
}

size_t
FuzzSummary::smallestFailureGates() const
{
    size_t best = static_cast<size_t>(-1);
    for (const FuzzFailure &f : failures)
        best = std::min(best, f.shrunkGates);
    return best;
}

namespace {

/** splitmix64 step, for deriving per-case seeds from the master. */
std::uint64_t
deriveSeed(std::uint64_t master, std::uint64_t index)
{
    std::uint64_t z = master + (index + 1) * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Random connected device: a random spanning tree over `n` qubits
 * (guaranteeing connectivity), each edge in a random direction, plus a
 * few extra random couplings. Mirrors the sparse, directed style of
 * the paper's Table 2 machines.
 */
Device
randomDevice(Rng &rng, Qubit n, std::uint64_t case_seed)
{
    CouplingMap map(n);
    for (Qubit q = 1; q < n; ++q) {
        Qubit other = static_cast<Qubit>(rng.below(q));
        if (rng.chance(0.5))
            map.addEdge(other, q);
        else
            map.addEdge(q, other);
    }
    size_t extras = rng.below(n);
    for (size_t e = 0; e < extras; ++e) {
        Qubit a = static_cast<Qubit>(rng.below(n));
        Qubit b = static_cast<Qubit>(rng.below(n));
        if (a != b)
            map.addEdge(a, b);
    }
    std::ostringstream name;
    name << "fuzz_dev_" << std::hex << case_seed;
    return Device(name.str(), n, map);
}

/** One generated fuzz case. */
struct FuzzCase
{
    Circuit circuit{0};
    Device device = Device::simulator(1);
    CompileOptions options;
    RandomCircuitOptions gen;
};

FuzzCase
generateCase(Rng &rng, const FuzzOptions &opts, std::uint64_t case_seed)
{
    FuzzCase fc;

    // Half the cases target a random connected device, half a
    // built-in machine.
    if (rng.chance(0.5)) {
        Qubit lo = 3;
        Qubit hi = std::max<Qubit>(
            lo, std::min<Qubit>(8, opts.maxQubits + 2));
        Qubit n = static_cast<Qubit>(lo + rng.below(hi - lo + 1));
        fc.device = randomDevice(rng, n, case_seed);
    } else {
        // Mostly the sparse 5-qubit machines (every oracle applies);
        // occasionally the 14-qubit Melbourne, where the statevector
        // oracle steps aside and the rest carry the case.
        double pick = rng.uniform();
        if (pick < 0.45)
            fc.device = makeIbmqx4();
        else if (pick < 0.9)
            fc.device = makeIbmqx2();
        else
            fc.device = makeIbmq16();
    }

    Qubit width_cap =
        std::min<Qubit>(fc.device.numQubits(), opts.maxQubits);
    fc.gen.numQubits =
        static_cast<Qubit>(2 + rng.below(std::max<Qubit>(width_cap, 3) - 1));
    fc.gen.numGates = 1 + rng.below(opts.maxGates);
    fc.gen.cnotFraction = 0.3 + 0.4 * rng.uniform();
    fc.gen.maxControls = fc.gen.numQubits >= 3 && rng.chance(0.4) ? 2 : 1;
    fc.gen.allowRotations = rng.chance(0.3);
    fc.gen.gateSet = static_cast<RandomGateSet>(rng.below(3));
    fc.gen.seed = case_seed;
    if (opts.injectSwapBackFault &&
        fc.gen.gateSet == RandomGateSet::CliffordT && rng.chance(0.5)) {
        // Bias the fault runs toward CNOT-heavy inputs: the planted
        // bug only fires when the router actually reroutes.
        fc.gen.gateSet = RandomGateSet::CnotOnly;
    }
    fc.circuit = randomCircuit(fc.gen);

    fc.options.placement = rng.chance(0.5)
                               ? route::PlacementStrategy::Greedy
                               : route::PlacementStrategy::Identity;
    // Skip the router draw on fault runs (it is pinned below anyway):
    // the fault sweep's case stream must stay CNOT-heavy enough for
    // the planted bug to fire.
    if (!opts.injectSwapBackFault) {
        fc.options.routing.router = rng.chance(0.35)
                                        ? route::RouterKind::Sabre
                                        : route::RouterKind::Ctr;
    }
    fc.options.routing.fidelityAware = rng.chance(0.15);
    fc.options.optimizer.enablePhasePolynomial = rng.chance(0.25);
    fc.options.optimizeTechIndependent = rng.chance(0.85);
    if (rng.chance(0.2)) {
        const decompose::McxStrategy strategies[] = {
            decompose::McxStrategy::CleanVChain,
            decompose::McxStrategy::DirtyVChain,
            decompose::McxStrategy::Split,
            decompose::McxStrategy::Roots,
        };
        fc.options.mcxStrategy = strategies[rng.below(4)];
    }
    if (opts.injectSwapBackFault) {
        fc.options.routing.testOmitSwapBack = true;
        // The planted fault lives in CTR's swap-back half; the router
        // stays at its Ctr default so the smoke gate always has the
        // bug to catch (the sabre leg of the router differential
        // oracle clears the fault flag and catches it from the other
        // side).
    }
    return fc;
}

std::string
describeCase(size_t iteration, std::uint64_t case_seed,
             const FuzzCase &fc)
{
    std::ostringstream os;
    os << "case " << iteration << " seed 0x" << std::hex << case_seed
       << std::dec << ": " << randomGateSetName(fc.gen.gateSet) << " "
       << fc.gen.numQubits << "q/" << fc.circuit.size() << "g on "
       << fc.device.name() << " (" << fc.device.numQubits() << "q)";
    return os.str();
}

} // namespace

FuzzSummary
runFuzzer(const FuzzOptions &opts, std::ostream &log)
{
    obs::Span span("check.fuzz", "check");
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    auto elapsed = [&]() {
        return std::chrono::duration<double>(Clock::now() - start)
            .count();
    };

    FuzzSummary summary;
    auto noteOracles = [&](const OracleReport &report) {
        for (const OracleOutcome &o : report.outcomes) {
            if (!o.skipped && !summary.oracleExercised(o.id))
                summary.oraclesExercised.push_back(o.id);
        }
    };

    for (size_t i = 0;; ++i) {
        if (opts.iterations > 0 && i >= opts.iterations)
            break;
        if (opts.timeBudgetSeconds > 0 &&
            elapsed() >= opts.timeBudgetSeconds) {
            log << "[qfuzz] time budget reached after " << i
                << " case(s)\n";
            break;
        }
        std::uint64_t case_seed = deriveSeed(opts.seed, i);
        Rng rng(case_seed);
        FuzzCase fc = generateCase(rng, opts, case_seed);
        ++summary.casesRun;

        CaseOutcome outcome =
            runCase(fc.circuit, fc.device, fc.options, opts.oracle);
        noteOracles(outcome.report);

        if (outcome.status == CaseStatus::Ok) {
            ++summary.casesPassed;
            if (opts.verbose)
                log << "[qfuzz] " << describeCase(i, case_seed, fc)
                    << " -> ok\n";
            continue;
        }
        if (outcome.status == CaseStatus::Rejected) {
            ++summary.casesRejected;
            if (opts.verbose)
                log << "[qfuzz] " << describeCase(i, case_seed, fc)
                    << " -> rejected (" << outcome.error << ")\n";
            continue;
        }

        FuzzFailure failure;
        failure.iteration = i;
        failure.caseSeed = case_seed;
        if (const OracleOutcome *first = outcome.report.firstFailure()) {
            failure.oracle = oracleName(first->id);
            failure.details = first->details;
        } else {
            failure.oracle = "compile-error";
            failure.details = outcome.error;
        }
        log << "[qfuzz] FAILURE " << describeCase(i, case_seed, fc)
            << "\n[qfuzz]   oracle: " << failure.oracle << " — "
            << failure.details << "\n";

        log << "[qfuzz]   shrinking (budget " << opts.shrinkBudget
            << " evaluations)...\n";
        ShrinkResult shrunk =
            shrinkCase(fc.circuit, fc.device, fc.options, opts.oracle,
                       opts.shrinkBudget);
        failure.shrunkGates = shrunk.circuit.size();
        failure.shrunkQubits = shrunk.circuit.numQubits();
        log << "[qfuzz]   shrunk to " << failure.shrunkGates
            << " gate(s) on " << static_cast<int>(failure.shrunkQubits)
            << " qubit(s) (" << shrunk.evaluations << " evaluations, "
            << shrunk.flagsReset << " flag(s) reset)\n";

        if (outcome.status == CaseStatus::OracleFailed) {
            try {
                failure.blame = blameFirstBrokenStage(
                    shrunk.circuit, fc.device, shrunk.options);
            } catch (const Error &e) {
                failure.blame = std::string("blame failed: ") + e.what();
            }
            log << "[qfuzz]   blame: " << failure.blame << "\n";
        }

        if (!opts.corpusDir.empty()) {
            Reproducer repro;
            std::ostringstream name;
            name << failure.oracle << "-s" << std::hex << case_seed;
            repro.name = name.str();
            repro.circuit = shrunk.circuit;
            repro.device = fc.device;
            repro.options = shrunk.options;
            repro.notes.push_back("oracle: " + failure.oracle);
            repro.notes.push_back("detail: " + failure.details);
            if (!failure.blame.empty())
                repro.notes.push_back("blame: " + failure.blame);
            std::ostringstream seed_note;
            seed_note << "fuzz seed: master 0x" << std::hex << opts.seed
                      << " case 0x" << case_seed;
            repro.notes.push_back(seed_note.str());
            failure.savedTo = saveReproducer(opts.corpusDir, repro);
            log << "[qfuzz]   saved " << failure.savedTo << "\n";
        }
        summary.failures.push_back(std::move(failure));
    }

    summary.wallSeconds = elapsed();
    log << "[qfuzz] " << summary.casesRun << " case(s): "
        << summary.casesPassed << " ok, " << summary.casesRejected
        << " rejected, " << summary.failures.size() << " failure(s) in "
        << summary.wallSeconds << " s\n";
    std::ostringstream oracles;
    for (OracleId id : summary.oraclesExercised)
        oracles << " " << oracleName(id);
    log << "[qfuzz] oracles exercised:" << oracles.str() << "\n";
    return summary;
}

std::vector<std::string>
replayCorpus(const std::string &corpus_dir, const OracleOptions &opts,
             std::ostream &log)
{
    std::vector<std::string> failing;
    std::vector<std::string> entries = listCorpus(corpus_dir);
    log << "[qfuzz] replaying " << entries.size() << " corpus entr"
        << (entries.size() == 1 ? "y" : "ies") << " from "
        << corpus_dir << "\n";
    for (const std::string &entry : entries) {
        std::string verdict;
        try {
            Reproducer repro = loadReproducer(entry);
            CaseOutcome outcome = replayReproducer(repro, opts);
            if (outcome.status == CaseStatus::Ok) {
                verdict = "ok";
            } else if (outcome.status == CaseStatus::Rejected) {
                verdict = "rejected: " + outcome.error;
                failing.push_back(entry);
            } else if (const OracleOutcome *first =
                           outcome.report.firstFailure()) {
                verdict = std::string("FAIL ") + oracleName(first->id) +
                          " — " + first->details;
                failing.push_back(entry);
            } else {
                verdict = "FAIL " + outcome.error;
                failing.push_back(entry);
            }
        } catch (const Error &e) {
            verdict = std::string("unloadable: ") + e.what();
            failing.push_back(entry);
        }
        log << "[qfuzz]   " << entry << ": " << verdict << "\n";
    }
    return failing;
}

} // namespace qsyn::check
