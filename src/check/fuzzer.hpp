/**
 * @file
 * The differential fuzzing loop behind tools/qfuzz: generate a seeded
 * random (circuit, device, flags) case, push it through the full
 * compile pipeline, judge the result with the oracle stack, and shrink
 * anything that fails to a minimal on-disk reproducer.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "check/corpus.hpp"
#include "check/oracles.hpp"
#include "check/shrink.hpp"

namespace qsyn::check {

/** Configuration of one fuzzing run. */
struct FuzzOptions
{
    /** Master seed; every case derives its own sub-seed from it, so a
     *  run is reproducible from (seed, iteration index) alone. */
    std::uint64_t seed = 1;
    /** Cases to run (0 = until the time budget expires). */
    size_t iterations = 100;
    /** Wall-clock box in seconds (0 = unbounded). */
    double timeBudgetSeconds = 0.0;
    /** Input circuit size caps. */
    Qubit maxQubits = 6;
    size_t maxGates = 32;
    /** Force the hidden CTR swap-back fault into every case (the
     *  deliberate bug --smoke proves the oracle stack catches). */
    bool injectSwapBackFault = false;
    /** Save shrunk reproducers here; empty = report only. */
    std::string corpusDir;
    /** Oracle tuning, shared by every case and the shrinker. */
    OracleOptions oracle;
    /** Predicate-evaluation budget per shrink. */
    size_t shrinkBudget = 300;
    /** Log every case (not just failures). */
    bool verbose = false;
};

/** One caught-and-shrunk failure. */
struct FuzzFailure
{
    size_t iteration = 0;
    std::uint64_t caseSeed = 0;
    /** "qmdd", "statevector", ... or "compile-error". */
    std::string oracle;
    /** Oracle evidence or exception text. */
    std::string details;
    /** Stage blame ("route", "optimize:cancellation", ...). */
    std::string blame;
    /** Shrunk reproducer statistics. */
    size_t shrunkGates = 0;
    Qubit shrunkQubits = 0;
    /** Corpus entry path, when corpusDir was set. */
    std::string savedTo;
};

/** Aggregate result of a fuzzing run. */
struct FuzzSummary
{
    size_t casesRun = 0;
    size_t casesPassed = 0;
    /** Inputs the compiler legitimately refused (UserError). */
    size_t casesRejected = 0;
    std::vector<FuzzFailure> failures;
    /** Oracles that produced at least one non-skipped verdict. */
    std::vector<OracleId> oraclesExercised;
    double wallSeconds = 0.0;

    bool clean() const { return failures.empty(); }
    bool oracleExercised(OracleId id) const;
    /** Smallest shrunk reproducer across failures (SIZE_MAX = none). */
    size_t smallestFailureGates() const;
};

/**
 * Run the fuzzing loop. Progress and failure reports go to `log`
 * (pass std::cerr from tools; a stringstream from tests).
 */
FuzzSummary runFuzzer(const FuzzOptions &opts, std::ostream &log);

/**
 * Replay every corpus entry under `corpus_dir` through the oracle
 * stack; logs one line per entry. Returns the paths of entries that
 * did NOT replay green (empty = corpus healthy).
 */
std::vector<std::string> replayCorpus(const std::string &corpus_dir,
                                      const OracleOptions &opts,
                                      std::ostream &log);

} // namespace qsyn::check
