/**
 * @file
 * Pluggable correctness oracles over a CompileResult — the reusable
 * heart of the differential-testing subsystem. Each oracle checks one
 * property the paper's pipeline promises:
 *
 *   qmdd         — input and output represent the same unitary
 *                  (QMDD canonical-form equivalence, ancillas |0>);
 *   statevector  — same claim, cross-checked on random product states
 *                  with the dense simulator (<= 10-qubit targets), an
 *                  oracle with an independent failure mode;
 *   legality     — every emitted gate is native to the target Device:
 *                  basis-library membership and correctly oriented
 *                  coupling edges for every CNOT;
 *   cost         — the optimizer never raised the Eqn. 2 cost and all
 *                  reported stage metrics match the actual circuits;
 *   determinism  — byte-identical QASM across repeated compiles and
 *                  across batch worker counts;
 *   cache        — a compile served from the compile cache is
 *                  byte-identical to a cold recompile (QASM, and the
 *                  report JSON less timings and QMDD counters), and
 *                  the artifact codec round-trips exactly;
 *   lint         — the static analyzer finds nothing wrong with the
 *                  emitted circuit: no non-native gates, no coupling
 *                  violations, and (when the optimizer ran) no
 *                  removable inverse pair the optimizer missed;
 *   router       — the ctr and sabre routing strategies produce
 *                  QMDD-equivalent circuits from the same placed
 *                  input (both restore the identity layout, so their
 *                  unitaries must agree exactly).
 *
 * Oracles are pure observers: they never mutate the result and each
 * builds its own QMDD package, so they compose with any compile the
 * fuzzer, the corpus replayer, or a unit test performs.
 */

#pragma once

#include <string>
#include <vector>

#include "core/compiler.hpp"

namespace qsyn::check {

/** Identity of one oracle in the stack. */
enum class OracleId
{
    QmddEquivalence,
    Statevector,
    Legality,
    CostSanity,
    Determinism,
    CacheConsistency,
    LintClean,
    RouterDifferential
};

/** Stable short name ("qmdd", "statevector", "legality", "cost",
 *  "determinism", "cache", "lint", "router"). */
const char *oracleName(OracleId id);

/** Which of the recompiling oracles runAllOracles includes. */
struct OracleOptions
{
    /** Run the (recompiling, comparatively expensive) determinism
     *  oracle as part of runAllOracles. */
    bool runDeterminism = true;
    /** Run the (also recompiling) cache-consistency oracle as part of
     *  runAllOracles. */
    bool runCache = true;
};

/** Verdict of one oracle on one compile. */
struct OracleOutcome
{
    OracleId id = OracleId::QmddEquivalence;
    bool passed = true;
    /** True when the oracle could not apply (too wide, budget out);
     *  skipped outcomes never fail. */
    bool skipped = false;
    /** Human-readable evidence (counterexample, mismatching numbers). */
    std::string details;
};

/** All oracle verdicts for one compile. */
struct OracleReport
{
    std::vector<OracleOutcome> outcomes;

    bool allPassed() const;
    /** First failing outcome, or null when green. */
    const OracleOutcome *firstFailure() const;
    /** One line per oracle: "qmdd: ok", "legality: FAIL (...)". */
    std::string summary() const;
};

/** @name Individual oracles.
 * The QMDD checks (qmdd, router) give up past 2^20 live nodes with a
 * skipped outcome; the statevector oracle pushes 4 seeded random
 * product states through registers of at most 10 qubits; the
 * determinism oracle recompiles once and batches under 1, 4 and 8
 * workers.
 */
/// @{
OracleOutcome checkQmddEquivalence(const CompileResult &result,
                                   const Device &device);
OracleOutcome checkStatevector(const CompileResult &result,
                               const Device &device);
OracleOutcome checkLegality(const CompileResult &result,
                            const Device &device);
OracleOutcome checkCostSanity(const CompileResult &result,
                              const CompileOptions &options);
OracleOutcome checkDeterminism(const Circuit &input, const Device &device,
                               const CompileOptions &options);
/**
 * A cache hit returns the cold compile's bytes, the artifact codec
 * round-trips the full report, and the cached report renders like a
 * cold recompile's in ReportOptions::deterministic() form (timings and
 * QMDD counters are measurements of one run, not cacheable content).
 */
OracleOutcome checkCacheConsistency(const Circuit &input,
                                    const Device &device,
                                    const CompileOptions &options);
/**
 * The compiled circuit must be qlint-clean for the legality,
 * connectivity, and capacity rules (QL001/QL002/QL006); when
 * `options.optimize` is on, additionally for dead-gate pairs (QL004) —
 * an unbounded-horizon finding there means the optimizer left
 * removable gates behind. Dead-qubit and ancilla rules are exempt:
 * mapped circuits legitimately span the whole device register.
 */
OracleOutcome checkLintClean(const CompileResult &result,
                             const Device &device,
                             const CompileOptions &options);
/**
 * Route the placed circuit once with each strategy (ctr and sabre,
 * inheriting every other routing option) and require the two outputs
 * to be QMDD-equivalent as full unitaries. Skipped on fully connected
 * targets (routing is the identity there) and non-unitary inputs.
 * Catches any strategy whose layout bookkeeping or restoration
 * epilogue silently changes the computation — including the planted
 * `--test-omit-swap-back` fault, which breaks ctr but not sabre.
 */
OracleOutcome checkRouterDifferential(const CompileResult &result,
                                      const Device &device,
                                      const CompileOptions &options);
/// @}

/**
 * Compile `input` for `device` (verification forced Off — the oracles
 * re-verify themselves) and run the full oracle stack on the result.
 * Compile-time exceptions propagate; see runCase for a throw-absorbing
 * wrapper.
 */
OracleReport runAllOracles(const Circuit &input, const Device &device,
                           const CompileOptions &options,
                           const OracleOptions &opts = {});

/** How one fuzz/replay case ended. */
enum class CaseStatus
{
    Ok,           ///< compiled and every oracle passed
    OracleFailed, ///< compiled but at least one oracle failed
    Rejected,     ///< compiler refused the input (UserError) — not a bug
    CompileError  ///< internal error / verifier exception — a bug
};

/** Outcome of runCase: status + the oracle report when one exists. */
struct CaseOutcome
{
    CaseStatus status = CaseStatus::Ok;
    OracleReport report;
    std::string error; ///< exception text for Rejected / CompileError

    /** True for the two bug-indicating statuses. */
    bool
    failed() const
    {
        return status == CaseStatus::OracleFailed ||
               status == CaseStatus::CompileError;
    }
};

/**
 * runAllOracles with every exception folded into the outcome: the
 * fuzzer's and shrinker's single evaluation point.
 */
CaseOutcome runCase(const Circuit &input, const Device &device,
                    const CompileOptions &options,
                    const OracleOptions &opts = {});

} // namespace qsyn::check
