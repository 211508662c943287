/**
 * @file
 * The lint rules: statically detectable defects in a circuit, judged
 * against an optional target device and ancilla contract.
 *
 * Rule catalog (IDs are stable; see diagnostics.hpp):
 *
 *   QL001 gate-not-in-library      device gate-set illegality
 *   QL002 connectivity-violation   CNOT off (or against) a coupling edge
 *   QL003 dead-qubit               declared wire no gate ever touches
 *   QL004 dead-gate-pair           inverse pair with only commuting
 *                                  gates between — removable, however
 *                                  far apart (no peephole window)
 *   QL005 ancilla-not-restored     ancilla wire not provably |0> at end
 *   QL006 exceeds-device-capacity  circuit wider than the device
 *
 * Device rules (QL001/QL002/QL006) run only when a device is given;
 * QL005 only when an ancilla contract is given. QL004 reuses the
 * optimizer's commutation-aware cancellation relation but scans the
 * whole circuit (the optimizer stops at a 256-gate horizon), so a
 * finding means "the optimizer at fixpoint would have removed this" —
 * which is why compiled output must be QL004-clean, the invariant
 * qfuzz enforces.
 */

#pragma once

#include <string>
#include <vector>

#include "analysis/dataflow.hpp"
#include "analysis/diagnostics.hpp"
#include "device/device.hpp"

namespace qsyn::analysis {

/** What to lint against. */
struct LintOptions
{
    /** Target device; null disables QL001/QL002/QL006. Not owned —
     *  must outlive the lint call. */
    const Device *device = nullptr;
    /** Wires that must be returned to |0> (enables QL005). */
    std::vector<Qubit> ancillas;
    /** When non-empty, only these rule IDs may fire. */
    std::vector<std::string> onlyRules;
    /** Rule IDs that must not fire (applied after onlyRules). */
    std::vector<std::string> disabledRules;

    bool ruleEnabled(const char *rule_id) const;
};

/**
 * Run every applicable rule over an analyzed circuit. Findings are
 * ordered by rule, then by gate index. The DAG and dataflow must have
 * been built from the same circuit.
 */
std::vector<Finding> lintCircuit(const DependencyDag &dag,
                                 const DataflowAnalysis &dataflow,
                                 const LintOptions &options);

/**
 * Convenience one-shot: build the DAG and dataflow for `circuit`,
 * lint it, and return the full Diagnostics (metrics included).
 * `artifact` names the input in reports (file path or circuit name).
 */
Diagnostics analyzeCircuit(const Circuit &circuit,
                           const std::string &artifact,
                           const LintOptions &options = {});

/**
 * The cancellable-pair scan behind QL004, exposed for QL005 and for
 * tests: the optimizer's opt::findInversePairs with no horizon.
 * Returns pairs (i, j), i < j, in ascending order, such that removing
 * all pairs leaves no further cancellable pair (the optimizer's
 * fixpoint), and fills `removed` (sized to the circuit) with the union
 * of all pair members.
 */
std::vector<std::pair<size_t, size_t>>
findCancellablePairs(const Circuit &circuit, std::vector<bool> *removed);

} // namespace qsyn::analysis
