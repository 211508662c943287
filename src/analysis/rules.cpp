#include "analysis/rules.hpp"

#include <algorithm>
#include <sstream>

#include "opt/passes.hpp"

namespace qsyn::analysis {

namespace {

bool
containsId(const std::vector<std::string> &ids, const char *rule_id)
{
    return std::find(ids.begin(), ids.end(), rule_id) != ids.end();
}

Finding
makeFinding(const char *rule_id, std::string message,
            size_t gate_index = kNoGate,
            Qubit wire = Finding::kNoWire)
{
    Finding f;
    f.ruleId = rule_id;
    const RuleInfo *rule = findRule(f.ruleId);
    f.severity = rule ? rule->defaultSeverity : Severity::Warning;
    f.message = std::move(message);
    f.gateIndex = gate_index;
    f.wire = wire;
    return f;
}

/** QL006 — and whether per-gate device rules should run at all. */
bool
checkCapacity(const Circuit &circuit, const Device &device,
              const LintOptions &options, std::vector<Finding> &out)
{
    if (circuit.numQubits() <= device.numQubits())
        return true;
    if (options.ruleEnabled("QL006")) {
        std::ostringstream os;
        os << "circuit uses " << circuit.numQubits()
           << " qubits but device '" << device.name() << "' has only "
           << device.numQubits();
        out.push_back(makeFinding("QL006", os.str()));
    }
    // Per-gate placement checks against a too-small device would just
    // repeat the capacity finding gate by gate.
    return false;
}

void
checkDeviceLegality(const Circuit &circuit, const Device &device,
                    const LintOptions &options, std::vector<Finding> &out)
{
    bool check_library = options.ruleEnabled("QL001");
    bool check_coupling = options.ruleEnabled("QL002");
    if (!check_library && !check_coupling)
        return;
    for (size_t i = 0; i < circuit.size(); ++i) {
        const Gate &g = circuit[i];
        if (g.kind() == GateKind::Barrier)
            continue; // scheduling directive, not an executed operation
        if (!Device::inNativeLibrary(g.kind(), g.numControls())) {
            if (check_library) {
                std::ostringstream os;
                os << g.toString() << " is not in device '"
                   << device.name() << "' native gate library";
                out.push_back(makeFinding("QL001", os.str(), i));
            }
            continue; // placement of a non-native gate is moot
        }
        if (check_coupling && !device.supportsGate(g)) {
            std::ostringstream os;
            os << g.toString() << " uses coupling (q"
               << g.controls().front() << " -> q" << g.target()
               << ") absent from device '" << device.name() << "'";
            out.push_back(makeFinding("QL002", os.str(), i,
                                      g.controls().front()));
        }
    }
}

void
checkDeadWires(const DataflowAnalysis &dataflow,
               const LintOptions &options, std::vector<Finding> &out)
{
    if (!options.ruleEnabled("QL003"))
        return;
    for (Qubit q : dataflow.deadWires()) {
        std::ostringstream os;
        os << "qubit q" << q << " is declared but never used";
        out.push_back(makeFinding("QL003", os.str(), kNoGate, q));
    }
}

void
checkDeadPairs(const Circuit &circuit, const LintOptions &options,
               std::vector<Finding> &out)
{
    if (!options.ruleEnabled("QL004"))
        return;
    for (auto [i, j] : findCancellablePairs(circuit, nullptr)) {
        std::ostringstream os;
        os << circuit[i].toString() << " cancels with its inverse at gate "
           << j << " (every gate between them commutes)";
        Finding f = makeFinding("QL004", os.str(), i);
        f.relatedGates.push_back(j);
        out.push_back(f);
    }
}

void
checkAncillas(const Circuit &circuit, const LintOptions &options,
              std::vector<Finding> &out)
{
    if (options.ancillas.empty() || !options.ruleEnabled("QL005"))
        return;
    // After cancelling every removable inverse pair, an ancilla wire
    // that is still *targeted* by a surviving gate may end away from
    // |0>. Control-only use is fine: controls never change the wire.
    std::vector<bool> removed;
    findCancellablePairs(circuit, &removed);
    for (Qubit anc : options.ancillas) {
        if (anc >= circuit.numQubits())
            continue;
        size_t first_offender = kNoGate;
        for (size_t i = 0; i < circuit.size(); ++i) {
            if (removed[i])
                continue;
            const Gate &g = circuit[i];
            if (g.kind() == GateKind::Barrier)
                continue;
            for (Qubit t : g.targets()) {
                if (t == anc) {
                    if (first_offender == kNoGate)
                        first_offender = i;
                    break;
                }
            }
        }
        if (first_offender != kNoGate) {
            std::ostringstream os;
            os << "ancilla q" << anc << " is targeted by surviving gates "
               << "(first at gate " << first_offender
               << ") and may not be restored to |0>";
            out.push_back(makeFinding("QL005", os.str(), first_offender,
                                      anc));
        }
    }
}

} // namespace

bool
LintOptions::ruleEnabled(const char *rule_id) const
{
    if (!onlyRules.empty() && !containsId(onlyRules, rule_id))
        return false;
    return !containsId(disabledRules, rule_id);
}

std::vector<std::pair<size_t, size_t>>
findCancellablePairs(const Circuit &circuit, std::vector<bool> *removed_out)
{
    // The optimizer's cancellation scan with no horizon: pairs found
    // here are exactly the gates the optimizer would delete given an
    // unbounded peephole window.
    std::vector<std::pair<size_t, size_t>> pairs =
        opt::findInversePairs(circuit, opt::kNoHorizon);
    if (removed_out) {
        removed_out->assign(circuit.size(), false);
        for (auto [i, j] : pairs)
            (*removed_out)[i] = (*removed_out)[j] = true;
    }
    std::sort(pairs.begin(), pairs.end());
    return pairs;
}

std::vector<Finding>
lintCircuit(const DependencyDag &dag, const DataflowAnalysis &dataflow,
            const LintOptions &options)
{
    const Circuit &circuit = dag.circuit();
    std::vector<Finding> findings;
    if (options.device) {
        if (checkCapacity(circuit, *options.device, options, findings))
            checkDeviceLegality(circuit, *options.device, options,
                                findings);
    }
    checkDeadWires(dataflow, options, findings);
    checkDeadPairs(circuit, options, findings);
    checkAncillas(circuit, options, findings);
    // Stable order: by rule ID, then gate index, then wire.
    std::stable_sort(findings.begin(), findings.end(),
                     [](const Finding &a, const Finding &b) {
                         if (a.ruleId != b.ruleId)
                             return a.ruleId < b.ruleId;
                         if (a.gateIndex != b.gateIndex)
                             return a.gateIndex < b.gateIndex;
                         return a.wire < b.wire;
                     });
    return findings;
}

Diagnostics
analyzeCircuit(const Circuit &circuit, const std::string &artifact,
               const LintOptions &options)
{
    DependencyDag dag(circuit);
    DataflowAnalysis dataflow(dag);
    Diagnostics report;
    report.artifact = artifact;
    report.metrics = computeDagMetrics(dag);
    report.findings = lintCircuit(dag, dataflow, options);
    return report;
}

} // namespace qsyn::analysis
