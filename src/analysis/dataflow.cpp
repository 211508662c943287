#include "analysis/dataflow.hpp"

#include <algorithm>

namespace qsyn::analysis {

namespace {

/** True when `q` is state-changing for `gate` (a target, or either
 *  wire of a Swap; controls and barrier wires are not). */
bool
isTargetWire(const Gate &gate, Qubit q)
{
    if (gate.kind() == GateKind::Barrier)
        return false;
    for (Qubit t : gate.targets()) {
        if (t == q)
            return true;
    }
    return false;
}

} // namespace

DataflowAnalysis::DataflowAnalysis(const DependencyDag &dag)
    : dag_(&dag), wires_(dag.circuit().numQubits())
{
    const Circuit &circuit = dag.circuit();
    for (size_t i = 0; i < circuit.size(); ++i) {
        const Gate &g = circuit[i];
        if (g.kind() == GateKind::Barrier)
            continue; // fences order but neither uses nor defines
        for (Qubit q : g.qubits()) {
            WireFacts &w = wires_[q];
            w.uses.push_back(i);
            if (isTargetWire(g, q))
                w.targetUses.push_back(i);
            if (w.firstUse == kNoGate)
                w.firstUse = i;
            w.lastUse = i;
        }
    }
    // Idle layers: live span in layers minus layers actually occupied.
    // The span comes from the occupied layers themselves, not from the
    // first and last use: a later gate that commutes with the ones
    // before it on the wire can sit in an earlier layer.
    for (WireFacts &w : wires_) {
        if (w.uses.empty())
            continue;
        std::vector<size_t> occupied;
        occupied.reserve(w.uses.size());
        for (size_t i : w.uses)
            occupied.push_back(dag.node(i).asapLayer);
        std::sort(occupied.begin(), occupied.end());
        occupied.erase(std::unique(occupied.begin(), occupied.end()),
                       occupied.end());
        w.idleLayers =
            (occupied.back() - occupied.front() + 1) - occupied.size();
    }
}

std::vector<Qubit>
DataflowAnalysis::deadWires() const
{
    std::vector<Qubit> dead;
    for (Qubit q = 0; q < numWires(); ++q) {
        if (wires_[q].dead())
            dead.push_back(q);
    }
    return dead;
}

bool
DataflowAnalysis::liveAt(Qubit q, size_t layer) const
{
    const WireFacts &w = wires_[q];
    if (w.dead())
        return false;
    size_t lo = dag_->node(w.firstUse).asapLayer;
    size_t hi = lo;
    for (size_t i : w.uses) {
        lo = std::min(lo, dag_->node(i).asapLayer);
        hi = std::max(hi, dag_->node(i).asapLayer);
    }
    return layer >= lo && layer <= hi;
}

size_t
DataflowAnalysis::idleWireLayers() const
{
    size_t total = 0;
    for (const WireFacts &w : wires_)
        total += w.idleLayers;
    return total;
}

bool
DataflowAnalysis::reaches(size_t from, size_t to) const
{
    if (from == to)
        return true;
    if (from > to)
        return false; // edges always point at larger indices
    std::vector<bool> seen(dag_->size(), false);
    std::vector<size_t> stack{from};
    seen[from] = true;
    while (!stack.empty()) {
        size_t cur = stack.back();
        stack.pop_back();
        for (size_t s : dag_->succs(cur)) {
            if (s == to)
                return true;
            if (s < to && !seen[s]) {
                seen[s] = true;
                stack.push_back(s);
            }
        }
    }
    return false;
}

std::vector<size_t>
DataflowAnalysis::reachableFrom(size_t from) const
{
    std::vector<bool> seen(dag_->size(), false);
    std::vector<size_t> stack{from};
    seen[from] = true;
    while (!stack.empty()) {
        size_t cur = stack.back();
        stack.pop_back();
        for (size_t s : dag_->succs(cur)) {
            if (!seen[s]) {
                seen[s] = true;
                stack.push_back(s);
            }
        }
    }
    std::vector<size_t> out;
    for (size_t i = 0; i < seen.size(); ++i) {
        if (seen[i])
            out.push_back(i);
    }
    return out;
}

} // namespace qsyn::analysis
