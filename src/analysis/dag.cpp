#include "analysis/dag.hpp"

#include <algorithm>
#include <sstream>

#include "common/errors.hpp"
#include "common/rng.hpp"

namespace qsyn::analysis {

namespace {

/** Call `fn(q)` for each wire a gate occupies for dependency
 *  purposes: its controls and targets, except a barrier, which fences
 *  the whole register. */
template <typename Fn>
void
forEachDependencyWire(const Gate &gate, Qubit num_qubits, Fn &&fn)
{
    if (gate.kind() == GateKind::Barrier) {
        for (Qubit q = 0; q < num_qubits; ++q)
            fn(q);
        return;
    }
    for (Qubit q : gate.controls())
        fn(q);
    for (Qubit q : gate.targets())
        fn(q);
}

/** Commutation test used for block membership: only unitary gates
 *  ever commute here — Measure and Barrier fence unconditionally. */
bool
blockCommutes(const Gate &a, const Gate &b)
{
    if (!a.isUnitary() || !b.isUnitary())
        return false;
    return a.commutesWith(b);
}

/**
 * The block rule, shared by the DAG and the depth sweep: `gate`
 * closes a wire's current `block` (which becomes the previous block,
 * the one the new block depends on) unless the block is empty or,
 * commutation-aware, the gate commutes with every member.
 */
bool
closesBlock(const Circuit &circuit, const std::vector<size_t> &block,
            const Gate &gate, bool commutation_aware)
{
    if (block.empty())
        return false;
    if (!commutation_aware)
        return true;
    for (size_t member : block) {
        if (!blockCommutes(circuit[member], gate))
            return true;
    }
    return false;
}

} // namespace

DependencyDag::DependencyDag(const Circuit &circuit, DagOptions options)
    : circuit_(&circuit), options_(options), nodes_(circuit.size())
{
    const Qubit width = circuit.numQubits();
    // Per-wire block state: the previous block (every new block member
    // depends on all of it) and the current trailing block of gates
    // that pairwise commute on this wire.
    std::vector<std::vector<size_t>> prev_block(width);
    std::vector<std::vector<size_t>> cur_block(width);

    auto addEdge = [&](size_t from, size_t to) {
        // Pred lists are built in ascending `from` order per wire but
        // a gate pair can share several wires; dedupe on insert.
        std::vector<size_t> &preds = nodes_[to].preds;
        if (std::find(preds.begin(), preds.end(), from) != preds.end())
            return;
        preds.push_back(from);
        nodes_[from].succs.push_back(to);
        ++edge_count_;
    };

    for (size_t i = 0; i < circuit.size(); ++i) {
        const Gate &g = circuit[i];
        forEachDependencyWire(g, width, [&](Qubit q) {
            if (closesBlock(circuit, cur_block[q], g,
                            options_.commutationAware)) {
                prev_block[q] = std::move(cur_block[q]);
                cur_block[q].clear();
            }
            for (size_t dep : prev_block[q])
                addEdge(dep, i);
            cur_block[q].push_back(i);
        });
    }

    for (DagNode &node : nodes_) {
        std::sort(node.preds.begin(), node.preds.end());
        std::sort(node.succs.begin(), node.succs.end());
        node.succs.erase(
            std::unique(node.succs.begin(), node.succs.end()),
            node.succs.end());
    }
    // succs gained dedupe after counting; recount edges from preds
    // (which were deduped on insert) — keep the two views consistent.
    edge_count_ = 0;
    for (const DagNode &node : nodes_)
        edge_count_ += node.preds.size();

    // ASAP layering = longest path from any root, by index order
    // (preds always precede succs in the gate list, so one forward
    // sweep suffices).
    size_t max_layer = 0;
    for (size_t i = 0; i < nodes_.size(); ++i) {
        size_t layer = 0;
        for (size_t p : nodes_[i].preds)
            layer = std::max(layer, nodes_[p].asapLayer + 1);
        nodes_[i].asapLayer = layer;
        max_layer = std::max(max_layer, layer);
        if (nodes_[i].preds.empty())
            roots_.push_back(i);
    }
    if (!nodes_.empty()) {
        layers_.resize(max_layer + 1);
        for (size_t i = 0; i < nodes_.size(); ++i)
            layers_[nodes_[i].asapLayer].push_back(i);
    }
}

bool
DependencyDag::hasEdge(size_t a, size_t b) const
{
    const std::vector<size_t> &preds = nodes_[b].preds;
    return std::binary_search(preds.begin(), preds.end(), a);
}

std::vector<size_t>
DependencyDag::criticalPath() const
{
    if (nodes_.empty())
        return {};
    // Deepest node with the smallest index, then walk preds choosing
    // the smallest-index one on the previous layer.
    size_t cur = layers_.back().front();
    std::vector<size_t> path{cur};
    while (nodes_[cur].asapLayer > 0) {
        size_t want = nodes_[cur].asapLayer - 1;
        size_t next = kNoGate;
        for (size_t p : nodes_[cur].preds) {
            if (nodes_[p].asapLayer == want) {
                next = p;
                break; // preds sorted ascending: first = smallest
            }
        }
        // A node on layer L > 0 always has a pred on layer L-1.
        path.push_back(next);
        cur = next;
    }
    std::reverse(path.begin(), path.end());
    return path;
}

std::vector<size_t>
DependencyDag::topologicalOrder(std::uint64_t seed) const
{
    std::vector<size_t> order;
    order.reserve(nodes_.size());
    std::vector<size_t> missing(nodes_.size());
    std::vector<size_t> ready;
    for (size_t i = 0; i < nodes_.size(); ++i) {
        missing[i] = nodes_[i].preds.size();
        if (missing[i] == 0)
            ready.push_back(i);
    }
    Rng rng(seed);
    while (!ready.empty()) {
        size_t pick = 0;
        if (seed == 0) {
            // Program order: the smallest ready index.
            pick = static_cast<size_t>(
                std::min_element(ready.begin(), ready.end()) -
                ready.begin());
        } else {
            pick = static_cast<size_t>(
                rng.below(static_cast<std::uint64_t>(ready.size())));
        }
        size_t gate = ready[pick];
        ready[pick] = ready.back();
        ready.pop_back();
        order.push_back(gate);
        for (size_t s : nodes_[gate].succs) {
            if (--missing[s] == 0)
                ready.push_back(s);
        }
    }
    if (order.size() != nodes_.size())
        throw Error("analysis: dependency graph is cyclic");
    return order;
}

Circuit
DependencyDag::reschedule(const std::vector<size_t> &order) const
{
    Circuit out(circuit_->numQubits(), circuit_->name());
    for (size_t index : order)
        out.add((*circuit_)[index]);
    return out;
}

std::string
DependencyDag::toString() const
{
    std::ostringstream os;
    for (size_t i = 0; i < nodes_.size(); ++i) {
        os << "[" << i << "] L" << nodes_[i].asapLayer << " "
           << (*circuit_)[i].toString();
        if (!nodes_[i].preds.empty()) {
            os << "  <-";
            for (size_t p : nodes_[i].preds)
                os << " " << p;
        }
        os << "\n";
    }
    return os.str();
}

DagMetrics
computeDagMetrics(const DependencyDag &dag)
{
    DagMetrics m;
    m.gates = dag.size();
    m.edges = dag.edgeCount();
    m.depth = dag.depth();
    m.criticalGates = m.depth;
    for (size_t t = 0; t < dag.depth(); ++t)
        m.maxLayerWidth = std::max(m.maxLayerWidth, dag.layer(t).size());
    m.parallelism = m.depth > 0 ? static_cast<double>(m.gates) /
                                      static_cast<double>(m.depth)
                                : 0.0;
    return m;
}

size_t
circuitDepth(const Circuit &circuit)
{
    // The commutation-aware DAG's ASAP depth in one sweep: a gate's
    // layer is the first after every previous block on its wires, so
    // per wire it is enough to keep the current block and the first
    // layer after the previous one.
    struct Wire
    {
        std::vector<size_t> block;
        /** First layer after the current / the previous block. */
        size_t blockEnd = 0;
        size_t previousEnd = 0;
    };
    const Qubit width = circuit.numQubits();
    std::vector<Wire> wires(width);
    size_t depth = 0;
    for (size_t i = 0; i < circuit.size(); ++i) {
        const Gate &g = circuit[i];
        size_t layer = 0;
        forEachDependencyWire(g, width, [&](Qubit q) {
            Wire &w = wires[q];
            if (closesBlock(circuit, w.block, g, true)) {
                w.block.clear();
                w.previousEnd = w.blockEnd;
            }
            layer = std::max(layer, w.previousEnd);
        });
        forEachDependencyWire(g, width, [&](Qubit q) {
            Wire &w = wires[q];
            w.block.push_back(i);
            w.blockEnd = std::max(w.blockEnd, layer + 1);
        });
        depth = std::max(depth, layer + 1);
    }
    return depth;
}

} // namespace qsyn::analysis
