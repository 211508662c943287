/**
 * @file
 * The gate-dependency DAG: the circuit viewed as a partial order
 * instead of a total one.
 *
 * `ir::Circuit` is a flat gate list; most static questions (what can
 * run in parallel, what may be reordered, which gates are really
 * adjacent on a wire) are questions about the *dependency structure*,
 * not the list. The DAG makes that structure explicit: one node per
 * gate, one edge g -> h whenever h must execute after g.
 *
 * Edges come from per-wire ordering, optionally refined by the cheap
 * syntactic commutation rules of Gate::commutesWith. The construction
 * keeps, per wire, the trailing *block* of pairwise-commuting gates:
 * a gate that commutes with the whole current block joins it (and
 * depends on the previous block); a gate that does not starts a new
 * block. Every member of block k has edges from every member of block
 * k-1, so any two same-wire gates either commute or are connected by
 * a path — which makes *every* topological order of the DAG an
 * equivalence-preserving rescheduling of the circuit (the property
 * `ctest -L analysis` checks against the QMDD oracle).
 *
 * Barriers and measurements fence: they are treated as commuting with
 * nothing, and a barrier acts on every wire of the register, taking a
 * full layer of its own.
 *
 * The DAG also carries the scheduling view derived from longest paths:
 * ASAP layers, depth (critical-path length), layer widths, and one
 * explicit critical path. This is the substrate the lint rules, the
 * `--analyze` and `--schedule` figures, the reported depth, and the
 * sabre router share.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ir/circuit.hpp"

namespace qsyn::analysis {

/** Sentinel gate index ("no gate"). */
inline constexpr size_t kNoGate = static_cast<size_t>(-1);

/** Construction knobs for a DependencyDag. */
struct DagOptions
{
    /** Refine per-wire edges with Gate::commutesWith: commuting
     *  neighbors on a wire share a block instead of being chained.
     *  Off = plain per-wire program order (the ASAP view). */
    bool commutationAware = true;
};

/** One gate's node: its dependency neighborhood and ASAP layer. */
struct DagNode
{
    /** Gate indices that must execute before this one (sorted). */
    std::vector<size_t> preds;
    /** Gate indices that must execute after this one (sorted). */
    std::vector<size_t> succs;
    /** Earliest layer this gate can run in (0-based). */
    size_t asapLayer = 0;
};

/** The dependency DAG of one circuit (indices parallel the gate
 *  list; the circuit must outlive the DAG). */
class DependencyDag
{
  public:
    explicit DependencyDag(const Circuit &circuit, DagOptions options = {});

    const Circuit &circuit() const { return *circuit_; }
    const DagOptions &options() const { return options_; }

    size_t size() const { return nodes_.size(); }
    const DagNode &node(size_t gate_index) const
    {
        return nodes_[gate_index];
    }
    const std::vector<size_t> &preds(size_t gate_index) const
    {
        return nodes_[gate_index].preds;
    }
    const std::vector<size_t> &succs(size_t gate_index) const
    {
        return nodes_[gate_index].succs;
    }

    /** True when an edge a -> b exists (direct dependency). */
    bool hasEdge(size_t a, size_t b) const;

    /** Total dependency edges. */
    size_t edgeCount() const { return edge_count_; }

    /** Critical-path length in layers (0 for an empty circuit). */
    size_t depth() const { return layers_.size(); }

    /** Gate indices of ASAP layer `t` (sorted ascending). */
    const std::vector<size_t> &layer(size_t t) const
    {
        return layers_[t];
    }
    const std::vector<std::vector<size_t>> &layers() const
    {
        return layers_;
    }

    /** Gates with no predecessors (the initial frontier a lookahead
     *  router schedules from). */
    const std::vector<size_t> &roots() const { return roots_; }

    /**
     * One explicit longest dependency chain, as gate indices in
     * execution order; its length equals depth(). Empty for an empty
     * circuit. Deterministic (smallest-index tie-break).
     */
    std::vector<size_t> criticalPath() const;

    /**
     * A topological order of the gates. `seed` selects among valid
     * orders deterministically: 0 yields program order; any other
     * value drives a seeded ready-list shuffle — the rescheduling
     * the round-trip property tests push through the equivalence
     * oracle. Always returns every gate exactly once.
     */
    std::vector<size_t> topologicalOrder(std::uint64_t seed = 0) const;

    /**
     * Rebuild a circuit from a gate ordering (as produced by
     * topologicalOrder). The result has the same register, name, and
     * gates, permuted.
     */
    Circuit reschedule(const std::vector<size_t> &order) const;

    /** Multi-line rendering (one line per gate with its preds). */
    std::string toString() const;

  private:
    const Circuit *circuit_;
    DagOptions options_;
    std::vector<DagNode> nodes_;
    std::vector<std::vector<size_t>> layers_;
    std::vector<size_t> roots_;
    size_t edge_count_ = 0;
};

/** Aggregate scheduling metrics derived from a DAG. */
struct DagMetrics
{
    size_t gates = 0;          ///< DAG node count
    size_t edges = 0;          ///< dependency edge count
    size_t depth = 0;          ///< critical-path length in layers
    size_t criticalGates = 0;  ///< gates on one critical path (== depth)
    size_t maxLayerWidth = 0;  ///< widest concurrent layer
    double parallelism = 0.0;  ///< gates / depth (average layer width)
};

/** Compute the metric summary of a DAG in one pass. */
DagMetrics computeDagMetrics(const DependencyDag &dag);

/**
 * Critical-path depth of a circuit under the commutation-aware DAG —
 * the depth figure CompileResult stage metrics report. Cheaper than
 * keeping the DAG when only the number is needed.
 */
size_t circuitDepth(const Circuit &circuit);

} // namespace qsyn::analysis
