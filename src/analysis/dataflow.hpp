/**
 * @file
 * Dataflow analyses over the dependency DAG: per-wire def-use chains,
 * qubit liveness intervals, and gate-level reachability.
 *
 * These are the classic compiler dataflow facts transplanted to the
 * quantum IR. A wire's "definition" is its implicit |0> preparation at
 * circuit entry; every gate touching the wire both uses and redefines
 * it (unitaries are total), so the def-use chain of a wire is simply
 * the ordered list of gates on it — but split by *role* (control vs
 * target), because several lint rules care about the difference: a
 * wire only ever used as a control still holds its initial state in
 * the computational basis, while a targeted wire does not.
 *
 * Liveness is interval-shaped: from the earliest to the latest ASAP
 * layer of the wire's gates. That is not always first gate .. last
 * gate, since a gate that commutes with the ones before it on the
 * wire can sit in an earlier layer. The idle-layer figure per wire is
 * the decoherence-exposure proxy `qsync --schedule` reports.
 * Reachability answers "can gate a influence gate b" — the
 * transitive closure question lint rules ask;
 * it is computed on demand (forward BFS) rather than stored, keeping
 * the analysis O(V+E) per query.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "analysis/dag.hpp"
#include "ir/circuit.hpp"

namespace qsyn::analysis {

/** Everything the dataflow pass knows about one wire. */
struct WireFacts
{
    /** Gates touching the wire, in program order (the def-use chain). */
    std::vector<size_t> uses;
    /** Subset of `uses` where the wire is a target (state-changing). */
    std::vector<size_t> targetUses;
    /** First / last gate touching the wire (kNoGate when unused). */
    size_t firstUse = kNoGate;
    size_t lastUse = kNoGate;
    /** Layers the wire sits idle between its earliest and latest
     *  occupied ASAP layer. */
    size_t idleLayers = 0;
    /** True when no gate touches the wire at all. */
    bool dead() const { return uses.empty(); }
};

/** Per-wire dataflow facts for a whole circuit. */
class DataflowAnalysis
{
  public:
    explicit DataflowAnalysis(const DependencyDag &dag);

    const DependencyDag &dag() const { return *dag_; }

    Qubit numWires() const { return static_cast<Qubit>(wires_.size()); }
    const WireFacts &wire(Qubit q) const { return wires_[q]; }
    const std::vector<WireFacts> &wires() const { return wires_; }

    /** Wires no gate touches (sorted). */
    std::vector<Qubit> deadWires() const;

    /** True when the wire is live (between the earliest and latest
     *  ASAP layer of its uses, inclusive) at ASAP layer `layer`. */
    bool liveAt(Qubit q, size_t layer) const;

    /** Total idle wire-layers across live wires (the
     *  decoherence-exposure proxy `qsync --schedule` prints). */
    size_t idleWireLayers() const;

    /**
     * True when a dependency path from gate `from` to gate `to`
     * exists (i.e. reordering them is not allowed). Forward BFS over
     * the DAG; `from == to` counts as reachable.
     */
    bool reaches(size_t from, size_t to) const;

    /** All gates reachable from `from` (including itself), sorted. */
    std::vector<size_t> reachableFrom(size_t from) const;

  private:
    const DependencyDag *dag_;
    std::vector<WireFacts> wires_;
};

} // namespace qsyn::analysis
