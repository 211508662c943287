/**
 * @file
 * Vector QMDDs: decision-diagram state vectors over the same package,
 * node store, and canonicity rules as the matrix DDs.
 *
 * A vector node has two outgoing edges (the |0> and |1> cofactors of
 * its qubit). A vector edge to the terminal represents the all-|0>
 * state of every remaining qubit (weight x |0...0>), and an edge
 * skipping levels means those qubits are |0>. This makes basis states
 * O(#ones) nodes and lets DD simulation scale to the 96-qubit
 * compiled circuits, far beyond the 2^n dense simulator.
 */

#pragma once

#include <vector>

#include "qmdd/package.hpp"

namespace qsyn::dd {

/**
 * Vector-DD engine layered on a Package. Vector nodes reuse the
 * 4-edge Node structure, so the package's unique table, interning and
 * GC apply unchanged. Nodes the engine makes itself carry zero e[2]
 * and e[3], but a vector node can also be a matrix node: matVecNodes
 * sums cofactors with the matrix Package::add, which reads a skipped
 * vector level as the identity and can leave a nonzero e[2] or e[3].
 * Amplitudes stay exact because vectorChild reads only e[0] and e[1].
 */
class VectorEngine
{
  public:
    explicit VectorEngine(Package &pkg) : pkg_(pkg) {}

    Package &package() { return pkg_; }

    /** |basis> over `num_qubits` qubits (qubit 0 = MSB of the index). */
    Edge makeBasisState(std::uint64_t basis, Qubit num_qubits);

    /** Vector node constructor: cofactors for qubit `var` = 0 / 1. */
    Edge makeVectorNode(std::int32_t var, const Edge &zero_cof,
                        const Edge &one_cof);

    /** Apply a gate (matrix DD semantics) to a state vector. */
    Edge applyGate(const Gate &gate, const Edge &state);

    /**
     * Apply a whole circuit (barriers skipped; measures rejected).
     * Sweeps the package once the live set crosses the GC trigger;
     * `live` lists the other edges the caller still needs afterwards,
     * which the sweep must keep.
     */
    Edge applyCircuit(const Circuit &circuit, const Edge &state,
                      const std::vector<Edge> &live = {});

    /** Amplitude <index|state> for an n-qubit context. */
    Cplx amplitude(const Edge &state, std::uint64_t index,
                   int num_qubits);

    /** Inner product <a|b> (same qubit context). */
    Cplx innerProduct(const Edge &a, const Edge &b, int num_qubits);

    /** Squared norm of the state. */
    double normSquared(const Edge &state, int num_qubits);

  private:
    /** Multiply a matrix edge by a vector edge. */
    Edge matVec(const Edge &mat, const Edge &vec);
    Edge matVecNodes(Node *mat, Node *vec);

    /** Vector cofactor of `vec` at level `var` for bit value b. */
    Edge vectorChild(const Edge &vec, int b, std::int32_t var);

    Package &pkg_;
    std::unordered_map<const Node *,
                       std::unordered_map<const Node *, Edge>>
        matvec_cache_;
};

} // namespace qsyn::dd
