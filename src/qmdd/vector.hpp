/**
 * @file
 * Vector QMDDs: decision-diagram state vectors over the same package,
 * node store, and canonicity rules as the matrix DDs.
 *
 * A vector node has two outgoing edges (the |0> and |1> cofactors of
 * its qubit); an edge skipping levels means the skipped qubits are in
 * |0> ... no — skipped levels are *factored out* |0/1-independent?
 * Convention here: a vector edge to the terminal represents the
 * all-|0> state of every remaining qubit (weight x |0...0>), and an
 * edge skipping levels means those qubits are |0>. This makes basis
 * states O(#ones) nodes and lets DD simulation scale to the 96-qubit
 * compiled circuits, far beyond the 2^n dense simulator.
 */

#pragma once

#include <vector>

#include "qmdd/package.hpp"

namespace qsyn::dd {

/**
 * Vector-DD engine layered on a Package. Vector nodes reuse the
 * 4-edge Node structure with e[2] and e[3] unused (zero), so the
 * package's unique table, interning and GC apply unchanged; matrix
 * and vector nodes never collide because vector nodes always carry a
 * zero e[2]/e[3] signature distinct from any reduced matrix node's.
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
     * Holds a package Session and parks at a GC safe point once the
     * live set crosses the trigger; `live` lists the other edges the
     * caller still needs afterwards, which the sweep must keep.
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
