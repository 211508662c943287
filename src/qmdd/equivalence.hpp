/**
 * @file
 * QMDD-based formal equivalence checking (the paper's built-in
 * verification step): the technology-independent input circuit and the
 * technology-dependent compiled output must represent the same unitary,
 * which for canonical QMDDs means they share the same root edge.
 *
 * Extensions beyond the paper's direct comparison:
 *  - ancilla-aware checking: the mapped circuit may use extra device
 *    wires as clean ancillas; we verify U_b . P == U_a . P where P
 *    projects those wires onto |0> ("acts identically whenever
 *    ancillas start clean, and returns them clean");
 *  - a projected alternating miter (Burgholzer & Wille, "Advanced
 *    Equivalence Checking for Quantum Circuits", 2021): check()
 *    accumulates U_b . P . U_a^dagger, interleaving the two circuits
 *    in proportion to their progress (by gate index), so the product
 *    stays near P instead of growing into two full unitaries. When
 *    the reference leaves the ancilla wires idle it commutes with P,
 *    and the product equals P exactly when U_b . P == U_a . P;
 *  - fused miter steps: each circuit is cut into maximal runs of
 *    consecutive gates that together touch at most three wires (a
 *    wider gate is a run of its own). A run is first multiplied into
 *    a block of at most 21 nodes, and the block into the product in
 *    one step, so the product is rebuilt once per run rather than
 *    once per gate (the block size of TopAS, Weiden et al. 2022);
 *  - a node budget that yields Inconclusive instead of thrashing.
 */

#pragma once

#include <vector>

#include "ir/circuit.hpp"
#include "qmdd/package.hpp"

namespace qsyn::dd {

/** Outcome of an equivalence query. */
enum class Equivalence
{
    Equivalent,            ///< identical canonical QMDDs
    EquivalentUpToPhase,   ///< same nodes; root weights differ by a phase
    EquivalentApprox,      ///< entrywise equal within the approx epsilon
    NotEquivalent,         ///< matrices differ
    Inconclusive           ///< node budget exhausted before an answer
};

/** Printable name of an Equivalence value. */
const char *equivalenceName(Equivalence e);

/** True for any of the three "yes" verdicts. */
inline bool
isEquivalent(Equivalence e)
{
    return e == Equivalence::Equivalent ||
           e == Equivalence::EquivalentUpToPhase ||
           e == Equivalence::EquivalentApprox;
}

/** Options controlling an equivalence query. */
struct EquivalenceOptions
{
    /** Accept circuits equal up to a global phase. */
    bool upToGlobalPhase = true;
    /** Wires (of the wider register) required to be |0> before and
     *  after: clean ancillas and idle device qubits. */
    std::vector<Qubit> ancillaWires;
    /** Abort with Inconclusive past this many live nodes (0 = off). */
    size_t nodeBudget = 0;
    /** Ignored: check() always runs the projected miter. Still
     *  declared only because the benchmark harness assigns it; delete
     *  it with that assignment. */
    bool useMiter = false;
    /**
     * Before the full matrix comparison, push this many random basis
     * states (ancilla wires held at |0>) through both circuits with
     * the vector engine and refute on the first mismatch. A cheap
     * counterexample short-circuits the expensive canonical build;
     * agreement proves nothing and the full check still runs.
     */
    size_t quickRefuteSamples = 0;
};

/** QMDD equivalence checker bound to a package. */
class EquivalenceChecker
{
  public:
    explicit EquivalenceChecker(Package &pkg) : pkg_(pkg) {}

    /**
     * Compare two unitary circuits. The narrower circuit is implicitly
     * padded with identity wires up to the wider register. Decides
     * with the projected miter; falls back to checkDirect's two
     * builds when the reference `a` acts on a listed ancilla wire,
     * where the miter's commutation argument does not hold.
     */
    Equivalence check(const Circuit &a, const Circuit &b,
                      const EquivalenceOptions &opts = {});

    /**
     * The same question answered by building U_a . P and U_b . P
     * separately and comparing their root edges. The reference side
     * of the differential test and check()'s fallback; its peak node
     * count is that of two full unitaries.
     */
    Equivalence checkDirect(const Circuit &a, const Circuit &b,
                            const EquivalenceOptions &opts = {});

  private:
    /** Shared prologue of check/checkDirect (validation, span,
     *  session, quick refutation), then the chosen construction. */
    Equivalence decide(const Circuit &a, const Circuit &b,
                       const EquivalenceOptions &opts, bool direct);

    /** Left-multiply every gate of `circuit` onto `start`. Returns
     *  false (leaving *out untouched) when the budget is exceeded. */
    bool buildOnto(const Circuit &circuit, Edge start, size_t budget,
                   Edge *out, const std::vector<Edge> &extra_roots);

    Equivalence compareEdges(const Edge &a, const Edge &b,
                             const EquivalenceOptions &opts);

    Equivalence compareBuilds(const Circuit &a, const Circuit &b,
                              const EquivalenceOptions &opts);

    Equivalence checkMiter(const Circuit &a, const Circuit &b,
                           const EquivalenceOptions &opts);

    Package &pkg_;
};

} // namespace qsyn::dd
