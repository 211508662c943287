/**
 * @file
 * Local optimization passes (Section 4, mapping steps 5 and 6):
 * "local optimizations based on removing partitions of gates that
 * equal the identity function" and "that can be minimized with a
 * logically identical circuit identity", applied recursively until the
 * cost function cannot be reduced (see pipeline.hpp for the driver).
 *
 * Every pass is phase-exact: rewritten circuits equal the original
 * unitary including global phase, so the QMDD equivalence check stays
 * strict.
 */

#pragma once

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "device/device.hpp"
#include "ir/circuit.hpp"

namespace qsyn::opt {

/**
 * Cancel adjacent inverse pairs (H.H, X.X, CNOT.CNOT, T.Tdg, ...).
 * "Adjacent" is commutation-aware: gates that syntactically commute
 * with the first gate may sit in between. Each scan looks at most 256
 * gates ahead of its start. Returns true when the circuit changed.
 */
bool cancelInversePairs(Circuit &circuit);

/** A findInversePairs horizon that reaches the end of the circuit. */
inline constexpr size_t kNoHorizon = static_cast<size_t>(-1);

/**
 * The inverse pairs cancelInversePairs removes, in the order it finds
 * them, without removing them. A scan from start i walks the later
 * gates that share a wire with gate i, stepping over removed gates and
 * gates that commute with gate i, and pairs i with the first one that
 * is its inverse; the first one that is neither blocks the scan. Only
 * gates within `horizon` indices after i are looked at. Scans repeat
 * in sweeps of ascending start until a sweep pairs nothing.
 */
std::vector<std::pair<size_t, size_t>>
findInversePairs(const Circuit &circuit, size_t horizon);

/**
 * Merge mergeable neighbors: same-axis rotations add their angles and
 * the phase-gate family {Z, S, S†, T, T†, P} composes exactly
 * (T.T = S, S.S = Z, ...), including controlled variants with equal
 * control sets. Gates merging to the identity disappear. Returns true
 * when the circuit changed.
 */
bool mergeRotations(Circuit &circuit);

/**
 * Hadamard conjugation identities:
 *   H X H = Z,  H Z H = X,
 *   (H (+) H) CNOT(b,a) (H (+) H) = CNOT(a,b)   [Fig. 6, reversed]
 * The CNOT reversal fires only when the resulting direction is legal
 * on `device` (null device = unconstrained). Returns true when the
 * circuit changed.
 */
bool applyHadamardRules(Circuit &circuit, const Device *device);

/**
 * Identity-prefix lengths of the windows removeIdentityWindows has
 * examined, keyed by canonical window content: the width, then per
 * member its kind, its control and target wires relabelled by first
 * appearance in the window, and its angle's exact bits. Equal keys run
 * the identical matrix product, so a hit gives the verdict (and the
 * output) a fresh product would. One optimizeCircuit call owns one
 * memo across its windows and rounds; it is not thread-safe, and
 * concurrent compiles each use their own.
 */
struct IdentityWindowMemo
{
    std::unordered_map<std::string, size_t> prefix;
    /** Windows looked up, and how many the memo answered. */
    size_t windows = 0;
    size_t hits = 0;
};

/** The optimizer's identity windows span at most three wires, the
 *  block width of TopAS-style partitioning (and of the miter's fused
 *  steps), and at most 16 gates. */
inline constexpr int kWindowQubits = 3;
inline constexpr size_t kWindowGates = 16;

/**
 * Remove gate partitions that multiply to the identity: slides a
 * window over runs of gates confined to at most `max_qubits` wires
 * (gates on disjoint wires may interleave) and deletes any prefix
 * whose product is exactly the identity. Window verdicts are looked
 * up in and added to `memo`; without one the call uses its own.
 * Returns true when the circuit changed.
 */
bool removeIdentityWindows(Circuit &circuit, int max_qubits = kWindowQubits,
                           size_t max_gates = kWindowGates,
                           IdentityWindowMemo *memo = nullptr);

/**
 * Phase-polynomial merging (extension beyond the paper's optimizer):
 * inside {CNOT, X, phase, Rz} regions, diagonal gates whose wires
 * carry the same affine GF(2) function of the region inputs merge
 * exactly — the classic Clifford+T T-count reduction. Returns true
 * when the circuit changed.
 */
bool mergePhasePolynomial(Circuit &circuit);

} // namespace qsyn::opt
