/**
 * @file
 * Routing: shared stats/options types and the `routeCircuit` entry
 * point, which dispatches on `RouteOptions::router` to one of two
 * backends:
 *
 *  - `ctr` (route/ctr.hpp): the paper's Connectivity Tree Reroute —
 *    walk gates in program order, pay a SWAP chain (and swap-back)
 *    per distant CNOT. The paper reference.
 *  - `sabre` (route/sabre.hpp): SABRE-style lookahead routing over
 *    the commutation-aware dependency DAG — SWAPs are scored against
 *    the frontier of ready CNOTs plus a decayed lookahead window and
 *    persist in a dynamic layout; an epilogue restores the identity
 *    layout so the unitary matches `ctr` exactly. The production
 *    router.
 *
 * Both interpret circuit wires as physical qubits (apply a placement
 * first) and emit only native-direction CNOTs.
 */

#pragma once

#include <string>

#include "device/device.hpp"
#include "ir/circuit.hpp"

namespace qsyn::route {

/** Which routing strategy legalizes CNOTs for the device. */
enum class RouterKind {
    Ctr,   ///< the paper's Connectivity Tree Reroute (reference)
    Sabre, ///< lookahead router over the dependency DAG
};

/** Stable lowercase name ("ctr" / "sabre") for CLI, cache keys, and
 *  wire protocol. */
const char *routerName(RouterKind kind);

/** Parse a router name; returns false (leaving `out` untouched) on an
 *  unknown name. */
bool parseRouterName(const std::string &text, RouterKind *out);

/** Counters describing what routing had to do. */
struct RouteStats
{
    size_t nativeCnots = 0;   ///< already legal
    /** CNOTs realized against the coupling direction with four
     *  Hadamards (Fig. 6) — whether the pair was adjacent from the
     *  start or only after a SWAP chain moved it together. */
    size_t reversedCnots = 0;
    size_t reroutedCnots = 0; ///< needed a SWAP path (CTR / forced)
    size_t swapsInserted = 0; ///< total SWAPs emitted (incl. restore)
    /** Hadamards inserted for direction fixes (4 per reversed CNOT). */
    size_t hInserted = 0;
    /** SWAPs chosen by the sabre lookahead heuristic (subset of
     *  swapsInserted; 0 under ctr). */
    size_t lookaheadSwaps = 0;
    /** SWAPs spent restoring the identity layout in the sabre
     *  epilogue (subset of swapsInserted; 0 under ctr). */
    size_t restoreSwaps = 0;
};

/** Routing options. */
struct RouteOptions
{
    /** Strategy selection (`--router=ctr|sabre`). */
    RouterKind router = RouterKind::Ctr;

    /**
     * Fidelity-aware path selection: when the device carries
     * calibration data, SWAP paths (ctr) and lookahead distances
     * (sabre) minimize accumulated two-qubit error (-log(1-e) edge
     * weights) instead of hop count. Extension of the paper's "qubit
     * and operator fidelity" cost direction.
     */
    bool fidelityAware = false;

    /**
     * TEST ONLY — omit the swap-back half of every CTR reroute. The
     * output stays legal on the device but its unitary is wrong, which
     * is exactly what the qfuzz oracle stack must catch and shrink.
     * Surfaced as the hidden `--test-omit-swap-back` CLI flag; never
     * set it outside fault-injection tests.
     */
    bool testOmitSwapBack = false;
};

/**
 * Legalize a primitive-level circuit (single-qubit gates, CNOTs,
 * measures, barriers) for `device` with the strategy selected by
 * `options.router`, with the shared width check, the `route.circuit`
 * span, and the `route.*` metrics flush wrapped around the backend.
 * Wires are physical qubits. Throws MappingError when the circuit is
 * wider than the device or endpoints are disconnected. Stateless; may
 * be called concurrently.
 */
Circuit routeCircuit(const Circuit &circuit, const Device &device,
                     RouteStats *stats = nullptr,
                     const RouteOptions &options = {});

namespace detail {

/** Account for one CNOT realized against the coupling direction
 *  (appendReversedCnot): owns the full bookkeeping — the reversal
 *  counter and its four Hadamards. */
void countReversal(RouteStats *stats);

} // namespace detail

} // namespace qsyn::route
