/**
 * @file
 * The Connectivity Tree Reroute (CTR) algorithm — the paper's core
 * routing contribution (Section 4, Figs. 4-5).
 *
 * A CNOT whose endpoints are not coupled is legalized by moving the
 * *control* along the shortest SWAP path (found by BFS over the
 * undirected coupling graph, which explores exactly the paper's
 * connectivity tree level by level) to a qubit coupled with the
 * target, executing the CNOT there, and swapping back so the original
 * qubit assignment is preserved. Each SWAP costs at most 7 gates
 * (3 CNOTs + 4 H) under unidirectional coupling. With calibration
 * data and `fidelityAware`, the BFS becomes a Dijkstra search over
 * accumulated two-qubit error.
 *
 * This is the paper reference and the default router; route/sabre.hpp
 * is the production lookahead router.
 *
 * The shared stats/options types and the dispatching `routeCircuit`
 * entry live in route/router.hpp (re-exported here).
 */

#pragma once

#include "route/router.hpp"

namespace qsyn::route {

/**
 * The CTR backend (honors `fidelityAware` and `testOmitSwapBack`).
 * Called by `routeCircuit` after the width check; use that instead
 * unless you specifically want to bypass strategy selection.
 */
Circuit routeCtr(const Circuit &circuit, const Device &device,
                 RouteStats *stats, const RouteOptions &options);

} // namespace qsyn::route
