#include "route/sabre.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "analysis/dag.hpp"
#include "common/errors.hpp"
#include "decompose/toffoli.hpp"
#include "obs/obs.hpp"

namespace qsyn::route {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Weight of the first extended-window CNOT relative to the frontier. */
constexpr double kExtWeight = 0.5;

/** Geometric attenuation per additional window position — gates far
 *  past the frontier barely steer the current SWAP. */
constexpr double kExtDecay = 0.9;

/** Forced-reroute safety valve: after this many heuristic SWAPs with
 *  no gate executed, fall back to a shortest-path reroute of the
 *  first frontier CNOT (guarantees termination on any connected
 *  device). */
size_t
stallLimit(Qubit num_qubits)
{
    return 4 * static_cast<size_t>(num_qubits) + 16;
}

/**
 * All-pairs distances over the undirected coupling graph: hop counts
 * by BFS, or accumulated two-qubit-error weights (Dijkstra) when
 * calibration data is present and requested — the same
 * -3·log1p(-err) SWAP cost CTR's fidelity-aware path search uses.
 */
std::vector<std::vector<double>>
allPairsDistances(const Device &device, bool fidelity_aware)
{
    const CouplingMap &map = device.coupling();
    Qubit n = device.numQubits();
    const Calibration *cal =
        fidelity_aware ? device.calibration() : nullptr;
    std::vector<std::vector<double>> dist(
        n, std::vector<double>(n, kInf));
    for (Qubit src = 0; src < n; ++src) {
        dist[src][src] = 0.0;
        if (cal == nullptr) {
            std::deque<Qubit> frontier{src};
            while (!frontier.empty()) {
                Qubit q = frontier.front();
                frontier.pop_front();
                for (Qubit nb : map.neighborsOf(q)) {
                    if (dist[src][nb] == kInf) {
                        dist[src][nb] = dist[src][q] + 1.0;
                        frontier.push_back(nb);
                    }
                }
            }
        } else {
            using Item = std::pair<double, Qubit>;
            std::priority_queue<Item, std::vector<Item>,
                                std::greater<Item>>
                heap;
            heap.push({0.0, src});
            while (!heap.empty()) {
                auto [d, q] = heap.top();
                heap.pop();
                if (d > dist[src][q])
                    continue;
                for (Qubit nb : map.neighborsOf(q)) {
                    double w = -3.0 *
                               std::log1p(-cal->twoQubitError(q, nb));
                    if (d + w < dist[src][nb]) {
                        dist[src][nb] = d + w;
                        heap.push({d + w, nb});
                    }
                }
            }
        }
    }
    return dist;
}

/** Rebuild one gate with every wire sent through `layout`
 *  (layout[v] = physical qubit currently holding wire v). Mirrors
 *  Circuit::remapped gate-by-gate, without the temporary circuit. */
Gate
remapGate(const Gate &gate, const std::vector<Qubit> &layout)
{
    if (gate.kind() == GateKind::Measure)
        return Gate::measure(layout[gate.target()], gate.cbit());
    std::vector<Qubit> controls;
    controls.reserve(gate.numControls());
    for (Qubit c : gate.controls())
        controls.push_back(layout[c]);
    std::vector<Qubit> targets;
    targets.reserve(gate.targets().size());
    for (Qubit t : gate.targets())
        targets.push_back(layout[t]);
    return Gate(gate.kind(), std::move(controls), std::move(targets),
                gate.param());
}

/**
 * Permutation-repair epilogue: emit SWAPs restoring the identity
 * layout (`inv[p] == p` for every physical p). Each misplaced wire is
 * fixed with a there-and-back SWAP chain along a shortest path — a
 * transposition of the endpoints that leaves every intermediate wire
 * untouched, so positions repaired earlier stay repaired on any
 * topology (a one-way chain would drag wires through already-fixed
 * positions on grids). Updates pos/inv, bumps
 * swapsInserted/restoreSwaps, and returns the SWAP count.
 */
size_t
restoreIdentityLayout(Circuit &out, const CouplingMap &map,
                      std::vector<Qubit> &pos, std::vector<Qubit> &inv,
                      RouteStats *stats)
{
    Qubit n = static_cast<Qubit>(pos.size());
    size_t restore_swaps = 0;
    auto apply_swap = [&](Qubit pa, Qubit pb) {
        decompose::appendSwap(out, &map, pa, pb);
        ++restore_swaps;
        Qubit va = inv[pa], vb = inv[pb];
        std::swap(inv[pa], inv[pb]);
        pos[va] = pb;
        pos[vb] = pa;
    };
    for (Qubit p = 0; p < n; ++p) {
        if (inv[p] == p)
            continue;
        std::vector<Qubit> path = map.shortestPath(pos[p], p);
        QSYN_ASSERT(path.size() >= 2, "broken repair path");
        // There-and-back chain: transposes the endpoint wires and
        // leaves every intermediate wire where it was, so positions
        // already repaired cannot be dragged out of place again.
        for (size_t i = 0; i + 1 < path.size(); ++i)
            apply_swap(path[i], path[i + 1]);
        for (size_t i = path.size() - 2; i-- > 0;)
            apply_swap(path[i], path[i + 1]);
        QSYN_ASSERT(inv[p] == p, "repair transposition missed");
    }
    if (stats != nullptr) {
        stats->swapsInserted += restore_swaps;
        stats->restoreSwaps += restore_swaps;
    }
    return restore_swaps;
}

} // namespace

Circuit
routeSabre(const Circuit &circuit, const Device &device, RouteStats *stats,
           const RouteOptions &options)
{
    const CouplingMap &map = device.coupling();
    Qubit n = device.numQubits();
    Circuit out(n, circuit.name());
    obs::Span span("route.sabre", "route");

    // pos[v] = physical qubit currently holding virtual wire v;
    // inv[p] = virtual wire at physical p. Placement has already been
    // applied, so the initial layout is the identity.
    std::vector<Qubit> pos(n), inv(n);
    for (Qubit q = 0; q < n; ++q)
        pos[q] = inv[q] = q;

    const bool full = device.isFullyConnected();
    std::vector<std::vector<double>> dist;
    if (!full)
        dist = allPairsDistances(device, options.fidelityAware);

    // Fail fast on disconnected endpoints (same contract as CTR):
    // positions move but components never do.
    if (!full) {
        for (const Gate &g : circuit) {
            if (g.isCnot() &&
                dist[g.controls()[0]][g.target()] == kInf) {
                throw MappingError(
                    "no coupling path between q" +
                    std::to_string(g.controls()[0]) + " and q" +
                    std::to_string(g.target()));
            }
        }
    }

    analysis::DependencyDag dag(circuit);
    const size_t total = dag.size();
    std::vector<size_t> indeg(total);
    for (size_t i = 0; i < total; ++i)
        indeg[i] = dag.preds(i).size();
    std::set<size_t> ready(dag.roots().begin(), dag.roots().end());

    size_t executed = 0;
    size_t forced_reroutes = 0;
    size_t stalled_swaps = 0; // heuristic SWAPs since last execution
    // The most recent heuristic SWAP, excluded from the next round of
    // candidates so the score cannot oscillate on one edge.
    std::pair<Qubit, Qubit> last_swap{kNoQubit, kNoQubit};

    auto apply_swap = [&](Qubit pa, Qubit pb) {
        decompose::appendSwap(out, &map, pa, pb);
        if (stats)
            ++stats->swapsInserted;
        Qubit va = inv[pa], vb = inv[pb];
        std::swap(inv[pa], inv[pb]);
        pos[va] = pb;
        pos[vb] = pa;
    };

    // A gate is executable when it is not a CNOT (single-qubit gates,
    // barriers, and measures never move) or when its endpoints are
    // adjacent under the current layout (any direction — a reversal
    // fixes orientation).
    auto executable = [&](const Gate &g) {
        if (!g.isCnot())
            return true;
        Qubit pc = pos[g.controls()[0]];
        Qubit pt = pos[g.target()];
        return full || map.hasEdge(pc, pt) ||
               map.hasUndirectedEdge(pc, pt);
    };

    auto emit = [&](const Gate &g) {
        if (!g.isCnot()) {
            QSYN_ASSERT(g.numQubits() <= 1 ||
                            g.kind() == GateKind::Barrier,
                        "routing expects a primitive-level circuit, got " +
                            g.toString());
            if (g.kind() == GateKind::Barrier || g.numQubits() != 1)
                out.add(g);
            else
                out.add(remapGate(g, pos));
            return;
        }
        Qubit pc = pos[g.controls()[0]];
        Qubit pt = pos[g.target()];
        if (full || map.hasEdge(pc, pt)) {
            out.addCnot(pc, pt);
            if (stats)
                ++stats->nativeCnots;
        } else {
            decompose::appendReversedCnot(out, pc, pt);
            detail::countReversal(stats);
        }
    };

    auto execute = [&](size_t gi) {
        emit(circuit[gi]);
        ready.erase(gi);
        for (size_t s : dag.succs(gi)) {
            if (--indeg[s] == 0)
                ready.insert(s);
        }
        ++executed;
        stalled_swaps = 0;
        last_swap = {kNoQubit, kNoQubit};
    };

    // CNOT endpoint distance if the physical pair (a, b) were swapped
    // first; (kNoQubit, kNoQubit) scores the current layout.
    auto dist_after = [&](size_t gi, Qubit a, Qubit b) {
        const Gate &g = circuit[gi];
        Qubit pc = pos[g.controls()[0]];
        Qubit pt = pos[g.target()];
        Qubit c2 = pc == a ? b : (pc == b ? a : pc);
        Qubit t2 = pt == a ? b : (pt == b ? a : pt);
        return dist[c2][t2];
    };

    while (executed < total) {
        // Drain everything executable under the current layout. One
        // execution can unlock successors, so sweep to a fixpoint.
        bool progress = true;
        while (progress) {
            progress = false;
            std::vector<size_t> runnable;
            for (size_t gi : ready) {
                if (executable(circuit[gi]))
                    runnable.push_back(gi);
            }
            for (size_t gi : runnable) {
                execute(gi);
                progress = true;
            }
        }
        if (executed == total)
            break;

        // Stuck: every ready gate is a distant CNOT.
        std::vector<size_t> frontier_cnots(ready.begin(), ready.end());

        if (stalled_swaps >= stallLimit(n)) {
            // Safety valve: heuristic is wandering; shortest-path
            // reroute the first frontier CNOT (SWAPs persist), which
            // is guaranteed to make it adjacent.
            size_t gi = frontier_cnots.front();
            const Gate &g = circuit[gi];
            Qubit pc = pos[g.controls()[0]];
            Qubit pt = pos[g.target()];
            std::vector<Qubit> path = map.shortestPathToNeighbor(pc, pt);
            QSYN_ASSERT(path.size() >= 2,
                        "stalled CNOT endpoints must be distant");
            for (size_t i = 0; i + 1 < path.size(); ++i)
                apply_swap(path[i], path[i + 1]);
            if (stats)
                ++stats->reroutedCnots;
            ++forced_reroutes;
            execute(gi);
            continue;
        }

        // SWAP candidates: undirected edges touching a frontier-CNOT
        // endpoint (the only SWAPs that can change a frontier
        // distance), minus the SWAP just applied.
        std::set<std::pair<Qubit, Qubit>> candidates;
        for (size_t gi : frontier_cnots) {
            const Gate &g = circuit[gi];
            for (Qubit p : {pos[g.controls()[0]], pos[g.target()]}) {
                for (Qubit nb : map.neighborsOf(p)) {
                    auto e = std::minmax(p, nb);
                    if (std::pair<Qubit, Qubit>(e.first, e.second) !=
                        last_swap)
                        candidates.insert({e.first, e.second});
                }
            }
        }
        QSYN_ASSERT(!candidates.empty(),
                    "connected device must offer a SWAP candidate");

        // Decayed extended window: the next CNOTs behind the frontier
        // in dependency order, discovered by BFS over successors.
        std::vector<size_t> window;
        if (options.sabreWindow > 0) {
            std::vector<char> seen(total, 0);
            std::deque<size_t> bfs;
            for (size_t gi : ready) {
                seen[gi] = 1;
                bfs.push_back(gi);
            }
            while (!bfs.empty() && window.size() < options.sabreWindow) {
                size_t gi = bfs.front();
                bfs.pop_front();
                for (size_t s : dag.succs(gi)) {
                    if (seen[s])
                        continue;
                    seen[s] = 1;
                    bfs.push_back(s);
                    if (circuit[s].isCnot()) {
                        window.push_back(s);
                        if (window.size() == options.sabreWindow)
                            break;
                    }
                }
            }
        }

        std::pair<Qubit, Qubit> best{kNoQubit, kNoQubit};
        double best_score = kInf;
        for (const auto &[a, b] : candidates) {
            double score = 0.0;
            for (size_t gi : frontier_cnots)
                score += dist_after(gi, a, b);
            double w = kExtWeight;
            for (size_t gi : window) {
                score += w * dist_after(gi, a, b);
                w *= kExtDecay;
            }
            if (score < best_score) {
                best_score = score;
                best = {a, b};
            }
        }
        QSYN_ASSERT(best.first != kNoQubit, "no SWAP candidate scored");
        apply_swap(best.first, best.second);
        if (stats)
            ++stats->lookaheadSwaps;
        ++stalled_swaps;
        last_swap = best;
    }

    // Epilogue: restore the identity layout so the routed unitary
    // equals ctr's exactly.
    size_t restore_swaps = restoreIdentityLayout(out, map, pos, inv, stats);

    span.arg("gates_in", circuit.size());
    span.arg("gates_out", out.size());
    span.arg("window", options.sabreWindow);
    span.arg("forced_reroutes", forced_reroutes);
    span.arg("restore_swaps", restore_swaps);
    if (obs::Sink *s = obs::sink()) {
        obs::MetricsRegistry &m = s->metrics();
        if (stats) {
            m.addCounter("route.sabre.lookahead_swaps",
                         static_cast<double>(stats->lookaheadSwaps));
        }
        m.addCounter("route.sabre.restore_swaps",
                     static_cast<double>(restore_swaps));
        m.addCounter("route.sabre.forced_reroutes",
                     static_cast<double>(forced_reroutes));
    }
    return out;
}

} // namespace qsyn::route
