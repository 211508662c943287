/**
 * @file
 * Hadamard conjugation rewrites (circuit identities of optimization
 * step 6): H X H = Z, H Z H = X, and the Fig. 6 orientation identity
 * (H (+) H) CNOT(b,a) (H (+) H) = CNOT(a,b), applied in the
 * cost-reducing direction (5 gates -> 1) and only when the rewritten
 * CNOT direction is legal on the target device.
 */

#include <algorithm>
#include <vector>

#include "opt/passes.hpp"
#include "opt/wire_links.hpp"

namespace qsyn::opt {

namespace {

bool
isPlainH(const Gate &g, Qubit q)
{
    return g.kind() == GateKind::H && g.numControls() == 0 &&
           g.target() == q;
}

} // namespace

bool
applyHadamardRules(Circuit &circuit, const Device *device)
{
    bool any = false;
    bool changed = true;

    while (changed) {
        changed = false;
        WireLinks links(circuit);
        constexpr size_t kNone = WireLinks::kNone;

        // Batch all non-overlapping matches found against one adjacency
        // snapshot, then apply them together.
        std::vector<bool> used(circuit.size(), false);
        std::vector<std::pair<size_t, Gate>> replacements;
        std::vector<size_t> dead;

        auto all_free = [&](std::initializer_list<size_t> idx) {
            return std::all_of(idx.begin(), idx.end(),
                               [&](size_t i) { return !used[i]; });
        };
        auto mark_used = [&](std::initializer_list<size_t> idx) {
            for (size_t i : idx)
                used[i] = true;
        };

        for (size_t i = 0; i < circuit.size(); ++i) {
            if (used[i])
                continue;
            const Gate &g = circuit[i];

            // H X H = Z and H Z H = X on a single wire.
            if ((g.kind() == GateKind::X || g.kind() == GateKind::Z) &&
                g.numControls() == 0) {
                Qubit q = g.target();
                size_t p = links.prev(i, 0);
                size_t n = links.next(i, 0);
                if (p != kNone && n != kNone && all_free({p, n}) &&
                    isPlainH(circuit[p], q) && isPlainH(circuit[n], q)) {
                    GateKind flipped = g.kind() == GateKind::X
                                           ? GateKind::Z
                                           : GateKind::X;
                    replacements.emplace_back(i, Gate(flipped, {}, {q}));
                    dead.push_back(p);
                    dead.push_back(n);
                    mark_used({i, p, n});
                    continue;
                }
            }

            // (H(+)H) CNOT(b,a) (H(+)H) = CNOT(a,b).
            if (g.isCnot()) {
                Qubit b = g.controls()[0]; // wire slot 0
                Qubit a = g.target();      // wire slot 1
                size_t pb = links.prev(i, 0), nb = links.next(i, 0);
                size_t pa = links.prev(i, 1), na = links.next(i, 1);
                if (pa == kNone || na == kNone || pb == kNone ||
                    nb == kNone)
                    continue;
                if (!all_free({pa, pb, na, nb}))
                    continue;
                if (!isPlainH(circuit[pa], a) || !isPlainH(circuit[na], a) ||
                    !isPlainH(circuit[pb], b) || !isPlainH(circuit[nb], b))
                    continue;
                bool legal = device == nullptr ||
                             device->isFullyConnected() ||
                             device->coupling().hasEdge(a, b);
                if (!legal)
                    continue;
                replacements.emplace_back(i, Gate::cnot(a, b));
                dead.insert(dead.end(), {pa, pb, na, nb});
                mark_used({i, pa, pb, na, nb});
            }
        }

        if (!replacements.empty()) {
            for (const auto &[idx, gate] : replacements)
                circuit.replace(idx, gate);
            std::sort(dead.begin(), dead.end());
            circuit.eraseMany(dead);
            changed = true;
            any = true;
        }
    }
    return any;
}

} // namespace qsyn::opt
