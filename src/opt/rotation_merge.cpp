/**
 * @file
 * Rotation and phase-gate merging (optimization step 6: replacing gate
 * partitions with cheaper logically identical ones). All merges are
 * exact including global phase: the phase family {Z, S, S†, T, T†, P}
 * composes multiplicatively on the |1> amplitude, and same-axis
 * rotations add their angles (period 4*pi).
 */

#include <cmath>
#include <numbers>
#include <optional>
#include <vector>

#include "opt/passes.hpp"
#include "opt/phase_utils.hpp"

namespace qsyn::opt {

namespace {

using std::numbers::pi;

constexpr size_t kScanHorizon = 256;

bool
sharesWire(const Gate &a, const Gate &b)
{
    for (Qubit q : a.controls()) {
        if (b.usesQubit(q))
            return true;
    }
    for (Qubit q : a.targets()) {
        if (b.usesQubit(q))
            return true;
    }
    return false;
}

bool
isAxisRotation(GateKind kind)
{
    return kind == GateKind::Rx || kind == GateKind::Ry ||
           kind == GateKind::Rz;
}

} // namespace

bool
mergeRotations(Circuit &circuit)
{
    bool any = false;
    bool changed = true;

    while (changed) {
        changed = false;
        bool applied = false;

        for (size_t i = 0; i < circuit.size() && !applied; ++i) {
            if (!circuit[i].isUnitary())
                continue;
            const Gate &g = circuit[i];
            auto g_phase = phaseFamilyAngle(g);
            bool g_axis = isAxisRotation(g.kind());
            if (!g_phase && !g_axis)
                continue;

            size_t limit = std::min(circuit.size(), i + 1 + kScanHorizon);
            for (size_t j = i + 1; j < limit; ++j) {
                const Gate &h = circuit[j];
                if (!sharesWire(g, h))
                    continue;

                bool same_wires = h.controls() == g.controls() &&
                                  h.targets() == g.targets();
                if (same_wires && g_phase) {
                    auto h_phase = phaseFamilyAngle(h);
                    if (h_phase) {
                        auto merged =
                            canonicalPhaseGate(g, *g_phase + *h_phase);
                        circuit.eraseMany({i, j});
                        if (merged)
                            circuit.insert(i, std::move(*merged));
                        applied = true;
                        changed = true;
                        any = true;
                        break;
                    }
                }
                if (same_wires && g_axis && h.kind() == g.kind()) {
                    // Built before the erase: g and h point into the
                    // circuit.
                    double theta =
                        wrapAngle(g.param() + h.param(), 4 * pi);
                    std::optional<Gate> merged;
                    if (theta > kAngleEps && theta < 4 * pi - kAngleEps)
                        merged.emplace(g.kind(), g.controls(),
                                       g.targets(), theta);
                    circuit.eraseMany({i, j});
                    if (merged)
                        circuit.insert(i, std::move(*merged));
                    applied = true;
                    changed = true;
                    any = true;
                    break;
                }
                if (g.commutesWith(h))
                    continue;
                break;
            }
        }
    }
    return any;
}

} // namespace qsyn::opt
