/**
 * @file
 * Commutation-aware inverse-pair cancellation (optimization step 5's
 * workhorse: adjacent partitions G . G^{-1} equal the identity).
 */

#include <vector>

#include "opt/passes.hpp"

namespace qsyn::opt {

namespace {

/** Forward-scan horizon; keeps the pass near-linear on huge circuits. */
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

} // namespace

bool
cancelInversePairs(Circuit &circuit)
{
    bool any = false;
    bool changed = true;
    std::vector<bool> removed(circuit.size(), false);

    while (changed) {
        changed = false;
        for (size_t i = 0; i < circuit.size(); ++i) {
            if (removed[i] || !circuit[i].isUnitary())
                continue;
            const Gate &g = circuit[i];
            size_t limit = std::min(circuit.size(), i + 1 + kScanHorizon);
            for (size_t j = i + 1; j < limit; ++j) {
                if (removed[j])
                    continue;
                const Gate &h = circuit[j];
                if (!sharesWire(g, h))
                    continue;
                if (h.isInverseOf(g)) {
                    removed[i] = true;
                    removed[j] = true;
                    changed = true;
                    any = true;
                    break;
                }
                if (g.commutesWith(h))
                    continue;
                break; // blocked on a shared wire
            }
        }
    }

    if (any) {
        std::vector<size_t> indices;
        for (size_t i = 0; i < removed.size(); ++i) {
            if (removed[i])
                indices.push_back(i);
        }
        circuit.eraseMany(indices);
    }
    return any;
}

} // namespace qsyn::opt
