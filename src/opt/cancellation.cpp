/**
 * @file
 * Commutation-aware inverse-pair cancellation (optimization step 5's
 * workhorse: adjacent partitions G . G^{-1} equal the identity).
 *
 * A scan from a start gate walks the later gates on the start's wires
 * through per-wire links, so it meets only the gates that share a wire
 * with it. Its outcome can change only when the gate that blocked it
 * is removed: removing a gate it stepped over (one that commutes with
 * the start and is not its inverse) leaves the same blocker first, and
 * the horizon counts the circuit's original indices. So after the
 * first sweep only the starts whose blocker was removed scan again, at
 * the point of the sweep order where a full rescan would reach them:
 * still in this sweep when they lie after the start that removed the
 * blocker, else in the next one. The pairs found, and their order,
 * are those of rescanning every start in every sweep.
 */

#include <algorithm>
#include <functional>
#include <numeric>
#include <queue>
#include <vector>

#include "opt/passes.hpp"
#include "opt/wire_links.hpp"

namespace qsyn::opt {

namespace {

/** Forward-scan horizon; keeps the pass near-linear on huge circuits. */
constexpr size_t kScanHorizon = 256;

} // namespace

std::vector<std::pair<size_t, size_t>>
findInversePairs(const Circuit &circuit, size_t horizon)
{
    constexpr size_t kNone = WireLinks::kNone;
    const size_t n = circuit.size();
    std::vector<std::pair<size_t, size_t>> pairs;
    std::vector<bool> removed(n, false);
    WireLinks links(circuit);
    // The starts each gate blocked, as intrusive lists: blocked_head[j]
    // is the first start gate j blocked, blocked_next[i] the next start
    // blocked by the gate that blocked i.
    std::vector<size_t> blocked_head(n, kNone);
    std::vector<size_t> blocked_next(n, kNone);
    // Starts to scan again later in this sweep, and in the next one.
    std::priority_queue<size_t, std::vector<size_t>, std::greater<>> now;
    std::vector<size_t> next_sweep;
    // Per wire of the start: the slot of the next gate to look at.
    std::vector<size_t> cursor;

    auto remove = [&](size_t i, size_t j) {
        removed[i] = removed[j] = true;
        pairs.emplace_back(i, j);
        links.unlink(i);
        links.unlink(j);
        for (size_t x : {i, j}) {
            for (size_t d = blocked_head[x]; d != kNone;
                 d = blocked_next[d]) {
                if (d > i)
                    now.push(d);
                else
                    next_sweep.push_back(d);
            }
            blocked_head[x] = kNone;
        }
    };

    auto scan = [&](size_t i) {
        const Gate &g = circuit[i];
        const size_t limit = n - i - 1 > horizon ? i + 1 + horizon : n;
        cursor.clear();
        for (size_t k = 0; k < g.numQubits(); ++k)
            cursor.push_back(links.nextSlot(links.slot(i, k)));
        for (;;) {
            size_t j = kNone; // the next gate on any of g's wires
            for (size_t s : cursor) {
                if (s != kNone)
                    j = std::min(j, links.gate(s));
            }
            if (j >= limit)
                return;
            const Gate &h = circuit[j];
            if (h.isInverseOf(g)) {
                remove(i, j);
                return;
            }
            if (!g.commutesWith(h)) {
                blocked_next[i] = blocked_head[j];
                blocked_head[j] = i;
                return;
            }
            for (size_t &s : cursor) {
                if (s != kNone && links.gate(s) == j)
                    s = links.nextSlot(s);
            }
        }
    };

    std::vector<size_t> sweep(n);
    std::iota(sweep.begin(), sweep.end(), size_t{0});
    while (!sweep.empty()) {
        size_t k = 0;
        while (k < sweep.size() || !now.empty()) {
            size_t i;
            if (now.empty() || (k < sweep.size() && sweep[k] < now.top())) {
                i = sweep[k++];
            } else {
                i = now.top();
                now.pop();
            }
            if (!removed[i] && circuit[i].isUnitary())
                scan(i);
        }
        std::sort(next_sweep.begin(), next_sweep.end());
        sweep.swap(next_sweep);
        next_sweep.clear();
    }
    return pairs;
}

bool
cancelInversePairs(Circuit &circuit)
{
    std::vector<size_t> indices;
    for (auto [i, j] : findInversePairs(circuit, kScanHorizon)) {
        indices.push_back(i);
        indices.push_back(j);
    }
    if (indices.empty())
        return false;
    std::sort(indices.begin(), indices.end());
    circuit.eraseMany(indices);
    return true;
}

} // namespace qsyn::opt
