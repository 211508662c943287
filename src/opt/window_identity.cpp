/**
 * @file
 * Identity-window elimination — the literal reading of optimization
 * step 5: "removing partitions of gates that equal the identity
 * function". A window is a run of gates confined to a small wire set
 * (gates on disjoint wires may interleave and are untouched); the
 * window's unitary is accumulated as a small dense matrix, and the
 * first prefix multiplying to the exact identity is deleted.
 *
 * The pass opens a window at every gate of its input; after an erase
 * it opens one again only where the erase took a gate out of the range
 * the window examined. Lowered Toffolis repeat a few windows thousands
 * of times, so each window's verdict is looked up by its canonical
 * content first (see IdentityWindowMemo). Collection, keying and the
 * product run in buffers reused across windows: nothing allocates per
 * gate or per window.
 */

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/errors.hpp"
#include "ir/matrix.hpp"
#include "opt/passes.hpp"

namespace qsyn::opt {

namespace {

/** Gates members of a window must be unitary and control-count-simple
 *  enough for DenseMatrix::applyGate. */
bool
isWindowable(const Gate &g)
{
    return g.isUnitary() && g.kind() != GateKind::I;
}

/** Call `fn(q)` for each wire of `g`: controls first, then targets
 *  (the order of Gate::qubits()). */
template <typename Fn>
void
forEachWire(const Gate &g, Fn &&fn)
{
    for (Qubit q : g.controls())
        fn(q);
    for (Qubit q : g.targets())
        fn(q);
}

constexpr int kNotInWindow = -1;

/**
 * One window and the buffers reused to collect and multiply it. The
 * per-wire arrays span the whole register; only the wires a window
 * touched are reset before the next one.
 */
struct Window
{
    explicit Window(Qubit num_qubits)
        : local(num_qubits, kNotInWindow), skipped(num_qubits, 0)
    {
    }

    /** Member gate indices, in circuit order. */
    std::vector<size_t> members;
    /** Window wires in order of first appearance. */
    std::vector<Qubit> wires;
    /** local[q]: q's index in `wires`, or kNotInWindow. */
    std::vector<int> local;
    /** skipped[q]: q carries a skipped disjoint gate. */
    std::vector<char> skipped;
    std::vector<Qubit> skipped_wires;

    /** Product, control-list and key buffers. */
    DenseMatrix product{0};
    std::vector<int> controls;
    std::string key;
};

/**
 * Collect a window starting at `start`: member gate indices whose
 * wires stay inside a growing set of at most `max_qubits` wires.
 * Gates fully disjoint from the set are skipped over; expansion past a
 * skipped gate's wires is refused (that gate might not commute).
 * Returns one past the last gate examined: the window depends on the
 * gates in [start, end) alone.
 */
size_t
collectWindow(const Circuit &circuit, size_t start, int max_qubits,
              size_t max_gates, Window &win)
{
    for (Qubit q : win.wires)
        win.local[q] = kNotInWindow;
    for (Qubit q : win.skipped_wires)
        win.skipped[q] = 0;
    win.members.clear();
    win.wires.clear();
    win.skipped_wires.clear();

    auto in_window = [&](Qubit q) { return win.local[q] != kNotInWindow; };

    size_t j = start;
    for (; j < circuit.size() && win.members.size() < max_gates; ++j) {
        const Gate &g = circuit[j];
        if (!isWindowable(g)) {
            // Barriers / measures end the window for safety.
            bool touches = false;
            forEachWire(g, [&](Qubit q) { touches |= in_window(q); });
            if (touches || g.kind() == GateKind::Barrier)
                return j + 1;
            continue;
        }
        size_t fresh = 0;
        bool overlaps = false;
        bool blocked = false;
        forEachWire(g, [&](Qubit q) {
            if (in_window(q)) {
                overlaps = true;
            } else {
                ++fresh;
                blocked |= win.skipped[q] != 0;
            }
        });
        if (fresh == 0) {
            win.members.push_back(j);
            continue;
        }
        if (!overlaps && !win.members.empty()) {
            // Fully disjoint: skip over, but remember its wires so we
            // never expand onto them later.
            forEachWire(g, [&](Qubit q) {
                if (win.skipped[q] == 0) {
                    win.skipped[q] = 1;
                    win.skipped_wires.push_back(q);
                }
            });
            continue;
        }
        // Overlapping (or the very first gate): try to expand.
        if (blocked ||
            win.wires.size() + fresh > static_cast<size_t>(max_qubits))
            return j + 1;
        forEachWire(g, [&](Qubit q) {
            if (!in_window(q)) {
                win.local[q] = static_cast<int>(win.wires.size());
                win.wires.push_back(q);
            }
        });
        win.members.push_back(j);
    }
    return j;
}

/**
 * Canonical content of the collected window: its width, then per
 * member the kind, the control wires as a mask over local indices, the
 * local target(s) (count fixed by the kind) and, for angle kinds, the
 * angle's exact bits. The encoding is prefix-free, so equal keys mean
 * identical identityPrefix computations.
 */
void
windowKey(const Circuit &circuit, Window &win)
{
    auto append = [&](const void *bytes, size_t n) {
        win.key.append(static_cast<const char *>(bytes), n);
    };
    win.key.clear();
    win.key.push_back(static_cast<char>(win.wires.size()));
    for (size_t m : win.members) {
        const Gate &g = circuit[m];
        win.key.push_back(static_cast<char>(g.kind()));
        std::uint16_t mask = 0;
        for (Qubit c : g.controls())
            mask |= static_cast<std::uint16_t>(1u << win.local[c]);
        append(&mask, sizeof mask);
        for (Qubit t : g.targets())
            win.key.push_back(static_cast<char>(win.local[t]));
        if (isParameterized(g.kind())) {
            double param = g.param();
            append(&param, sizeof param);
        }
    }
}

/**
 * Longest prefix of the window whose product is the identity; 0 when
 * none (prefixes of length < 2 do not count).
 */
size_t
identityPrefix(const Circuit &circuit, Window &win)
{
    DenseMatrix &m = win.product;
    m.reset(static_cast<int>(win.wires.size()));
    size_t best = 0;
    for (size_t k = 0; k < win.members.size(); ++k) {
        const Gate &g = circuit[win.members[k]];
        win.controls.clear();
        for (Qubit c : g.controls())
            win.controls.push_back(win.local[c]);
        if (g.kind() == GateKind::Swap) {
            m.applySwap(win.controls, win.local[g.targets()[0]],
                        win.local[g.targets()[1]]);
        } else {
            m.applyGate(g.baseMatrix(), win.controls,
                        win.local[g.target()]);
        }
        if (k >= 1 && m.isIdentity())
            best = k + 1;
    }
    return best;
}

/** identityPrefix, answered from `memo` when the window was seen. */
size_t
memoizedIdentityPrefix(const Circuit &circuit, Window &win,
                       IdentityWindowMemo &memo)
{
    // The key's masks and bytes are exact only within DenseMatrix's
    // limit, which the product would enforce anyway.
    QSYN_ASSERT(win.wires.size() <=
                    static_cast<size_t>(DenseMatrix::kMaxQubits),
                "DenseMatrix limited to 12 qubits");
    windowKey(circuit, win);
    ++memo.windows;
    auto it = memo.prefix.find(win.key);
    if (it != memo.prefix.end()) {
        ++memo.hits;
        return it->second;
    }
    size_t prefix = identityPrefix(circuit, win);
    memo.prefix.emplace(win.key, prefix);
    return prefix;
}

} // namespace

bool
removeIdentityWindows(Circuit &circuit, int max_qubits, size_t max_gates,
                      IdentityWindowMemo *memo)
{
    IdentityWindowMemo own;
    if (memo == nullptr)
        memo = &own;
    Window win(circuit.numQubits());
    // end[s]: one past the last gate the window at start s examined.
    // A start whose range [s, end) keeps its gates through an erase
    // collects the same window with the same verdict, so a sweep after
    // an erase collects only the starts whose range lost a gate.
    std::vector<size_t> end(circuit.size());
    std::vector<size_t> starts(circuit.size());
    std::iota(starts.begin(), starts.end(), size_t{0});
    std::vector<size_t> dead;
    std::vector<bool> used;
    bool any = false;

    while (!starts.empty()) {
        dead.clear();
        used.assign(circuit.size(), false);
        for (size_t start : starts) {
            end[start] = start + 1;
            if (used[start] || !isWindowable(circuit[start]))
                continue;
            end[start] =
                collectWindow(circuit, start, max_qubits, max_gates, win);
            if (win.members.size() < 2)
                continue;
            if (std::any_of(win.members.begin(), win.members.end(),
                            [&](size_t i) { return used[i]; }))
                continue;
            size_t prefix = memoizedIdentityPrefix(circuit, win, *memo);
            if (prefix < 2)
                continue;
            for (size_t k = 0; k < prefix; ++k) {
                dead.push_back(win.members[k]);
                used[win.members[k]] = true;
            }
        }
        if (dead.empty())
            break;

        // Move every surviving start's range to the erased circuit's
        // indices, and sweep again over the starts whose range lost a
        // gate.
        std::sort(dead.begin(), dead.end());
        starts.clear();
        size_t lost = 0; // dead gates before i
        for (size_t i = 0; i < circuit.size(); ++i) {
            if (lost < dead.size() && dead[lost] == i) {
                ++lost;
                continue;
            }
            size_t lost_by_end = static_cast<size_t>(
                std::lower_bound(dead.begin() + lost, dead.end(), end[i]) -
                dead.begin());
            end[i - lost] = end[i] - lost_by_end;
            if (lost_by_end > lost)
                starts.push_back(i - lost);
        }
        circuit.eraseMany(dead);
        end.resize(circuit.size());
        any = true;
    }
    return any;
}

} // namespace qsyn::opt
