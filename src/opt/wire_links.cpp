#include "opt/wire_links.hpp"

namespace qsyn::opt {

WireLinks::WireLinks(const Circuit &circuit)
    : offset_(circuit.size() + 1, 0)
{
    for (size_t i = 0; i < circuit.size(); ++i)
        offset_[i + 1] = offset_[i] + circuit[i].numQubits();
    gate_.resize(offset_.back());
    prev_.assign(offset_.back(), kNone);
    next_.assign(offset_.back(), kNone);
    // The slot of the latest gate on each wire.
    std::vector<size_t> last(circuit.numQubits(), kNone);
    for (size_t i = 0; i < circuit.size(); ++i) {
        size_t s = offset_[i];
        auto link = [&](Qubit w) {
            gate_[s] = i;
            prev_[s] = last[w];
            if (last[w] != kNone)
                next_[last[w]] = s;
            last[w] = s++;
        };
        for (Qubit w : circuit[i].controls())
            link(w);
        for (Qubit w : circuit[i].targets())
            link(w);
    }
}

void
WireLinks::unlink(size_t i)
{
    for (size_t s = offset_[i]; s < offset_[i + 1]; ++s) {
        if (prev_[s] != kNone)
            next_[prev_[s]] = next_[s];
        if (next_[s] != kNone)
            prev_[next_[s]] = prev_[s];
        prev_[s] = next_[s] = kNone;
    }
}

} // namespace qsyn::opt
