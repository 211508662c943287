#include "ir/circuit.hpp"

#include <algorithm>
#include <sstream>

#include "common/errors.hpp"

namespace qsyn {

Circuit::Circuit(Qubit num_qubits, std::string name)
    : num_qubits_(num_qubits), name_(std::move(name))
{
}

void
Circuit::resize(Qubit num_qubits)
{
    QSYN_ASSERT(num_qubits >= num_qubits_, "resize cannot shrink register");
    num_qubits_ = num_qubits;
}

void
Circuit::add(Gate gate)
{
    for (Qubit q : gate.qubits()) {
        QSYN_ASSERT(q < num_qubits_,
                    "gate wire q" + std::to_string(q) +
                        " outside register of size " +
                        std::to_string(num_qubits_));
    }
    if (gate.kind() == GateKind::Measure)
        num_cbits_ = std::max(num_cbits_, gate.cbit() + 1);
    gates_.push_back(std::move(gate));
}

void
Circuit::append(const Circuit &other)
{
    QSYN_ASSERT(other.num_qubits_ <= num_qubits_,
                "appended circuit is wider than the register");
    for (const Gate &g : other.gates_)
        add(g);
}

void
Circuit::replace(size_t i, Gate gate)
{
    QSYN_ASSERT(i < gates_.size(), "replace index out of range");
    for (Qubit q : gate.qubits())
        QSYN_ASSERT(q < num_qubits_, "gate wire outside register");
    gates_[i] = std::move(gate);
}

void
Circuit::erase(size_t i)
{
    QSYN_ASSERT(i < gates_.size(), "erase index out of range");
    gates_.erase(gates_.begin() + static_cast<ptrdiff_t>(i));
}

void
Circuit::eraseMany(const std::vector<size_t> &indices)
{
    if (indices.empty())
        return;
    QSYN_ASSERT(std::is_sorted(indices.begin(), indices.end()),
                "eraseMany requires sorted indices");
    std::vector<Gate> kept;
    kept.reserve(gates_.size() - indices.size());
    size_t next = 0;
    for (size_t i = 0; i < gates_.size(); ++i) {
        if (next < indices.size() && indices[next] == i) {
            QSYN_ASSERT(next + 1 == indices.size() ||
                            indices[next + 1] > i,
                        "eraseMany requires unique indices");
            ++next;
        } else {
            kept.push_back(std::move(gates_[i]));
        }
    }
    QSYN_ASSERT(next == indices.size(), "eraseMany index out of range");
    gates_ = std::move(kept);
}

void
Circuit::insert(size_t i, Gate gate)
{
    QSYN_ASSERT(i <= gates_.size(), "insert index out of range");
    for (Qubit q : gate.qubits())
        QSYN_ASSERT(q < num_qubits_, "gate wire outside register");
    gates_.insert(gates_.begin() + static_cast<ptrdiff_t>(i),
                  std::move(gate));
}

Circuit
Circuit::inverse() const
{
    QSYN_ASSERT(isUnitary(), "cannot invert a circuit with measurements");
    Circuit inv(num_qubits_, name_.empty() ? "" : name_ + "_inv");
    for (auto it = gates_.rbegin(); it != gates_.rend(); ++it)
        inv.add(it->inverse());
    return inv;
}

bool
Circuit::isUnitary() const
{
    // A barrier only fences the scheduler; as a matrix it is the
    // identity.
    return std::all_of(gates_.begin(), gates_.end(), [](const Gate &g) {
        return g.isUnitary() || g.kind() == GateKind::Barrier;
    });
}

bool
Circuit::isNctCascade() const
{
    return std::all_of(gates_.begin(), gates_.end(), [](const Gate &g) {
        return g.kind() == GateKind::X;
    });
}

Circuit
Circuit::remapped(const std::vector<Qubit> &map, Qubit new_num_qubits) const
{
    QSYN_ASSERT(map.size() >= num_qubits_, "remap table too small");
    Circuit out(new_num_qubits, name_);
    for (const Gate &g : gates_) {
        std::vector<Qubit> controls;
        controls.reserve(g.controls().size());
        for (Qubit c : g.controls())
            controls.push_back(map[c]);
        std::vector<Qubit> targets;
        targets.reserve(g.targets().size());
        for (Qubit t : g.targets())
            targets.push_back(map[t]);
        Gate mapped(g.kind(), std::move(controls), std::move(targets),
                    g.param());
        if (g.kind() == GateKind::Measure)
            mapped = Gate::measure(map[g.target()], g.cbit());
        out.add(std::move(mapped));
    }
    return out;
}

bool
Circuit::operator==(const Circuit &other) const
{
    if (num_qubits_ != other.num_qubits_ ||
        gates_.size() != other.gates_.size())
        return false;
    for (size_t i = 0; i < gates_.size(); ++i) {
        if (gates_[i] != other.gates_[i])
            return false;
    }
    return true;
}

std::string
Circuit::toString() const
{
    std::ostringstream os;
    os << "circuit";
    if (!name_.empty())
        os << " " << name_;
    os << " (" << num_qubits_ << " qubits, " << gates_.size() << " gates)\n";
    for (const Gate &g : gates_)
        os << "  " << g.toString() << "\n";
    return os.str();
}

CircuitStats
computeStats(const Circuit &circuit)
{
    CircuitStats s;
    for (const Gate &g : circuit) {
        if (g.kind() == GateKind::Barrier)
            continue;
        ++s.volume;
        if (g.isTGate())
            ++s.tCount;
        if (g.isCnot())
            ++s.cnotCount;
        size_t width = g.numQubits();
        if (width == 2)
            ++s.twoQubit;
        else if (width > 2)
            ++s.multiQubit;
    }
    return s;
}

} // namespace qsyn
