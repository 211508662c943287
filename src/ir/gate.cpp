#include "ir/gate.hpp"

#include <algorithm>
#include <sstream>

#include "common/errors.hpp"

namespace qsyn {

namespace {

/** How a gate acts on one of its wires, for commutation analysis. */
enum class WireAction
{
    Control,    ///< wire is a positive control (Z-diagonal)
    DiagTarget, ///< wire is the target of a diagonal base gate
    XTarget,    ///< wire is the target of an X / Rx base gate
    Other       ///< anything else (H, Y, Swap, Measure, ...)
};

WireAction
classifyWire(const Gate &g, Qubit w)
{
    for (Qubit c : g.controls()) {
        if (c == w)
            return WireAction::Control;
    }
    if (!g.isUnitary())
        return WireAction::Other;
    if (isDiagonal(g.kind()))
        return WireAction::DiagTarget;
    if (g.kind() == GateKind::X || g.kind() == GateKind::Rx)
        return WireAction::XTarget;
    return WireAction::Other;
}

} // namespace

Gate::Gate(GateKind kind, std::vector<Qubit> controls,
           std::vector<Qubit> targets, double param)
    : kind_(kind), controls_(std::move(controls)),
      targets_(std::move(targets)), param_(param)
{
    if (kind_ != GateKind::Barrier) {
        QSYN_ASSERT(static_cast<int>(targets_.size()) == baseArity(kind_),
                    "wrong number of targets for " + kindName(kind_));
    }
    // Wires must be pairwise distinct.
    std::vector<Qubit> all = qubits();
    std::sort(all.begin(), all.end());
    QSYN_ASSERT(std::adjacent_find(all.begin(), all.end()) == all.end(),
                "gate wires must be distinct");
    QSYN_ASSERT(controls_.empty() || isUnitary(),
                "controls on non-unitary gate");
    // Keep the control list sorted so structural equality is canonical.
    std::sort(controls_.begin(), controls_.end());
}

std::vector<Qubit>
Gate::qubits() const
{
    std::vector<Qubit> all = controls_;
    all.insert(all.end(), targets_.begin(), targets_.end());
    return all;
}

bool
Gate::usesQubit(Qubit q) const
{
    return std::find(controls_.begin(), controls_.end(), q) !=
               controls_.end() ||
           std::find(targets_.begin(), targets_.end(), q) != targets_.end();
}

Gate
Gate::inverse() const
{
    QSYN_ASSERT(kind_ != GateKind::Measure, "measurement has no inverse");
    if (isParameterized(kind_))
        return Gate(kind_, controls_, targets_, -param_);
    return Gate(inverseKind(kind_), controls_, targets_, param_);
}

bool
Gate::sameTargets(const Gate &other) const
{
    if (kind_ != GateKind::Swap)
        return targets_ == other.targets_;
    // Swap targets are an unordered pair.
    return targets_ == other.targets_ ||
           (targets_.size() == 2 && other.targets_.size() == 2 &&
            targets_[0] == other.targets_[1] &&
            targets_[1] == other.targets_[0]);
}

bool
Gate::operator==(const Gate &other) const
{
    if (kind_ != other.kind_ || controls_ != other.controls_ ||
        !sameTargets(other))
        return false;
    if (isParameterized(kind_) && !approxEqual(param_, other.param_))
        return false;
    if (kind_ == GateKind::Measure && cbit_ != other.cbit_)
        return false;
    return true;
}

bool
Gate::isInverseOf(const Gate &other) const
{
    // Compares in place against other.inverse(): parameterized kinds
    // keep their kind and negate the angle, the rest map through
    // inverseKind.
    if (!isUnitary() || !other.isUnitary())
        return false;
    GateKind inverse_kind = isParameterized(other.kind_)
                                ? other.kind_
                                : inverseKind(other.kind_);
    if (kind_ != inverse_kind || controls_ != other.controls_ ||
        !sameTargets(other))
        return false;
    return !isParameterized(kind_) || approxEqual(param_, -other.param_);
}

bool
Gate::commutesWith(const Gate &other) const
{
    if (!isUnitary() || !other.isUnitary())
        return false;
    auto compatible = [&](Qubit w, WireAction a) {
        if (!other.usesQubit(w))
            return true;
        WireAction b = classifyWire(other, w);
        bool both_z = (a == WireAction::Control ||
                       a == WireAction::DiagTarget) &&
                      (b == WireAction::Control ||
                       b == WireAction::DiagTarget);
        return both_z ||
               (a == WireAction::XTarget && b == WireAction::XTarget);
    };
    for (Qubit c : controls_) {
        if (!compatible(c, WireAction::Control))
            return false;
    }
    for (Qubit t : targets_) {
        if (!compatible(t, classifyWire(*this, t)))
            return false;
    }
    return true;
}

std::string
Gate::toString() const
{
    std::ostringstream os;
    if (kind_ == GateKind::X && !controls_.empty()) {
        if (controls_.size() == 1)
            os << "cx";
        else if (controls_.size() == 2)
            os << "ccx";
        else
            os << "mcx" << controls_.size();
    } else {
        for (size_t i = 0; i < controls_.size(); ++i)
            os << "c";
        os << kindName(kind_);
    }
    if (isParameterized(kind_))
        os << "(" << param_ << ")";
    os << " ";
    bool first = true;
    for (Qubit c : controls_) {
        os << (first ? "" : ", ") << "q" << c;
        first = false;
    }
    if (!controls_.empty())
        os << " -> ";
    first = true;
    for (Qubit t : targets_) {
        os << (first ? "" : ", ") << "q" << t;
        first = false;
    }
    if (kind_ == GateKind::Measure)
        os << " => c" << cbit_;
    return os.str();
}

} // namespace qsyn
