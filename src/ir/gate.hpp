/**
 * @file
 * The Gate: one operation in a quantum circuit.
 *
 * A gate is a base operation (GateKind) on one or two target wires plus
 * an arbitrary list of positive control wires. This uniformly encodes
 * the paper's whole vocabulary:
 *
 *   X                     -> NOT
 *   X + 1 control         -> CNOT
 *   X + 2 controls        -> Toffoli
 *   X + n-1 controls      -> generalized Toffoli T_n
 *   Z + 1 control         -> CZ
 *   Swap                  -> SWAP;  Swap + 1 control -> Fredkin
 */

#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "ir/gate_kind.hpp"
#include "ir/matrix.hpp"

namespace qsyn {

/** One gate instance: base kind + controls + targets (+ angle). */
class Gate
{
  public:
    /** Construct a fully general gate; validates wire disjointness. */
    Gate(GateKind kind, std::vector<Qubit> controls,
         std::vector<Qubit> targets, double param = 0.0);

    /** @name Named constructors for the common cases. */
    /// @{
    static Gate i(Qubit q) { return Gate(GateKind::I, {}, {q}); }
    static Gate x(Qubit q) { return Gate(GateKind::X, {}, {q}); }
    static Gate y(Qubit q) { return Gate(GateKind::Y, {}, {q}); }
    static Gate z(Qubit q) { return Gate(GateKind::Z, {}, {q}); }
    static Gate h(Qubit q) { return Gate(GateKind::H, {}, {q}); }
    static Gate s(Qubit q) { return Gate(GateKind::S, {}, {q}); }
    static Gate sdg(Qubit q) { return Gate(GateKind::Sdg, {}, {q}); }
    static Gate t(Qubit q) { return Gate(GateKind::T, {}, {q}); }
    static Gate tdg(Qubit q) { return Gate(GateKind::Tdg, {}, {q}); }
    static Gate rx(Qubit q, double a) { return Gate(GateKind::Rx, {}, {q}, a); }
    static Gate ry(Qubit q, double a) { return Gate(GateKind::Ry, {}, {q}, a); }
    static Gate rz(Qubit q, double a) { return Gate(GateKind::Rz, {}, {q}, a); }
    static Gate p(Qubit q, double a) { return Gate(GateKind::P, {}, {q}, a); }
    static Gate cnot(Qubit c, Qubit t) { return Gate(GateKind::X, {c}, {t}); }
    static Gate cz(Qubit c, Qubit t) { return Gate(GateKind::Z, {c}, {t}); }
    static Gate ccx(Qubit c0, Qubit c1, Qubit t)
    {
        return Gate(GateKind::X, {c0, c1}, {t});
    }
    static Gate mcx(std::vector<Qubit> controls, Qubit t)
    {
        return Gate(GateKind::X, std::move(controls), {t});
    }
    static Gate swap(Qubit a, Qubit b)
    {
        return Gate(GateKind::Swap, {}, {a, b});
    }
    static Gate fredkin(Qubit c, Qubit a, Qubit b)
    {
        return Gate(GateKind::Swap, {c}, {a, b});
    }
    static Gate measure(Qubit q, Cbit c)
    {
        Gate g(GateKind::Measure, {}, {q});
        g.cbit_ = c;
        return g;
    }
    static Gate barrier(std::vector<Qubit> qs)
    {
        return Gate(GateKind::Barrier, {}, std::move(qs));
    }
    /// @}

    GateKind kind() const { return kind_; }
    double param() const { return param_; }
    const std::vector<Qubit> &controls() const { return controls_; }
    const std::vector<Qubit> &targets() const { return targets_; }
    Qubit target() const { return targets_.front(); }
    Cbit cbit() const { return cbit_; }

    size_t numControls() const { return controls_.size(); }
    size_t numQubits() const { return controls_.size() + targets_.size(); }

    /** All wires the gate touches: controls first, then targets. */
    std::vector<Qubit> qubits() const;

    /** True when the gate acts on wire `q` (as control or target). */
    bool usesQubit(Qubit q) const;

    /** True for unitary kinds (everything except Measure/Barrier). */
    bool isUnitary() const { return qsyn::isUnitary(kind_); }

    /** True for an uncontrolled T or T† — the `t` term of Eqn. 2. */
    bool isTGate() const
    {
        return controls_.empty() &&
               (kind_ == GateKind::T || kind_ == GateKind::Tdg);
    }

    /** True for a singly-controlled X — the `c` term of Eqn. 2. */
    bool isCnot() const
    {
        return kind_ == GateKind::X && controls_.size() == 1;
    }

    /** True for a doubly-controlled X (Toffoli). */
    bool isToffoli() const
    {
        return kind_ == GateKind::X && controls_.size() == 2;
    }

    /** True for an X gate with >= 3 controls (generalized Toffoli). */
    bool isGeneralizedToffoli() const
    {
        return kind_ == GateKind::X && controls_.size() >= 3;
    }

    /** The inverse gate (adjoint). Invalid for Measure. */
    Gate inverse() const;

    /**
     * Exact structural equality: same kind, same control set (order-
     * insensitive), same target list, same angle within kEps.
     */
    bool operator==(const Gate &other) const;
    bool operator!=(const Gate &other) const { return !(*this == other); }

    /**
     * True when `other` is this gate's exact inverse, i.e.
     * `*this == other.inverse()` for unitary gates, decided without
     * building the inverse.
     */
    bool isInverseOf(const Gate &other) const;

    /**
     * True when this gate commutes with `other` by one of the cheap
     * syntactic rules used by the optimizer:
     *   - disjoint wire sets always commute;
     *   - two diagonal gates always commute;
     *   - a diagonal gate on a wire used only as a *control* commutes;
     *   - X/Rx on a wire used only as an X-*target* commutes.
     */
    bool commutesWith(const Gate &other) const;

    /** Human-readable rendering, e.g. "ccx q2, q3 -> q5". */
    std::string toString() const;

    /**
     * Base 2x2 unitary (kind + param). Invalid for Swap / Measure /
     * Barrier; controls are not part of the base matrix.
     */
    Mat2 baseMatrix() const { return qsyn::baseMatrix(kind_, param_); }

  private:
    /** Same target list; Swap targets compare as an unordered pair. */
    bool sameTargets(const Gate &other) const;

    GateKind kind_;
    std::vector<Qubit> controls_;
    std::vector<Qubit> targets_;
    double param_ = 0.0;
    Cbit cbit_ = 0;
};

} // namespace qsyn
