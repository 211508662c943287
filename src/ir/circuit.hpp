/**
 * @file
 * The Circuit: an ordered list of gates over a fixed qubit register.
 *
 * Circuits are the single currency of the compiler: parsers produce
 * them, every back-end pass (decomposition, routing, optimization)
 * rewrites them, the QMDD verifier consumes them, and the QASM writer
 * serializes them.
 */

#pragma once

#include <string>
#include <vector>

#include "ir/gate.hpp"

namespace qsyn {

/** An ordered quantum circuit on `numQubits()` wires. */
class Circuit
{
  public:
    /** Empty circuit on `num_qubits` wires. */
    explicit Circuit(Qubit num_qubits = 0, std::string name = "");

    Qubit numQubits() const { return num_qubits_; }
    Cbit numCbits() const { return num_cbits_; }
    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    /** Grow the register; existing wires are unchanged. */
    void resize(Qubit num_qubits);

    size_t size() const { return gates_.size(); }
    bool empty() const { return gates_.empty(); }

    const Gate &operator[](size_t i) const { return gates_[i]; }
    const std::vector<Gate> &gates() const { return gates_; }

    std::vector<Gate>::const_iterator begin() const { return gates_.begin(); }
    std::vector<Gate>::const_iterator end() const { return gates_.end(); }

    /** Append a gate; all its wires must be inside the register. */
    void add(Gate gate);

    /** @name Convenience emitters mirroring Gate's named constructors. */
    /// @{
    void addX(Qubit q) { add(Gate::x(q)); }
    void addY(Qubit q) { add(Gate::y(q)); }
    void addZ(Qubit q) { add(Gate::z(q)); }
    void addH(Qubit q) { add(Gate::h(q)); }
    void addS(Qubit q) { add(Gate::s(q)); }
    void addSdg(Qubit q) { add(Gate::sdg(q)); }
    void addT(Qubit q) { add(Gate::t(q)); }
    void addTdg(Qubit q) { add(Gate::tdg(q)); }
    void addCnot(Qubit c, Qubit t) { add(Gate::cnot(c, t)); }
    void addCz(Qubit c, Qubit t) { add(Gate::cz(c, t)); }
    void addCcx(Qubit a, Qubit b, Qubit t) { add(Gate::ccx(a, b, t)); }
    void addMcx(std::vector<Qubit> cs, Qubit t)
    {
        add(Gate::mcx(std::move(cs), t));
    }
    void addSwap(Qubit a, Qubit b) { add(Gate::swap(a, b)); }
    /// @}

    /** Append every gate of `other` (registers must be compatible). */
    void append(const Circuit &other);

    /** Replace the gate at index `i`. */
    void replace(size_t i, Gate gate);

    /** Erase the gate at index `i`. */
    void erase(size_t i);

    /** Erase gates at the given (sorted ascending, unique) indices. */
    void eraseMany(const std::vector<size_t> &indices);

    /** Insert a gate before index `i`. */
    void insert(size_t i, Gate gate);

    /** The adjoint circuit: reversed order, each gate inverted. */
    Circuit inverse() const;

    /** True when every gate is unitary (no measurements / barriers). */
    bool isUnitary() const;

    /** True when all gates only use {X/CNOT/CCX/MCX} (NCT cascade). */
    bool isNctCascade() const;

    /**
     * Remap every wire through `map` (old -> new); the result lives on
     * `new_num_qubits` wires. Every image must be < new_num_qubits.
     */
    Circuit remapped(const std::vector<Qubit> &map,
                     Qubit new_num_qubits) const;

    /**
     * Structural equality: same register width and the same gate
     * sequence under Gate::operator== (names and classical-bit counts
     * are ignored). This is the equality the format round-trip tests
     * and the fuzzer's determinism oracle rely on.
     */
    bool operator==(const Circuit &other) const;
    bool operator!=(const Circuit &other) const
    {
        return !(*this == other);
    }

    /** Multi-line human-readable listing. */
    std::string toString() const;

  private:
    Qubit num_qubits_;
    Cbit num_cbits_ = 0;
    std::string name_;
    std::vector<Gate> gates_;
};

/** Gate-count statistics used by Eqn. 2 and the result tables. */
struct CircuitStats
{
    size_t volume = 0;      ///< total gate count `a` (barriers excluded)
    size_t tCount = 0;      ///< uncontrolled T/T† count `t`
    size_t cnotCount = 0;   ///< singly-controlled X count `c`
    size_t twoQubit = 0;    ///< gates touching exactly two wires
    size_t multiQubit = 0;  ///< gates touching three or more wires
};

/** Compute gate statistics in one pass. */
CircuitStats computeStats(const Circuit &circuit);

} // namespace qsyn
