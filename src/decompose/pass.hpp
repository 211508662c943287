/**
 * @file
 * The whole-circuit decomposition pass: lowers an arbitrary IR circuit
 * to the transmon primitive library (single-qubit gates + CNOT),
 * implementing mapping steps 3 and 4 of the paper's Section 4.
 *
 * Pipeline position: runs *before* placement/routing, so the emitted
 * CNOTs are still placement-free; the CTR router then legalizes them
 * against the device coupling map.
 */

#pragma once

#include "decompose/barenco.hpp"
#include "ir/circuit.hpp"

namespace qsyn::decompose {

/** Options for the decomposition pass. */
struct DecomposeOptions
{
    /** MCX network selection (Auto picks per ancilla availability). */
    McxStrategy mcxStrategy = McxStrategy::Auto;
    /** Lower Toffolis to the 15-gate Clifford+T network. When false
     *  the output stops at the NCT + rotations level (useful for
     *  staged verification). */
    bool lowerToffoli = true;
    /** Register growth cap (e.g. the device qubit count); 0 = grow as
     *  needed. When the cap forbids clean ancillas the pass falls back
     *  to borrowed-ancilla and ancilla-free networks. */
    Qubit maxQubits = 0;
};

/** Output of the decomposition pass. */
struct DecomposeResult
{
    Circuit circuit;
    /** Ancilla wires allocated beyond the input register (clean at
     *  entry and exit; the verifier projects them onto |0>). */
    std::vector<Qubit> ancillas;
};

/**
 * Lower every gate of `input` to the primitive library. Throws
 * MappingError when an MCX cannot be realized under the options (e.g.
 * explicit CleanVChain with no allocatable ancillas).
 */
DecomposeResult decomposeToPrimitives(const Circuit &input,
                                      const DecomposeOptions &options = {});

} // namespace qsyn::decompose
