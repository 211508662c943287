/**
 * @file
 * OpenQASM 2.0 writer: the compiler's final output format (Fig. 2 of
 * the paper emits "QASM code" for the target machine).
 */

#pragma once

#include <string>

#include "ir/circuit.hpp"

namespace qsyn::frontend {

/** Options controlling QASM emission. */
struct QasmWriterOptions
{
    /** Leading comment line (e.g. the target device). */
    std::string headerComment;
};

/**
 * Serialize a circuit as OpenQASM 2.0: one flattened quantum register
 * `q` and, when the circuit measures, one classical register `c`.
 * Every gate must be expressible
 * with qelib1 vocabulary (up to 2 controls on X, 1 on Z/Y/H/rotations,
 * swap/cswap); wider generalized Toffolis must be decomposed first —
 * throws UserError otherwise.
 */
std::string writeQasm(const Circuit &circuit,
                      const QasmWriterOptions &options = {});

/** Write QASM to a file. Throws UserError on I/O failure. */
void writeQasmFile(const Circuit &circuit, const std::string &path,
                   const QasmWriterOptions &options = {});

} // namespace qsyn::frontend
