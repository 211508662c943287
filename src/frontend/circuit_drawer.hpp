/**
 * @file
 * ASCII circuit rendering: the textual equivalent of the paper's
 * circuit figures (Figs. 3, 5, 6), for documentation, examples, and
 * debugging of small circuits.
 *
 *     q0: ──H────●─────────
 *                │
 *     q1: ───────X────●────
 *                     │
 *     q2: ──T─────────X────
 */

#pragma once

#include <string>

#include "ir/circuit.hpp"

namespace qsyn::frontend {

/** Drawing options. */
struct DrawOptions
{
    /** Maximum rendered columns before the drawing is truncated with
     *  an ellipsis marker (0 = unlimited). */
    size_t maxColumns = 0;
};

/** Render a circuit as ASCII art, packing gates on disjoint wire
 *  spans into shared columns. */
std::string drawCircuit(const Circuit &circuit,
                        const DrawOptions &options = {});

} // namespace qsyn::frontend
