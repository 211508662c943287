/**
 * @file
 * Shared helpers for the table-reproduction benchmark binaries.
 */

#pragma once

#include <string>

#include "core/qsyn.hpp"

namespace qsyn::bench {

/** "T/gates/cost" cell in the format of the paper's tables. */
std::string metricCell(const StageMetrics &m);

/** Percentage with two decimals, e.g. "8.48". */
std::string percentCell(double percent);

/** Seconds with three decimals + verification verdict suffix. */
std::string timingCell(const CompileResult &result);

/**
 * Compile `input` for `device` with default options (Eqn. 2 weights,
 * identity placement, CTR routing, full optimization + verification).
 */
CompileResult compileForTable(const Circuit &input, const Device &device);

} // namespace qsyn::bench
