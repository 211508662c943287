/**
 * @file
 * Graphviz DOT export of QMDDs — machine-drawn versions of the paper's
 * Fig. 1. Non-terminal vertices show their variable, the four outgoing
 * quadrant edges are labeled U00/U01/U10/U11 with their weights, and
 * zero edges are elided (as in the figure).
 */

#pragma once

#include <string>

#include "qmdd/package.hpp"

namespace qsyn::dd {

/** Options for DOT rendering. */
struct DotOptions
{
    /** Graph title, shown as a label. */
    std::string title;
};

/** Render the DD rooted at `e` as a DOT digraph, labelling every edge
 *  whose weight is not 1 with that weight. */
std::string toDot(Package &pkg, const Edge &e,
                  const DotOptions &options = {});

} // namespace qsyn::dd
