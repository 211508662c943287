#include "frontend/circuit_drawer.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "common/strings.hpp"

namespace qsyn::frontend {

namespace {

/** Cell label for the gate's target wire(s). */
std::string
targetLabel(const Gate &g)
{
    switch (g.kind()) {
      case GateKind::X:
        return "X";
      case GateKind::Swap:
        return "x";
      case GateKind::Measure:
        return "M";
      case GateKind::Barrier:
        return "=";
      case GateKind::Rx:
      case GateKind::Ry:
      case GateKind::Rz:
      case GateKind::P: {
        std::string name = toLower(kindName(g.kind()));
        name[0] = static_cast<char>(std::toupper(name[0]));
        return name;
      }
      default: {
        std::string name = kindName(g.kind());
        for (char &c : name)
            c = static_cast<char>(std::toupper(c));
        if (name == "SDG")
            return "S+";
        if (name == "TDG")
            return "T+";
        return name;
      }
    }
}

} // namespace

std::string
drawCircuit(const Circuit &circuit, const DrawOptions &options)
{
    Qubit n = circuit.numQubits();
    if (n == 0)
        return "(empty register)\n";

    // Column assignment: greedy left-packing on wire *spans* so the
    // vertical connectors never collide.
    std::vector<size_t> next_free(n, 0);
    struct Placed
    {
        const Gate *gate;
        size_t column;
    };
    std::vector<Placed> placed;
    size_t num_columns = 0;
    for (const Gate &g : circuit) {
        auto wires = g.qubits();
        if (wires.empty())
            continue;
        Qubit lo = *std::min_element(wires.begin(), wires.end());
        Qubit hi = *std::max_element(wires.begin(), wires.end());
        size_t column = 0;
        for (Qubit q = lo; q <= hi; ++q)
            column = std::max(column, next_free[q]);
        for (Qubit q = lo; q <= hi; ++q)
            next_free[q] = column + 1;
        placed.push_back({&g, column});
        num_columns = std::max(num_columns, column + 1);
    }

    bool truncated = false;
    if (options.maxColumns != 0 && num_columns > options.maxColumns) {
        num_columns = options.maxColumns;
        truncated = true;
    }

    // Cell grid: rows 2q are wires, odd rows are the gaps between.
    size_t rows = 2 * static_cast<size_t>(n) - 1;
    std::vector<std::vector<std::string>> cells(
        rows, std::vector<std::string>(num_columns));
    std::vector<std::vector<bool>> vertical(
        rows, std::vector<bool>(num_columns, false));

    for (const Placed &p : placed) {
        if (p.column >= num_columns)
            continue;
        const Gate &g = *p.gate;
        auto wires = g.qubits();
        Qubit lo = *std::min_element(wires.begin(), wires.end());
        Qubit hi = *std::max_element(wires.begin(), wires.end());
        for (Qubit c : g.controls())
            cells[2 * c][p.column] = "*";
        for (Qubit t : g.targets())
            cells[2 * t][p.column] = targetLabel(g);
        if (g.kind() == GateKind::Barrier) {
            for (Qubit t : g.targets())
                cells[2 * t][p.column] = "=";
        }
        // Vertical connector through the span.
        if (hi > lo) {
            for (size_t r = 2 * lo + 1; r < 2 * hi; ++r)
                vertical[r][p.column] = true;
        }
    }

    // Column widths.
    std::vector<size_t> widths(num_columns, 1);
    for (size_t c = 0; c < num_columns; ++c) {
        for (size_t r = 0; r < rows; ++r)
            widths[c] = std::max(widths[c], cells[r][c].size());
    }

    std::ostringstream os;
    size_t label_width = std::to_string(n - 1).size();
    for (size_t r = 0; r < rows; ++r) {
        bool is_wire = r % 2 == 0;
        if (is_wire) {
            std::string label = "q" + std::to_string(r / 2) + ":";
            os << label
               << std::string(label_width + 3 - label.size() + 1, ' ');
        } else {
            os << std::string(label_width + 4, ' ');
        }
        char fill = is_wire ? '-' : ' ';
        for (size_t c = 0; c < num_columns; ++c) {
            os << fill << fill;
            std::string cell = cells[r][c];
            if (cell.empty() && vertical[r][c])
                cell = "|";
            if (cell.empty())
                cell = std::string(1, fill);
            // Center-pad to the column width.
            size_t pad = widths[c] - cell.size();
            size_t left = pad / 2;
            os << std::string(left, fill) << cell
               << std::string(pad - left, fill);
        }
        os << fill << fill;
        if (is_wire && truncated)
            os << " ...";
        os << "\n";
    }
    if (truncated) {
        os << "(" << placed.size() << " gates total; drawing truncated "
           << "to " << num_columns << " columns)\n";
    }
    return os.str();
}

} // namespace qsyn::frontend
