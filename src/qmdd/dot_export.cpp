#include "qmdd/dot_export.hpp"

#include <cmath>
#include <map>
#include <sstream>

namespace qsyn::dd {

namespace {

std::string
weightLabel(const Cplx &w)
{
    std::ostringstream os;
    os.precision(4);
    if (std::abs(w.imag()) < 1e-12) {
        os << w.real();
    } else if (std::abs(w.real()) < 1e-12) {
        os << w.imag() << "i";
    } else {
        os << w.real() << (w.imag() >= 0 ? "+" : "") << w.imag() << "i";
    }
    return os.str();
}

} // namespace

std::string
toDot(Package &pkg, const Edge &e, const DotOptions &options)
{
    (void)pkg;
    std::ostringstream os;
    os << "digraph qmdd {\n";
    os << "  rankdir=TB;\n";
    os << "  node [shape=circle];\n";
    if (!options.title.empty())
        os << "  label=\"" << options.title << "\";\n";

    std::map<const Node *, int> ids;
    std::vector<const Node *> stack;
    auto id_of = [&](const Node *n) {
        auto it = ids.find(n);
        if (it != ids.end())
            return it->second;
        int id = static_cast<int>(ids.size());
        ids.emplace(n, id);
        stack.push_back(n);
        return id;
    };

    // Root pseudo-edge.
    os << "  root [shape=point];\n";
    os << "  root -> n" << id_of(e.node) << " [label=\""
       << weightLabel(*e.weight) << "\"];\n";

    size_t cursor = 0;
    while (cursor < stack.size()) {
        const Node *n = stack[cursor++];
        if (isTerminal(n)) {
            os << "  n" << ids[n]
               << " [shape=box, label=\"1 (I)\"];\n";
            continue;
        }
        os << "  n" << ids[n] << " [label=\"x" << n->var << "\"];\n";
        static const char *kQuadrant[] = {"U00", "U01", "U10", "U11"};
        for (int i = 0; i < 4; ++i) {
            const Edge &child = n->e[i];
            if (approxZero(*child.weight))
                continue; // zero edges elided, as in Fig. 1
            os << "  n" << ids[n] << " -> n" << id_of(child.node)
               << " [label=\"" << kQuadrant[i];
            if (!approxOne(*child.weight))
                os << " (" << weightLabel(*child.weight) << ")";
            os << "\"];\n";
        }
    }
    os << "}\n";
    return os.str();
}

} // namespace qsyn::dd
