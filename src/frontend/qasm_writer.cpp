#include "frontend/qasm_writer.hpp"

#include <fstream>
#include <map>
#include <sstream>

#include "common/errors.hpp"
#include "common/strings.hpp"

namespace qsyn::frontend {

namespace {

std::string
qubitRef(Qubit q)
{
    return "q[" + std::to_string(q) + "]";
}

std::string
paramText(double value)
{
    std::ostringstream os;
    os.precision(17);
    os << value;
    return os.str();
}

void
writeGate(std::ostringstream &os, const Gate &g)
{
    const auto &cs = g.controls();
    auto unsupported = [&]() -> UserError {
        return UserError("gate '" + g.toString() +
                         "' is not expressible in OpenQASM 2.0 / qelib1; "
                         "decompose it first");
    };

    switch (g.kind()) {
      case GateKind::Barrier: {
        os << "barrier";
        for (size_t i = 0; i < g.targets().size(); ++i)
            os << (i == 0 ? " " : ",") << qubitRef(g.targets()[i]);
        os << ";\n";
        return;
      }
      case GateKind::Measure:
        os << "measure " << qubitRef(g.target()) << " -> c[" << g.cbit()
           << "];\n";
        return;
      case GateKind::Swap:
        if (cs.size() == 0) {
            os << "swap " << qubitRef(g.targets()[0]) << ","
               << qubitRef(g.targets()[1]) << ";\n";
        } else if (cs.size() == 1) {
            os << "cswap " << qubitRef(cs[0]) << ","
               << qubitRef(g.targets()[0]) << ","
               << qubitRef(g.targets()[1]) << ";\n";
        } else {
            throw unsupported();
        }
        return;
      case GateKind::X:
        if (cs.size() == 0)
            os << "x " << qubitRef(g.target()) << ";\n";
        else if (cs.size() == 1)
            os << "cx " << qubitRef(cs[0]) << ","
               << qubitRef(g.target()) << ";\n";
        else if (cs.size() == 2)
            os << "ccx " << qubitRef(cs[0]) << ","
               << qubitRef(cs[1]) << "," << qubitRef(g.target())
               << ";\n";
        else
            throw unsupported();
        return;
      default:
        break;
    }

    // Remaining kinds: single-target gates with at most one control.
    std::string base = kindName(g.kind());
    if (g.kind() == GateKind::P)
        base = "u1";
    std::string name;
    if (cs.empty()) {
        name = base == "id" ? "id" : base;
    } else if (cs.size() == 1) {
        static const std::map<std::string, std::string> kControlled = {
            {"y", "cy"}, {"z", "cz"},   {"h", "ch"},
            {"rz", "crz"}, {"u1", "cu1"}};
        auto it = kControlled.find(base);
        if (it == kControlled.end())
            throw unsupported();
        name = it->second;
    } else {
        throw unsupported();
    }

    os << name;
    if (isParameterized(g.kind()))
        os << "(" << paramText(g.param()) << ")";
    os << " ";
    for (Qubit c : cs)
        os << qubitRef(c) << ",";
    os << qubitRef(g.target()) << ";\n";
}

} // namespace

std::string
writeQasm(const Circuit &circuit, const QasmWriterOptions &options)
{
    std::ostringstream os;
    if (!options.headerComment.empty())
        os << "// " << options.headerComment << "\n";
    if (!circuit.name().empty())
        os << "// circuit: " << circuit.name() << "\n";
    os << "OPENQASM 2.0;\n";
    os << "include \"qelib1.inc\";\n";
    os << "qreg q[" << circuit.numQubits() << "];\n";
    if (circuit.numCbits() > 0)
        os << "creg c[" << circuit.numCbits() << "];\n";

    for (const Gate &g : circuit)
        writeGate(os, g);
    return os.str();
}

void
writeQasmFile(const Circuit &circuit, const std::string &path,
              const QasmWriterOptions &options)
{
    std::ofstream out(path);
    if (!out)
        throw UserError("cannot write QASM file '" + path + "'");
    out << writeQasm(circuit, options);
    if (!out)
        throw UserError("I/O error while writing '" + path + "'");
}

} // namespace qsyn::frontend
