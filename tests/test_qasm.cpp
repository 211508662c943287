/**
 * @file
 * Unit tests for the OpenQASM 2.0 front end (lexer, parser, writer).
 */

#include <gtest/gtest.h>

#include <numbers>

#include "common/errors.hpp"
#include "frontend/qasm_lexer.hpp"
#include "frontend/qasm_parser.hpp"
#include "frontend/qasm_writer.hpp"
#include "qmdd/package.hpp"

using namespace qsyn;
using namespace qsyn::frontend;

TEST(QasmLexer, TokenizesBasics)
{
    auto tokens = tokenizeQasm("OPENQASM 2.0;\ncx q[0],q[1]; // c\n");
    ASSERT_GE(tokens.size(), 10u);
    EXPECT_EQ(tokens[0].kind, TokenKind::Identifier);
    EXPECT_EQ(tokens[0].text, "OPENQASM");
    EXPECT_EQ(tokens[1].kind, TokenKind::Real);
    EXPECT_EQ(tokens.back().kind, TokenKind::EndOfFile);
}

TEST(QasmLexer, ArrowAndStrings)
{
    auto tokens = tokenizeQasm("measure q[0] -> c[0]; include \"x.inc\";");
    bool saw_arrow = false, saw_string = false;
    for (const auto &t : tokens) {
        saw_arrow |= t.kind == TokenKind::Symbol && t.text == "->";
        saw_string |= t.kind == TokenKind::String && t.text == "x.inc";
    }
    EXPECT_TRUE(saw_arrow);
    EXPECT_TRUE(saw_string);
}

TEST(QasmLexer, RejectsGarbage)
{
    EXPECT_THROW(tokenizeQasm("h q[0]; @"), ParseError);
    EXPECT_THROW(tokenizeQasm("\"unterminated"), ParseError);
}

TEST(QasmParser, BellCircuit)
{
    Circuit c = parseQasm("OPENQASM 2.0;\n"
                          "include \"qelib1.inc\";\n"
                          "qreg q[2];\n"
                          "creg c[2];\n"
                          "h q[0];\n"
                          "cx q[0],q[1];\n"
                          "measure q[0] -> c[0];\n"
                          "measure q[1] -> c[1];\n");
    EXPECT_EQ(c.numQubits(), 2u);
    EXPECT_EQ(c.numCbits(), 2u);
    ASSERT_EQ(c.size(), 4u);
    EXPECT_EQ(c[0].kind(), GateKind::H);
    EXPECT_TRUE(c[1].isCnot());
}

TEST(QasmParser, MultipleRegistersFlatten)
{
    Circuit c = parseQasm("qreg a[2]; qreg b[3]; cx a[1],b[0];");
    EXPECT_EQ(c.numQubits(), 5u);
    EXPECT_EQ(c[0].controls()[0], 1u);
    EXPECT_EQ(c[0].target(), 2u);
}

TEST(QasmParser, Broadcasting)
{
    Circuit c = parseQasm("qreg q[3]; h q;");
    EXPECT_EQ(c.size(), 3u);
    Circuit d = parseQasm("qreg a[3]; qreg b[3]; cx a,b;");
    EXPECT_EQ(d.size(), 3u);
    EXPECT_EQ(d[2].controls()[0], 2u);
    EXPECT_EQ(d[2].target(), 5u);
    // Mixed indexed/broadcast.
    Circuit e = parseQasm("qreg a[1]; qreg b[4]; cx a[0],b;");
    EXPECT_EQ(e.size(), 4u);
    EXPECT_THROW(parseQasm("qreg a[2]; qreg b[3]; cx a,b;"), ParseError);
}

TEST(QasmParser, ParameterExpressions)
{
    using std::numbers::pi;
    Circuit c = parseQasm("qreg q[1];\n"
                          "rz(pi/4) q[0];\n"
                          "rx(-pi) q[0];\n"
                          "u1(2*pi/8 + 0.5) q[0];\n"
                          "ry(cos(0)) q[0];\n");
    ASSERT_EQ(c.size(), 4u);
    EXPECT_NEAR(c[0].param(), pi / 4, 1e-12);
    EXPECT_NEAR(c[1].param(), -pi, 1e-12);
    EXPECT_NEAR(c[2].param(), pi / 4 + 0.5, 1e-12);
    EXPECT_NEAR(c[3].param(), 1.0, 1e-12);
}

TEST(QasmParser, GateDefinitionsExpand)
{
    Circuit c = parseQasm("qreg q[2];\n"
                          "gate mybell a,b { h a; cx a,b; }\n"
                          "mybell q[0],q[1];\n");
    ASSERT_EQ(c.size(), 2u);
    EXPECT_EQ(c[0].kind(), GateKind::H);
    EXPECT_TRUE(c[1].isCnot());
}

TEST(QasmParser, ParameterizedGateDefinitions)
{
    Circuit c = parseQasm("qreg q[1];\n"
                          "gate twist(t) a { rz(t/2) a; rz(t/2) a; }\n"
                          "twist(1.0) q[0];\n");
    ASSERT_EQ(c.size(), 2u);
    EXPECT_NEAR(c[0].param(), 0.5, 1e-12);
}

TEST(QasmParser, NestedGateDefinitions)
{
    Circuit c = parseQasm("qreg q[2];\n"
                          "gate inner a { h a; }\n"
                          "gate outer a,b { inner a; cx a,b; inner b; }\n"
                          "outer q[0],q[1];\n");
    EXPECT_EQ(c.size(), 3u);
}

TEST(QasmParser, StandardQelibGates)
{
    Circuit c = parseQasm(
        "qreg q[3];\n"
        "id q[0]; x q[0]; y q[0]; z q[0]; h q[0]; s q[0]; sdg q[0];\n"
        "t q[0]; tdg q[0]; cz q[0],q[1]; cy q[0],q[1]; ch q[0],q[1];\n"
        "ccx q[0],q[1],q[2]; swap q[0],q[1]; cswap q[0],q[1],q[2];\n"
        "crz(0.1) q[0],q[1]; cu1(0.2) q[0],q[1]; u2(0,0) q[2];\n"
        "u3(1,2,3) q[2];\n");
    EXPECT_GT(c.size(), 15u);
}

TEST(QasmParser, U3MatchesZYZComposition)
{
    // u3(t,p,l) must equal Rz(p) Ry(t) Rz(l) up to global phase.
    Circuit parsed = parseQasm("qreg q[1]; u3(0.7,0.4,-0.3) q[0];");
    Circuit manual(1);
    manual.add(Gate::rz(0, -0.3));
    manual.add(Gate::ry(0, 0.7));
    manual.add(Gate::rz(0, 0.4));
    dd::Package pkg;
    EXPECT_EQ(pkg.buildCircuit(parsed), pkg.buildCircuit(manual));
}

TEST(QasmParser, Errors)
{
    EXPECT_THROW(parseQasm("qreg q[2]; bogus q[0];"), ParseError);
    EXPECT_THROW(parseQasm("qreg q[2]; h q[5];"), ParseError);
    EXPECT_THROW(parseQasm("h q[0];"), ParseError); // undeclared reg
    EXPECT_THROW(parseQasm("qreg q[1]; reset q[0];"), ParseError);
    EXPECT_THROW(parseQasm("qreg q[1]; if (c == 1) x q[0];"),
                 ParseError);
    EXPECT_THROW(parseQasm("include \"other.inc\";"), ParseError);
    EXPECT_THROW(parseQasm("qreg q[2]; cx q[0];"), ParseError);
    EXPECT_THROW(parseQasm("qreg q[1]; rz() q[0];"), ParseError);
    EXPECT_THROW(parseQasm("qreg q[1]; qreg q[2];"), ParseError);
    EXPECT_THROW(
        parseQasm("qreg q[1]; opaque magic a; magic q[0];"),
        ParseError);
}

TEST(QasmParser, OutOfRangeNumericLiteralsAreParseErrors)
{
    // These used to escape as uncaught std::out_of_range from
    // std::stod/std::stoul and kill the process.
    try {
        parseQasm("qreg q[1];\nrz(1e999) q[0];");
        FAIL() << "expected ParseError";
    } catch (const ParseError &e) {
        EXPECT_NE(std::string(e.what()).find("1e999"),
                  std::string::npos);
        // The diagnostic must carry the literal's line and column.
        EXPECT_NE(std::string(e.what()).find("line 2:"),
                  std::string::npos);
    }
    EXPECT_THROW(parseQasm("qreg q[99999999999999999999];"),
                 ParseError);
}

TEST(QasmParser, RegisterWidthIsCapped)
{
    // 4096 wires is the supported maximum; one more is a ParseError
    // instead of an allocation bomb.
    EXPECT_NO_THROW(parseQasm("qreg q[4096];"));
    EXPECT_THROW(parseQasm("qreg q[4097];"), ParseError);
}

TEST(QasmParser, Barrier)
{
    Circuit c = parseQasm("qreg q[3]; barrier q; barrier q[0],q[2];");
    ASSERT_EQ(c.size(), 2u);
    EXPECT_EQ(c[0].kind(), GateKind::Barrier);
    EXPECT_EQ(c[0].targets().size(), 3u);
    EXPECT_EQ(c[1].targets().size(), 2u);
}

TEST(QasmWriter, EmitsParsableQasm)
{
    Circuit c(3, "demo");
    c.addH(0);
    c.addCnot(0, 1);
    c.addCcx(0, 1, 2);
    c.addT(2);
    c.add(Gate::measure(2, 0));

    std::string qasm = writeQasm(c);
    EXPECT_NE(qasm.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(qasm.find("ccx q[0],q[1],q[2];"), std::string::npos);
    EXPECT_NE(qasm.find("measure q[2] -> c[0];"), std::string::npos);

    Circuit round = parseQasm(qasm);
    EXPECT_EQ(round.numQubits(), 3u);
    EXPECT_EQ(round.size(), c.size());
}

TEST(QasmWriter, RoundTripPreservesUnitary)
{
    Circuit c(3, "rt");
    c.addH(0);
    c.add(Gate::rz(1, 0.25));
    c.addCz(0, 2);
    c.addSwap(1, 2);
    c.add(Gate(GateKind::P, {0}, {1}, 0.7));
    Circuit round = parseQasm(writeQasm(c));

    dd::Package pkg;
    EXPECT_EQ(pkg.buildCircuit(c), pkg.buildCircuit(round));
}

TEST(QasmWriter, RejectsWideMcx)
{
    Circuit c(5);
    c.addMcx({0, 1, 2, 3}, 4);
    EXPECT_THROW(writeQasm(c), UserError);
}
