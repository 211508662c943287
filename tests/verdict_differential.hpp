/**
 * @file
 * Differential verdicts for the equivalence checker: check() (the
 * projected miter, with its direct-build fallback) against
 * checkDirect() (two full builds), on a verified pair and on near
 * misses of it. Shared by the equivalence and property suites.
 */

#pragma once

#include <gtest/gtest.h>

#include <numbers>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ir/circuit.hpp"
#include "qmdd/equivalence.hpp"

namespace qsyn::testutil {

/** Both verdicts, each on a fresh package. */
inline std::pair<dd::Equivalence, dd::Equivalence>
bothVerdicts(const Circuit &ref, const Circuit &cand,
             const dd::EquivalenceOptions &opts)
{
    dd::Package miter_pkg;
    dd::Package direct_pkg;
    return {dd::EquivalenceChecker(miter_pkg).check(ref, cand, opts),
            dd::EquivalenceChecker(direct_pkg)
                .checkDirect(ref, cand, opts)};
}

/** Expect the two checks to agree; returns whether they accepted. */
inline bool
expectSameVerdict(const Circuit &ref, const Circuit &cand,
                  const dd::EquivalenceOptions &opts,
                  const std::string &what)
{
    auto [miter, direct] = bothVerdicts(ref, cand, opts);
    EXPECT_EQ(dd::isEquivalent(miter), dd::isEquivalent(direct))
        << what << ": check() says " << dd::equivalenceName(miter)
        << ", checkDirect() says " << dd::equivalenceName(direct);
    return dd::isEquivalent(direct);
}

/** `c` with gate `index` replaced by `g`, or dropped when g is empty. */
inline Circuit
withGate(const Circuit &c, size_t index, const std::optional<Gate> &g)
{
    Circuit out(c.numQubits(), c.name());
    for (size_t i = 0; i < c.size(); ++i) {
        if (i != index)
            out.add(c[i]);
        else if (g)
            out.add(*g);
    }
    return out;
}

/** Index of the first gate `pred` accepts, if any. */
template <typename Pred>
std::optional<size_t>
firstGate(const Circuit &c, Pred pred)
{
    for (size_t i = 0; i < c.size(); ++i) {
        if (pred(c[i]))
            return i;
    }
    return std::nullopt;
}

/** Near misses of a verified output: a phase gate swapped for its
 *  adjoint, a T perturbed by 1e-7 / 1e-5 / 1e-3 rad, a CNOT dropped,
 *  and an ancilla left dirty. */
inline std::vector<std::pair<std::string, Circuit>>
nearMisses(const Circuit &out, const std::vector<Qubit> &ancillas)
{
    using std::numbers::pi;
    std::vector<std::pair<std::string, Circuit>> mutants;
    auto uncontrolled = [](const Gate &g, GateKind k) {
        return g.kind() == k && g.controls().empty();
    };
    for (GateKind k : {GateKind::T, GateKind::Tdg, GateKind::S,
                       GateKind::Sdg}) {
        if (auto i = firstGate(out, [&](const Gate &g) {
                return uncontrolled(g, k);
            })) {
            mutants.emplace_back(kindName(k) + " -> adjoint",
                                 withGate(out, *i, out[*i].inverse()));
        }
    }
    if (auto i = firstGate(out, [&](const Gate &g) {
            return uncontrolled(g, GateKind::T);
        })) {
        const std::pair<const char *, double> deltas[] = {
            {"1e-7", 1e-7}, {"1e-5", 1e-5}, {"1e-3", 1e-3}};
        for (auto [label, delta] : deltas) {
            Gate perturbed = Gate::p(out[*i].target(), pi / 4 + delta);
            mutants.emplace_back(std::string("T perturbed by ") + label,
                                 withGate(out, *i, perturbed));
        }
    }
    if (auto i = firstGate(out, [](const Gate &g) {
            return g.kind() == GateKind::X && g.controls().size() == 1;
        })) {
        mutants.emplace_back("CNOT dropped",
                             withGate(out, *i, std::nullopt));
    }
    if (!ancillas.empty()) {
        Circuit dirty = out;
        dirty.addX(ancillas.front());
        mutants.emplace_back("ancilla left dirty", dirty);
    }
    return mutants;
}

/** Run one verified pair and its near misses through both checks;
 *  returns how many near misses were refuted. */
inline size_t
differential(const Circuit &ref, const Circuit &out,
             const std::vector<Qubit> &ancillas, const std::string &what)
{
    dd::EquivalenceOptions opts;
    opts.ancillaWires = ancillas;
    EXPECT_TRUE(expectSameVerdict(ref, out, opts, what))
        << what << " should verify";
    size_t refuted = 0;
    for (const auto &[name, mutant] : nearMisses(out, ancillas)) {
        if (!expectSameVerdict(ref, mutant, opts, what + ", " + name))
            ++refuted;
    }
    return refuted;
}

} // namespace qsyn::testutil
