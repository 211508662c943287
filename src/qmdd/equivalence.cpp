#include "qmdd/equivalence.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/deadline.hpp"
#include "common/errors.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "qmdd/vector.hpp"

namespace qsyn::dd {

namespace {

/** Tolerance of the EquivalentApprox fallback verdict and of the
 *  quick refutation's overlap test. */
constexpr double kApproxEps = 1e-6;

} // namespace

const char *
equivalenceName(Equivalence e)
{
    switch (e) {
      case Equivalence::Equivalent:
        return "equivalent";
      case Equivalence::EquivalentUpToPhase:
        return "equivalent up to global phase";
      case Equivalence::EquivalentApprox:
        return "equivalent (within tolerance)";
      case Equivalence::NotEquivalent:
        return "NOT equivalent";
      case Equivalence::Inconclusive:
        return "inconclusive (node budget exhausted)";
    }
    return "?";
}

bool
EquivalenceChecker::buildOnto(const Circuit &circuit, Edge start,
                              size_t budget, Edge *out,
                              const std::vector<Edge> &extra_roots)
{
    Edge e = start;
    // The GC roots: the caller's edges, the start and (last) e.
    std::vector<Edge> roots = extra_roots;
    roots.push_back(start);
    roots.push_back(e);
    for (const Gate &g : circuit) {
        if (g.kind() == GateKind::Barrier)
            continue;
        QSYN_ASSERT(g.isUnitary(),
                    "equivalence checking requires unitary circuits");
        e = pkg_.multiply(pkg_.gateDD(g), e);
        // The per-gate poll: a runaway verification dies here, with
        // all invariants intact.
        deadline::check("qmdd equivalence check");
        roots.back() = e;
        pkg_.collectGarbageIfDue(roots);
        if (budget != 0 && pkg_.activeNodes() > budget)
            return false;
    }
    *out = e;
    return true;
}

Equivalence
EquivalenceChecker::compareEdges(const Edge &a, const Edge &b,
                                 const EquivalenceOptions &opts)
{
    if (a == b)
        return Equivalence::Equivalent;
    if (a.node == b.node) {
        double ma = std::abs(*a.weight);
        double mb = std::abs(*b.weight);
        if (opts.upToGlobalPhase && approxEqual(ma, mb, kWeightEps))
            return Equivalence::EquivalentUpToPhase;
    }
    // Tolerant fallback: exact pointer canonicity can be lost to float
    // drift over very long gate products.
    if (pkg_.approxEqualEdges(a, b, kApproxEps))
        return Equivalence::EquivalentApprox;
    if (opts.upToGlobalPhase && *b.weight != Cplx(0, 0)) {
        Cplx ratio = *a.weight / *b.weight;
        double mag = std::abs(ratio);
        if (approxEqual(mag, 1.0, 1e-6)) {
            Edge b_aligned = pkg_.scaled(b, ratio);
            if (pkg_.approxEqualEdges(a, b_aligned, kApproxEps))
                return Equivalence::EquivalentApprox;
        }
    }
    return Equivalence::NotEquivalent;
}

namespace {

/**
 * Most wires one fused miter step may touch. Chosen by a width sweep
 * (docs/performance.md): at 2, wide96's checks take twice as long; at
 * 4, deep5's and paper_tables' take a third to a half longer.
 */
constexpr size_t kFuseWires = 3;

/**
 * End of the maximal run of `c` that starts at `begin` and whose
 * gates together touch at most kFuseWires wires. A wider gate is a
 * run of its own; a barrier neither counts nor ends a run.
 */
size_t
fusedRunEnd(const Circuit &c, size_t begin)
{
    std::array<Qubit, kFuseWires> wires{};
    size_t used = 0;
    // Add q to the run's wires; false when that would overfill them.
    auto join = [&](Qubit q) {
        if (std::find(wires.begin(), wires.begin() + used, q) !=
            wires.begin() + used)
            return true;
        if (used == kFuseWires)
            return false;
        wires[used++] = q;
        return true;
    };
    for (size_t i = begin; i < c.size(); ++i) {
        const Gate &g = c[i];
        if (g.kind() == GateKind::Barrier)
            continue;
        if (g.numQubits() > kFuseWires)
            return used == 0 ? i + 1 : i;
        if (!std::all_of(g.controls().begin(), g.controls().end(), join) ||
            !std::all_of(g.targets().begin(), g.targets().end(), join))
            return i;
    }
    return c.size();
}

/**
 * Multiply the run of `c` that starts at *pos into one block and
 * advance *pos past it: the run's product for the candidate, the
 * adjoint of the run's product for the reference. Polls the deadline
 * after every gate.
 */
Edge
fusedBlock(Package &pkg, const Circuit &c, size_t *pos, bool reference)
{
    const size_t end = fusedRunEnd(c, *pos);
    Edge f = pkg.identityEdge();
    for (; *pos < end; ++*pos) {
        const Gate &g = c[*pos];
        if (g.kind() == GateKind::Barrier)
            continue;
        f = reference ? pkg.multiply(f, pkg.gateDD(g.inverse()))
                      : pkg.multiply(pkg.gateDD(g), f);
        deadline::check("qmdd miter check");
    }
    return f;
}

} // namespace

Equivalence
EquivalenceChecker::checkMiter(const Circuit &a, const Circuit &b,
                               const EquivalenceOptions &opts)
{
    // Accumulate M = U_b . P . U_a^dagger, advancing whichever circuit
    // is proportionally behind so M stays near P throughout. The
    // caller guarantees that a leaves the ancilla wires idle, so
    // U_a commutes with P and M == P iff U_b . P == U_a . P. Each step
    // first multiplies a run of gates on at most kFuseWires wires into
    // a block of at most 21 nodes, then the block into M, so M is
    // rebuilt once per run instead of once per gate.
    obs::Span span("qmdd.miter");
    const Edge p = opts.ancillaWires.empty()
                       ? pkg_.identityEdge()
                       : pkg_.makeProjector(opts.ancillaWires);
    Edge m = p;
    size_t ia = 0, ib = 0, steps_a = 0, steps_b = 0;
    const size_t na = a.size(), nb = b.size();
    bool over_budget = false;
    while (!over_budget && (ia < na || ib < nb)) {
        bool advance_b;
        if (ib >= nb) {
            advance_b = false;
        } else if (ia >= na) {
            advance_b = true;
        } else {
            // Compare progress fractions ib/nb vs ia/na without division.
            advance_b = ib * na <= ia * nb;
        }
        if (advance_b) {
            m = pkg_.multiply(fusedBlock(pkg_, b, &ib, false), m);
            ++steps_b;
        } else {
            m = pkg_.multiply(m, fusedBlock(pkg_, a, &ia, true));
            ++steps_a;
        }
        pkg_.collectGarbageIfDue(std::array{m, p});
        over_budget =
            opts.nodeBudget != 0 && pkg_.activeNodes() > opts.nodeBudget;
    }
    span.arg("steps_a", steps_a);
    span.arg("steps_b", steps_b);
    return over_budget ? Equivalence::Inconclusive
                       : compareEdges(m, p, opts);
}

Equivalence
EquivalenceChecker::compareBuilds(const Circuit &a, const Circuit &b,
                                  const EquivalenceOptions &opts)
{
    Edge start = opts.ancillaWires.empty()
                     ? pkg_.identityEdge()
                     : pkg_.makeProjector(opts.ancillaWires);

    Edge ea;
    {
        obs::Span build_a("qmdd.build_reference");
        if (!buildOnto(a, start, opts.nodeBudget, &ea, {start}))
            return Equivalence::Inconclusive;
    }
    Edge eb;
    {
        obs::Span build_b("qmdd.build_candidate");
        if (!buildOnto(b, start, opts.nodeBudget, &eb, {start, ea}))
            return Equivalence::Inconclusive;
    }
    return compareEdges(ea, eb, opts);
}

namespace {

/**
 * Push random basis inputs (ancillas pinned to |0>) through both
 * circuits; true when a counterexample distinguishes them.
 */
bool
quickRefute(Package &pkg, const Circuit &a, const Circuit &b,
            const EquivalenceOptions &opts, size_t samples)
{
    Qubit width = std::max(a.numQubits(), b.numQubits());
    VectorEngine engine(pkg);
    Rng rng(0x5eedu);
    for (size_t trial = 0; trial < samples; ++trial) {
        deadline::check("quick-refute sampling");
        Circuit prep(width);
        for (Qubit q = 0; q < width; ++q) {
            bool is_ancilla =
                std::find(opts.ancillaWires.begin(),
                          opts.ancillaWires.end(),
                          q) != opts.ancillaWires.end();
            if (!is_ancilla && rng.chance(0.5))
                prep.addX(q);
        }
        Edge input = engine.applyCircuit(prep,
                                         engine.makeBasisState(0, width));
        // Each run keeps what the next steps still read alive through
        // its GC sweeps.
        Edge out_a = engine.applyCircuit(a, input, {input});
        Edge out_b = engine.applyCircuit(b, input, {out_a});
        double overlap = std::abs(engine.innerProduct(
            out_a, out_b, static_cast<int>(width)));
        if (std::abs(overlap - 1.0) > kApproxEps)
            return true; // definite counterexample
    }
    return false;
}

/** True when a non-barrier gate of `circuit` acts on one of `wires`. */
bool
actsOnAny(const Circuit &circuit, const std::vector<Qubit> &wires)
{
    for (const Gate &g : circuit) {
        if (g.kind() == GateKind::Barrier)
            continue;
        for (Qubit w : wires) {
            if (g.usesQubit(w))
                return true;
        }
    }
    return false;
}

} // namespace

Equivalence
EquivalenceChecker::check(const Circuit &a, const Circuit &b,
                          const EquivalenceOptions &opts)
{
    return decide(a, b, opts, actsOnAny(a, opts.ancillaWires));
}

Equivalence
EquivalenceChecker::checkDirect(const Circuit &a, const Circuit &b,
                                const EquivalenceOptions &opts)
{
    return decide(a, b, opts, true);
}

Equivalence
EquivalenceChecker::decide(const Circuit &a, const Circuit &b,
                           const EquivalenceOptions &opts, bool direct)
{
    if (!a.isUnitary() || !b.isUnitary()) {
        throw UserError(
            "equivalence checking requires measurement-free circuits");
    }
    obs::Span span("qmdd.equivalence_check");
    span.arg("gates_a", static_cast<double>(a.size()));
    span.arg("gates_b", static_cast<double>(b.size()));
    if (opts.quickRefuteSamples > 0) {
        obs::Span refute_span("qmdd.quick_refute");
        if (quickRefute(pkg_, a, b, opts, opts.quickRefuteSamples))
            return Equivalence::NotEquivalent;
    }
    return direct ? compareBuilds(a, b, opts) : checkMiter(a, b, opts);
}

} // namespace qsyn::dd
