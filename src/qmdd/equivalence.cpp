#include "qmdd/equivalence.hpp"

#include <algorithm>
#include <cmath>

#include "common/deadline.hpp"
#include "common/errors.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "qmdd/vector.hpp"

namespace qsyn::dd {

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
    for (const Gate &g : circuit) {
        if (g.kind() == GateKind::Barrier)
            continue;
        QSYN_ASSERT(g.isUnitary(),
                    "equivalence checking requires unitary circuits");
        e = pkg_.multiply(pkg_.gateDD(g), e);
        // The per-gate safe point doubles as the cancellation poll:
        // a runaway verification dies here, with all invariants intact.
        deadline::check("qmdd equivalence check");
        if (pkg_.activeNodes() > pkg_.gcThreshold())
            pkg_.requestGc();
        if (pkg_.gcPending()) {
            std::vector<Edge> roots = extra_roots;
            roots.push_back(e);
            roots.push_back(start);
            pkg_.safePoint(roots);
        }
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
    if (pkg_.approxEqualEdges(a, b, opts.approxEps))
        return Equivalence::EquivalentApprox;
    if (opts.upToGlobalPhase && *b.weight != Cplx(0, 0)) {
        Cplx ratio = *a.weight / *b.weight;
        double mag = std::abs(ratio);
        if (approxEqual(mag, 1.0, 1e-6)) {
            Edge b_aligned = pkg_.scaled(b, ratio);
            if (pkg_.approxEqualEdges(a, b_aligned, opts.approxEps))
                return Equivalence::EquivalentApprox;
        }
    }
    return Equivalence::NotEquivalent;
}

Equivalence
EquivalenceChecker::checkMiter(const Circuit &a, const Circuit &b,
                               const EquivalenceOptions &opts)
{
    // Accumulate M = U_b . P . U_a^dagger, advancing whichever circuit
    // is proportionally behind so M stays near P throughout. The
    // caller guarantees that a leaves the ancilla wires idle, so
    // U_a commutes with P and M == P iff U_b . P == U_a . P.
    obs::Span span("qmdd.miter");
    const Edge p = opts.ancillaWires.empty()
                       ? pkg_.identityEdge()
                       : pkg_.makeProjector(opts.ancillaWires);
    Edge m = p;
    size_t ia = 0, ib = 0;
    const size_t na = a.size(), nb = b.size();
    while (ia < na || ib < nb) {
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
            const Gate &g = b[ib++];
            if (g.kind() == GateKind::Barrier)
                continue;
            m = pkg_.multiply(pkg_.gateDD(g), m);
        } else {
            const Gate &g = a[ia++];
            if (g.kind() == GateKind::Barrier)
                continue;
            m = pkg_.multiply(m, pkg_.gateDD(g.inverse()));
        }
        deadline::check("qmdd miter check");
        if (pkg_.activeNodes() > pkg_.gcThreshold())
            pkg_.requestGc();
        if (pkg_.gcPending())
            pkg_.safePoint({m, p});
        if (opts.nodeBudget != 0 && pkg_.activeNodes() > opts.nodeBudget)
            return Equivalence::Inconclusive;
    }
    return compareEdges(m, p, opts);
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
        // its GC safe points.
        Edge out_a = engine.applyCircuit(a, input, {input});
        Edge out_b = engine.applyCircuit(b, input, {out_a});
        double overlap = std::abs(engine.innerProduct(
            out_a, out_b, static_cast<int>(width)));
        if (std::abs(overlap - 1.0) > opts.approxEps)
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
    // Hold a mutator session for the whole check so edges that span
    // phases (the projector, ea while eb builds, the compare
    // temporaries) can never be swept by a GC another worker triggers
    // on a shared package; sessions nest, so the inner safe points
    // still park.
    Package::Session session(pkg_);
    if (opts.quickRefuteSamples > 0) {
        obs::Span refute_span("qmdd.quick_refute");
        if (quickRefute(pkg_, a, b, opts, opts.quickRefuteSamples))
            return Equivalence::NotEquivalent;
    }
    return direct ? compareBuilds(a, b, opts) : checkMiter(a, b, opts);
}

} // namespace qsyn::dd
