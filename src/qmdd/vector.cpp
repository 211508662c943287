#include "qmdd/vector.hpp"

#include <map>

#include "common/errors.hpp"

namespace qsyn::dd {

Edge
VectorEngine::makeVectorNode(std::int32_t var, const Edge &zero_cof,
                             const Edge &one_cof)
{
    // Vector skip rule: a zero |1>-cofactor means "this qubit is |0>",
    // which the skipping edge encodes implicitly (this also folds the
    // all-zero case into the zero edge).
    if (approxZero(*one_cof.weight))
        return zero_cof;
    return pkg_.makeNode(var, {zero_cof, one_cof, pkg_.zeroEdge(),
                               pkg_.zeroEdge()});
}

Edge
VectorEngine::makeBasisState(std::uint64_t basis, Qubit num_qubits)
{
    Edge e = pkg_.identityEdge(); // terminal 1 = |0...0> of the rest
    for (Qubit level = num_qubits; level-- > 0;) {
        // Qubits beyond the 64-bit basis index are implicitly |0>.
        unsigned shift = static_cast<unsigned>(num_qubits - 1 - level);
        bool bit = shift < 64 && ((basis >> shift) & 1);
        if (bit) {
            e = makeVectorNode(static_cast<std::int32_t>(level),
                               pkg_.zeroEdge(), e);
        }
        // bit == 0 is the implicit skip; nothing to build.
    }
    return e;
}

Edge
VectorEngine::vectorChild(const Edge &vec, int b, std::int32_t var)
{
    if (isTerminal(vec.node) || vec.node->var > var) {
        // Skipped level: the qubit is |0>.
        return b == 0 ? vec : pkg_.zeroEdge();
    }
    QSYN_ASSERT(vec.node->var == var, "vectorChild level mismatch");
    Edge stored = vec.node->e[b];
    if (approxZero(*stored.weight))
        return pkg_.zeroEdge();
    if (approxOne(*vec.weight))
        return stored;
    return pkg_.scaled(stored, *vec.weight);
}

Edge
VectorEngine::matVec(const Edge &mat, const Edge &vec)
{
    if (approxZero(*mat.weight) || approxZero(*vec.weight))
        return pkg_.zeroEdge();
    Edge r = matVecNodes(mat.node, vec.node);
    return pkg_.scaled(r, *mat.weight * *vec.weight);
}

Edge
VectorEngine::matVecNodes(Node *mat, Node *vec)
{
    if (isTerminal(mat))
        return Edge{vec, pkg_.identityEdge().weight}; // identity matrix

    auto &row = matvec_cache_[mat];
    auto hit = row.find(vec);
    if (hit != row.end())
        return hit->second;

    std::int32_t top = mat->var;
    if (!isTerminal(vec))
        top = std::min(top, vec->var);

    Edge em{mat, pkg_.identityEdge().weight};
    Edge ev{vec, pkg_.identityEdge().weight};
    Edge out[2];
    for (int i = 0; i < 2; ++i) {
        Edge p0 = matVec(pkg_.child(em, i, 0, top),
                         vectorChild(ev, 0, top));
        Edge p1 = matVec(pkg_.child(em, i, 1, top),
                         vectorChild(ev, 1, top));
        out[i] = pkg_.add(p0, p1);
    }
    Edge result = makeVectorNode(top, out[0], out[1]);
    row.emplace(vec, result);
    return result;
}

Edge
VectorEngine::applyGate(const Gate &gate, const Edge &state)
{
    if (gate.kind() == GateKind::Barrier)
        return state;
    return matVec(pkg_.gateDD(gate), state);
}

Edge
VectorEngine::applyCircuit(const Circuit &circuit, const Edge &state,
                           const std::vector<Edge> &live)
{
    // GC only through the session protocol: on a shared package a
    // direct sweep could free nodes another worker is multiplying.
    Package::Session session(pkg_);
    Edge e = state;
    for (const Gate &g : circuit) {
        if (g.kind() == GateKind::Barrier)
            continue;
        QSYN_ASSERT(g.isUnitary(),
                    "vector simulation requires unitary gates");
        e = applyGate(g, e);
        if (pkg_.activeNodes() > pkg_.gcThreshold())
            pkg_.requestGc();
        if (pkg_.gcPending()) {
            std::vector<Edge> roots = live;
            roots.push_back(e);
            pkg_.safePoint(roots);
            matvec_cache_.clear(); // its keys may have been recycled
        }
    }
    return e;
}

Cplx
VectorEngine::amplitude(const Edge &state, std::uint64_t index,
                        int num_qubits)
{
    Cplx w = *state.weight;
    const Node *p = state.node;
    for (int v = 0; v < num_qubits; ++v) {
        // Index bits beyond 64 qubits are implicitly 0.
        int shift = num_qubits - 1 - v;
        int bit = shift < 64
                      ? static_cast<int>((index >> shift) & 1)
                      : 0;
        if (isTerminal(p) || p->var > v) {
            if (bit != 0)
                return Cplx(0, 0); // skipped qubits are |0>
            continue;
        }
        const Edge &next = p->e[bit];
        if (approxZero(*next.weight))
            return Cplx(0, 0);
        w *= *next.weight;
        p = next.node;
    }
    QSYN_ASSERT(isTerminal(p), "state deeper than the qubit context");
    return w;
}

Cplx
VectorEngine::innerProduct(const Edge &a, const Edge &b, int num_qubits)
{
    (void)num_qubits;
    // <a|b> over node pairs with the weights factored out.
    struct Rec
    {
        VectorEngine *self;
        std::map<std::pair<const Node *, const Node *>, Cplx> memo;

        Cplx
        operator()(const Node *na, const Node *nb)
        {
            if (isTerminal(na) && isTerminal(nb))
                return Cplx(1, 0);
            auto key = std::make_pair(na, nb);
            auto it = memo.find(key);
            if (it != memo.end())
                return it->second;
            std::int32_t top = kTerminalVar;
            if (!isTerminal(na))
                top = na->var;
            if (!isTerminal(nb))
                top = top == kTerminalVar
                          ? nb->var
                          : std::min(top, nb->var);
            Edge ea{const_cast<Node *>(na),
                    self->pkg_.identityEdge().weight};
            Edge eb{const_cast<Node *>(nb),
                    self->pkg_.identityEdge().weight};
            Cplx acc(0, 0);
            for (int bit = 0; bit < 2; ++bit) {
                Edge ca = self->vectorChild(ea, bit, top);
                Edge cb = self->vectorChild(eb, bit, top);
                if (approxZero(*ca.weight) || approxZero(*cb.weight))
                    continue;
                acc += std::conj(*ca.weight) * *cb.weight *
                       (*this)(ca.node, cb.node);
            }
            memo.emplace(key, acc);
            return acc;
        }
    } rec{this, {}};
    return std::conj(*a.weight) * *b.weight * rec(a.node, b.node);
}

double
VectorEngine::normSquared(const Edge &state, int num_qubits)
{
    return innerProduct(state, state, num_qubits).real();
}

} // namespace qsyn::dd
