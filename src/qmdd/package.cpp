#include "qmdd/package.hpp"

#include <algorithm>
#include <cmath>

#include "common/errors.hpp"
#include "obs/obs.hpp"

namespace qsyn::dd {

namespace {

/** Unique-table resize trigger: the table grows when its live nodes
 *  would exceed this percentage of its slot count. Linear probing
 *  stays short well below 70%, and growing at a fixed fraction keeps
 *  inserts amortized O(1). */
constexpr size_t kMaxLoadPercent = 65;

/** The GC sweep halves the table when survivors use less than
 *  1/kShrinkDivisor of its slots, so a check that passed one huge
 *  intermediate product does not keep a huge table to its end. */
constexpr size_t kShrinkDivisor = 8;

/** Floor for setGcThreshold / the GC shrink path: below this the
 *  collector would run every few gates and thrash. */
constexpr size_t kMinGcThreshold = 1024;

/** Unique-table slot floor. Deliberately small so tiny configured
 *  capacities (tests use 16-64 slots to force rehashing) still
 *  exercise the growth path. */
constexpr size_t kMinUniqueSlots = 64;

size_t
nextPowerOfTwo(size_t v)
{
    size_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

size_t
hashCombine(size_t seed, size_t v)
{
    return seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

size_t
hashPtr(const void *p)
{
    auto v = reinterpret_cast<std::uintptr_t>(p);
    // Pointer values are alignment-structured; mix them.
    return static_cast<size_t>((v >> 4) * 0x9e3779b97f4a7c15ull);
}

size_t
hashEdge(const Edge &e)
{
    return hashCombine(hashPtr(e.node), hashPtr(e.weight));
}

} // namespace

size_t
Package::hashNode(std::int32_t var, const std::array<Edge, 4> &e)
{
    size_t h = static_cast<size_t>(var) * 0xc2b2ae3d27d4eb4full;
    for (const Edge &child : e)
        h = hashCombine(h, hashEdge(child));
    return h;
}

Package::Package() : Package(PackageConfig{})
{
}

Package::Package(const PackageConfig &config)
    : gc_threshold_(std::max(config.gcThreshold, kMinGcThreshold)),
      min_gc_threshold_(gc_threshold_)
{
    terminal_.var = kTerminalVar;
    // Take the slot arrays an earlier package on this thread left
    // behind. They are keyed by its node addresses, which this package
    // may reuse, so they start empty.
    SpareCaches &spare = spareCaches();
    min_capacity_ = nextPowerOfTwo(
        std::max(config.initialUniqueCapacity, kMinUniqueSlots));
    if (spare.unique.size() == min_capacity_) {
        slots_ = std::move(spare.unique);
        std::fill(slots_.begin(), slots_.end(), nullptr);
    } else {
        slots_.assign(min_capacity_, nullptr);
    }
    mask_ = min_capacity_ - 1;
    if (spare.mul.empty()) {
        mul_cache_.resize(2 * kMulCacheSets);
        add_cache_.resize(2 * kAddCacheSets);
        ct_cache_.resize(2 * kCtCacheSets);
    } else {
        mul_cache_ = std::move(spare.mul);
        add_cache_ = std::move(spare.add);
        ct_cache_ = std::move(spare.ct);
        std::fill(mul_cache_.begin(), mul_cache_.end(), MulSlot{});
        std::fill(add_cache_.begin(), add_cache_.end(), AddSlot{});
        std::fill(ct_cache_.begin(), ct_cache_.end(), CtSlot{});
    }
}

Package::SpareCaches &
Package::spareCaches()
{
    thread_local SpareCaches spare;
    return spare;
}

Package::~Package()
{
    // Leave the slot arrays to this thread's next package. compile()
    // verifies on a fresh package; freeing ~1 MiB after every compile
    // let glibc trim the top of the heap and fault it back in on the
    // next one, or not, depending on what happened to sit above it
    // (docs/performance.md).
    SpareCaches &spare = spareCaches();
    if (spare.mul.empty()) {
        spare.mul = std::move(mul_cache_);
        spare.add = std::move(add_cache_);
        spare.ct = std::move(ct_cache_);
    }
    if (spare.unique.empty() && slots_.size() == min_capacity_)
        spare.unique = std::move(slots_);
}

Edge
Package::zeroEdge()
{
    return Edge{&terminal_, ctab_.zero()};
}

Edge
Package::identityEdge()
{
    return Edge{&terminal_, ctab_.one()};
}

Edge
Package::terminalEdge(const Cplx &w)
{
    const Cplx *cw = ctab_.lookup(w);
    return Edge{&terminal_, cw};
}

Node *
Package::allocNode()
{
    if (free_list_ == nullptr) {
        arena_.emplace_back();
        return &arena_.back();
    }
    Node *n = free_list_;
    free_list_ = n->next;
    --free_count_;
    n->next = nullptr;
    n->mark = 0;
    return n;
}

void
Package::rehash(size_t capacity)
{
    std::vector<Node *> slots(capacity, nullptr);
    size_t mask = capacity - 1;
    for (Node *n : slots_) {
        if (n == nullptr)
            continue;
        size_t idx = n->hash & mask;
        while (slots[idx] != nullptr)
            idx = (idx + 1) & mask;
        slots[idx] = n;
    }
    slots_ = std::move(slots);
    mask_ = mask;
}

Edge
Package::makeNode(std::int32_t var, const std::array<Edge, 4> &edges)
{
    std::array<Edge, 4> e = edges;
    // Zero-edge canonicalization: weight zero always points at terminal.
    for (Edge &child : e) {
        if (child.weight == ctab_.zero()) {
            child.node = &terminal_;
        } else {
            QSYN_ASSERT(isTerminal(child.node) || child.node->var > var,
                        "QMDD child variable out of order");
        }
    }

    // Identity-skip reduction (also catches the all-zero node).
    if (e[1].weight == ctab_.zero() && e[2].weight == ctab_.zero() &&
        e[0] == e[3]) {
        return e[0];
    }

    // Normalize by the leftmost edge of maximal magnitude. Squared
    // magnitudes avoid a hypot per child; the pivot tolerance is
    // squared to match (all magnitudes here are bounded by ~1, so the
    // square cannot overflow or lose the eps).
    std::array<double, 4> mags2;
    double max2 = 0.0;
    for (int i = 0; i < 4; ++i) {
        mags2[i] = e[i].weight == ctab_.zero()
                       ? 0.0
                       : std::norm(*e[i].weight);
        max2 = std::max(max2, mags2[i]);
    }
    QSYN_ASSERT(max2 > 0.0, "all-zero node escaped reduction");
    const double max_mag = std::sqrt(max2);
    const double thr =
        max_mag > kWeightEps
            ? (max_mag - kWeightEps) * (max_mag - kWeightEps)
            : 0.0;
    int norm_idx = 0;
    while (mags2[norm_idx] < thr)
        ++norm_idx;
    const Cplx *norm_ptr = e[norm_idx].weight;
    if (norm_ptr != ctab_.one()) {
        // Pivot weight 1 (the common case: children of canonical nodes
        // are already normalized) leaves every ratio untouched.
        const Cplx norm = *norm_ptr;
        for (int i = 0; i < 4; ++i) {
            if (e[i].weight == ctab_.zero())
                continue;
            if (e[i].weight == norm_ptr) {
                // Covers norm_idx itself and any sibling sharing the
                // same interned weight: the ratio is exactly 1, no
                // division or table lookup needed.
                e[i].weight = ctab_.one();
            } else {
                e[i].weight = ctab_.lookup(*e[i].weight / norm);
                if (e[i].weight == ctab_.zero())
                    e[i].node = &terminal_;
            }
        }
    }

    ++stats_.uniqueLookups;
    size_t h = hashNode(var, e);
    // Grow before probing so the insert position below stays valid.
    if ((live_ + 1) * 100 > slots_.size() * kMaxLoadPercent) {
        rehash(slots_.size() * 2);
        ++stats_.uniqueRehashes;
    }
    size_t idx = h & mask_;
    while (Node *n = slots_[idx]) {
        if (n->hash == h && n->var == var && n->e == e) {
            ++stats_.uniqueHits;
            return Edge{n, norm_ptr};
        }
        idx = (idx + 1) & mask_;
    }
    Node *n = allocNode();
    n->var = var;
    n->e = e;
    n->hash = h;
    slots_[idx] = n;
    // Peak is a *live*-node high-water mark: tracked here (the only
    // place the live count grows) so unique-table hits and free-list
    // recycling cannot inflate it.
    stats_.peakNodes = std::max(stats_.peakNodes, ++live_);
    return Edge{n, norm_ptr};
}

Edge
Package::scaled(const Edge &e, const Cplx &factor)
{
    if (e.weight == ctab_.zero())
        return zeroEdge();
    const Cplx *w = ctab_.lookup(*e.weight * factor);
    if (w == ctab_.zero())
        return zeroEdge();
    return Edge{e.node, w};
}

Edge
Package::child(const Edge &x, int r, int c, std::int32_t var)
{
    if (isTerminal(x.node) || x.node->var > var) {
        // Identity-skip: diagonal continues, off-diagonal is zero.
        return r == c ? x : zeroEdge();
    }
    QSYN_ASSERT(x.node->var == var, "child() level mismatch");
    Edge stored = x.node->e[2 * r + c];
    if (stored.weight == ctab_.zero())
        return zeroEdge();
    if (x.weight == ctab_.one())
        return stored;
    if (stored.weight == ctab_.one())
        return Edge{stored.node, x.weight};
    return Edge{stored.node, ctab_.lookup(*x.weight * *stored.weight)};
}

const Cplx *
Package::mulWeights(const Cplx *a, const Cplx *b)
{
    // Normalization makes 1 by far the most common weight, and zero
    // edges are pruned before multiplication, so both fast paths fire
    // constantly; the interning lookup is the slow path.
    if (a == ctab_.one())
        return b;
    if (b == ctab_.one())
        return a;
    if (a == ctab_.zero() || b == ctab_.zero())
        return ctab_.zero();
    return ctab_.lookup(*a * *b);
}

Edge
Package::multiply(const Edge &a, const Edge &b)
{
    if (a.weight == ctab_.zero() || b.weight == ctab_.zero())
        return zeroEdge();
    Edge r = mulNodes(a.node, b.node);
    if (r.weight == ctab_.zero())
        return zeroEdge();
    const Cplx *w = mulWeights(mulWeights(a.weight, b.weight), r.weight);
    if (w == ctab_.zero())
        return zeroEdge();
    return Edge{r.node, w};
}

Edge
Package::mulNodes(Node *x, Node *y)
{
    ++stats_.multiplies;
    if (isTerminal(x))
        return Edge{y, ctab_.one()};
    if (isTerminal(y))
        return Edge{x, ctab_.one()};

    size_t set =
        hashCombine(hashPtr(x), hashPtr(y)) & (kMulCacheSets - 1);
    MulSlot *w0 = &mul_cache_[2 * set];
    MulSlot *w1 = w0 + 1;
    ++stats_.computeLookups;
    if (w0->a == x && w0->b == y) {
        ++stats_.computeHits;
        w0->age = 0;
        w1->age = 1;
        return w0->result;
    }
    if (w1->a == x && w1->b == y) {
        ++stats_.computeHits;
        w1->age = 0;
        w0->age = 1;
        return w1->result;
    }

    std::int32_t top = std::min(x->var, y->var);
    Edge ex{x, ctab_.one()};
    Edge ey{y, ctab_.one()};
    std::array<Edge, 4> res;
    for (int i = 0; i < 2; ++i) {
        for (int j = 0; j < 2; ++j) {
            Edge p0 =
                multiply(child(ex, i, 0, top), child(ey, 0, j, top));
            Edge p1 =
                multiply(child(ex, i, 1, top), child(ey, 1, j, top));
            res[2 * i + j] = add(p0, p1);
        }
    }
    Edge result = makeNode(top, res);
    // Evict the empty way if there is one, else the least recently
    // touched (age bit set).
    MulSlot *victim = w0->a == nullptr   ? w0
                      : w1->a == nullptr ? w1
                      : w0->age != 0     ? w0
                                         : w1;
    if (victim->a != nullptr)
        ++stats_.mulEvictions;
    *victim = MulSlot{x, y, result, 0};
    (victim == w0 ? w1 : w0)->age = 1;
    return result;
}

Edge
Package::add(const Edge &a, const Edge &b)
{
    ++stats_.additions;
    if (a.weight == ctab_.zero())
        return b;
    if (b.weight == ctab_.zero())
        return a;
    if (a.node == b.node) {
        const Cplx *w = ctab_.lookup(*a.weight + *b.weight);
        if (w == ctab_.zero())
            return zeroEdge();
        return Edge{a.node, w};
    }

    // Addition is commutative; canonicalize the cache key order.
    Edge ka = a, kb = b;
    if (std::make_pair(kb.node, kb.weight) <
        std::make_pair(ka.node, ka.weight))
        std::swap(ka, kb);
    size_t set =
        hashCombine(hashEdge(ka), hashEdge(kb)) & (kAddCacheSets - 1);
    AddSlot *w0 = &add_cache_[2 * set];
    AddSlot *w1 = w0 + 1;
    ++stats_.computeLookups;
    if (w0->valid && w0->a == ka && w0->b == kb) {
        ++stats_.computeHits;
        w0->age = 0;
        w1->age = 1;
        return w0->result;
    }
    if (w1->valid && w1->a == ka && w1->b == kb) {
        ++stats_.computeHits;
        w1->age = 0;
        w0->age = 1;
        return w1->result;
    }

    std::int32_t top = kTerminalVar;
    if (!isTerminal(a.node))
        top = a.node->var;
    if (!isTerminal(b.node))
        top = top == kTerminalVar ? b.node->var
                                  : std::min(top, b.node->var);
    QSYN_ASSERT(top != kTerminalVar,
                "add of two terminals must hit the same-node case");

    std::array<Edge, 4> res;
    for (int i = 0; i < 2; ++i) {
        for (int j = 0; j < 2; ++j) {
            res[2 * i + j] =
                add(child(a, i, j, top), child(b, i, j, top));
        }
    }
    Edge result = makeNode(top, res);
    AddSlot *victim = !w0->valid     ? w0
                      : !w1->valid   ? w1
                      : w0->age != 0 ? w0
                                     : w1;
    if (victim->valid)
        ++stats_.addEvictions;
    *victim = AddSlot{ka, kb, result, true, 0};
    (victim == w0 ? w1 : w0)->age = 1;
    return result;
}

Edge
Package::conjugateTranspose(const Edge &a)
{
    Edge r;
    if (isTerminal(a.node)) {
        r = identityEdge();
    } else {
        size_t set = hashPtr(a.node) & (kCtCacheSets - 1);
        CtSlot *w0 = &ct_cache_[2 * set];
        CtSlot *w1 = w0 + 1;
        ++stats_.computeLookups;
        if (w0->a == a.node) {
            ++stats_.computeHits;
            w0->age = 0;
            w1->age = 1;
            r = w0->result;
        } else if (w1->a == a.node) {
            ++stats_.computeHits;
            w1->age = 0;
            w0->age = 1;
            r = w1->result;
        } else {
            std::array<Edge, 4> res;
            for (int i = 0; i < 2; ++i) {
                for (int j = 0; j < 2; ++j) {
                    res[2 * i + j] =
                        conjugateTranspose(a.node->e[2 * j + i]);
                }
            }
            r = makeNode(a.node->var, res);
            CtSlot *victim = w0->a == nullptr   ? w0
                             : w1->a == nullptr ? w1
                             : w0->age != 0     ? w0
                                                : w1;
            if (victim->a != nullptr)
                ++stats_.ctEvictions;
            *victim = CtSlot{a.node, r, 0};
            (victim == w0 ? w1 : w0)->age = 1;
        }
    }
    if (a.weight == ctab_.one())
        return r;
    return scaled(r, std::conj(*a.weight));
}

Edge
Package::makeGateDD(const Mat2 &u, const std::vector<Qubit> &controls,
                    Qubit target)
{
    std::array<Edge, 4> em;
    for (int i = 0; i < 4; ++i)
        em[i] = terminalEdge(u.e[i]);

    std::vector<Qubit> sorted = controls;
    std::sort(sorted.begin(), sorted.end(), std::greater<>());

    // Controls below the target (larger var): fold into the quadrant
    // edges before the target node is built. When such a control is 0
    // the whole gate is inactive: diagonal quadrants fall back to the
    // identity, off-diagonal quadrants to zero.
    size_t idx = 0;
    while (idx < sorted.size() && sorted[idx] > target) {
        auto var = static_cast<std::int32_t>(sorted[idx]);
        for (int i = 0; i < 2; ++i) {
            for (int j = 0; j < 2; ++j) {
                Edge inactive = i == j ? identityEdge() : zeroEdge();
                em[2 * i + j] = makeNode(
                    var, {inactive, zeroEdge(), zeroEdge(), em[2 * i + j]});
            }
        }
        ++idx;
    }

    Edge e = makeNode(static_cast<std::int32_t>(target), em);

    // Controls above the target, bottom-up.
    while (idx < sorted.size()) {
        QSYN_ASSERT(sorted[idx] < target, "control equals target");
        e = makeNode(static_cast<std::int32_t>(sorted[idx]),
                     {identityEdge(), zeroEdge(), zeroEdge(), e});
        ++idx;
    }
    return e;
}

Edge
Package::makeSwapDD(const std::vector<Qubit> &controls, Qubit a, Qubit b)
{
    // (c-)SWAP(a,b) = CNOT(b,a) . MCX(controls + {a}, b) . CNOT(b,a)
    Mat2 x = baseMatrix(GateKind::X);
    Edge outer = makeGateDD(x, {b}, a);
    std::vector<Qubit> cs = controls;
    cs.push_back(a);
    Edge inner = makeGateDD(x, cs, b);
    return multiply(outer, multiply(inner, outer));
}

Edge
Package::gateDD(const Gate &gate)
{
    switch (gate.kind()) {
      case GateKind::I:
      case GateKind::Barrier:
        return identityEdge();
      case GateKind::Swap:
        return makeSwapDD(gate.controls(), gate.targets()[0],
                          gate.targets()[1]);
      case GateKind::Measure:
        throw InternalError("cannot build a DD for a measurement",
                            __FILE__, __LINE__);
      default:
        return makeGateDD(gate.baseMatrix(), gate.controls(),
                          gate.target());
    }
}

Edge
Package::buildCircuit(const Circuit &circuit)
{
    Edge e = identityEdge();
    for (const Gate &g : circuit) {
        if (g.kind() == GateKind::Barrier)
            continue;
        e = multiply(gateDD(g), e);
        collectGarbageIfDue({&e, 1});
    }
    return e;
}

Edge
Package::makeProjector(const std::vector<Qubit> &zero_wires)
{
    std::vector<Qubit> sorted = zero_wires;
    std::sort(sorted.begin(), sorted.end(), std::greater<>());
    Edge e = identityEdge();
    for (Qubit v : sorted) {
        e = makeNode(static_cast<std::int32_t>(v),
                     {e, zeroEdge(), zeroEdge(), zeroEdge()});
    }
    return e;
}

Cplx
Package::getEntry(const Edge &e, std::uint64_t row, std::uint64_t col,
                  int num_qubits)
{
    Cplx w = *e.weight;
    const Node *p = e.node;
    for (int v = 0; v < num_qubits; ++v) {
        int rb = static_cast<int>((row >> (num_qubits - 1 - v)) & 1);
        int cb = static_cast<int>((col >> (num_qubits - 1 - v)) & 1);
        if (isTerminal(p) || p->var > v) {
            if (rb != cb)
                return Cplx(0, 0);
            continue;
        }
        const Edge &next = p->e[2 * rb + cb];
        if (next.weight == ctab_.zero())
            return Cplx(0, 0);
        w *= *next.weight;
        p = next.node;
    }
    QSYN_ASSERT(isTerminal(p), "edge deeper than the qubit context");
    return w;
}

size_t
Package::countNodes(const Edge &e)
{
    std::vector<const Node *> stack{e.node};
    std::unordered_map<const Node *, bool> seen;
    size_t count = 0;
    while (!stack.empty()) {
        const Node *n = stack.back();
        stack.pop_back();
        if (isTerminal(n) || seen.count(n))
            continue;
        seen.emplace(n, true);
        ++count;
        for (const Edge &c : n->e) {
            if (c.node != nullptr)
                stack.push_back(c.node);
        }
    }
    return count;
}

double
Package::maxMagnitude(const Edge &e)
{
    if (e.weight == ctab_.zero())
        return 0.0;
    // Max |entry| = max over paths of the product of |weight|s, which
    // decomposes level by level into a per-node maximum.
    struct Rec
    {
        Package *pkg;
        double
        operator()(const Node *n)
        {
            if (isTerminal(n))
                return 1.0;
            auto it = pkg->mag_cache_.find(n);
            if (it != pkg->mag_cache_.end())
                return it->second;
            double m = 0.0;
            for (const Edge &c : n->e) {
                if (c.weight == pkg->ctab_.zero())
                    continue;
                m = std::max(m, std::abs(*c.weight) * (*this)(c.node));
            }
            pkg->mag_cache_.emplace(n, m);
            return m;
        }
    } rec{this};
    return std::abs(*e.weight) * rec(e.node);
}

bool
Package::approxEqualEdges(const Edge &a, const Edge &b, double eps)
{
    if (a == b)
        return true;
    Edge diff = add(a, scaled(b, Cplx(-1, 0)));
    return maxMagnitude(diff) < eps;
}

double
Package::uniqueLoadFactor() const
{
    return static_cast<double>(live_) /
           static_cast<double>(slots_.size());
}

size_t
Package::computeCacheBytes() const
{
    return mul_cache_.size() * sizeof(MulSlot) +
           add_cache_.size() * sizeof(AddSlot) +
           ct_cache_.size() * sizeof(CtSlot);
}

void
Package::markReachable(Node *n, std::uint32_t epoch)
{
    if (isTerminal(n) || n->mark == epoch)
        return;
    n->mark = epoch;
    for (Edge &c : n->e) {
        if (c.node != nullptr)
            markReachable(c.node, epoch);
    }
}

void
Package::collectGarbage(std::span<const Edge> roots)
{
    ++stats_.gcRuns;
    ++mark_epoch_;
    for (const Edge &r : roots) {
        if (r.node != nullptr)
            markReachable(r.node, mark_epoch_);
    }

    for (Node *&slot : slots_) {
        Node *n = slot;
        if (n == nullptr || n->mark == mark_epoch_)
            continue;
        slot = nullptr;
        n->next = free_list_;
        free_list_ = n;
        ++free_count_;
        --live_;
    }
    // Open addressing cannot leave holes in probe chains: rebuild the
    // survivors' slots. Nodes themselves never move, so edges (and
    // canonicity) are untouched. Shrink the slot array when survivors
    // occupy a small fraction of it, never below its initial size.
    size_t capacity = slots_.size();
    while (capacity > min_capacity_ && live_ < capacity / kShrinkDivisor)
        capacity /= 2;
    rehash(capacity);

    // The caches may hold freed nodes.
    std::fill(mul_cache_.begin(), mul_cache_.end(), MulSlot{});
    std::fill(add_cache_.begin(), add_cache_.end(), AddSlot{});
    std::fill(ct_cache_.begin(), ct_cache_.end(), CtSlot{});
    mag_cache_.clear();

    // If the survivors alone still exceed the threshold, raise it so we
    // do not thrash in a GC loop; when a later sweep shows the spike
    // was transient, decay back toward the configured threshold.
    if (live_ > gc_threshold_ / 2) {
        gc_threshold_ *= 2;
    } else if (gc_threshold_ > min_gc_threshold_ &&
               live_ < gc_threshold_ / 4) {
        gc_threshold_ = std::max(min_gc_threshold_, gc_threshold_ / 2);
    }
}

void
Package::setGcThreshold(size_t threshold)
{
    gc_threshold_ = std::max(threshold, kMinGcThreshold);
    min_gc_threshold_ = gc_threshold_;
}

void
Package::publishMetrics(const char *prefix) const
{
    obs::Sink *sink = obs::sink();
    if (sink == nullptr)
        return;
    obs::MetricsRegistry &m = sink->metrics();
    const PackageStats &st = stats_;
    std::string p(prefix);
    m.setGauge(p + ".live_nodes", static_cast<double>(activeNodes()));
    m.setGauge(p + ".peak_nodes", static_cast<double>(st.peakNodes));
    m.setGauge(p + ".arena_nodes", static_cast<double>(arenaNodes()));
    m.setGauge(p + ".arena_bytes", static_cast<double>(arenaBytes()));
    m.setGauge(p + ".compute_cache_bytes",
               static_cast<double>(computeCacheBytes()));
    m.setGauge(p + ".free_list_length",
               static_cast<double>(freeListLength()));
    m.setGauge(p + ".unique_capacity",
               static_cast<double>(uniqueCapacity()));
    m.setGauge(p + ".unique_load_factor", uniqueLoadFactor());
    m.setGauge(p + ".unique_rehashes",
               static_cast<double>(st.uniqueRehashes));
    m.setGauge(p + ".unique_lookups",
               static_cast<double>(st.uniqueLookups));
    m.setGauge(p + ".unique_hits", static_cast<double>(st.uniqueHits));
    m.setGauge(p + ".unique_hit_rate", st.uniqueHitRate());
    m.setGauge(p + ".compute_lookups",
               static_cast<double>(st.computeLookups));
    m.setGauge(p + ".compute_hits",
               static_cast<double>(st.computeHits));
    m.setGauge(p + ".compute_hit_rate", st.computeHitRate());
    m.setGauge(p + ".mul_evictions",
               static_cast<double>(st.mulEvictions));
    m.setGauge(p + ".add_evictions",
               static_cast<double>(st.addEvictions));
    m.setGauge(p + ".ct_evictions",
               static_cast<double>(st.ctEvictions));
    m.setGauge(p + ".multiplies", static_cast<double>(st.multiplies));
    m.setGauge(p + ".additions", static_cast<double>(st.additions));
    m.setGauge(p + ".gc_runs", static_cast<double>(st.gcRuns));
    m.setGauge(p + ".ctab.size", static_cast<double>(ctab_.size()));
}

} // namespace qsyn::dd
