#include "qmdd/package.hpp"

#include <algorithm>
#include <cmath>

#include "common/errors.hpp"
#include "obs/obs.hpp"

namespace qsyn::dd {

namespace {

/** Unique-table resize trigger: a shard grows when its live nodes
 *  would exceed this percentage of its slot count. Linear probing
 *  stays short well below 70%, and growing at a fixed fraction keeps
 *  inserts amortized O(1). */
constexpr size_t kMaxLoadPercent = 65;

/** The GC sweep halves a shard when survivors use less than
 *  1/kShrinkDivisor of its slots, so a long-lived worker that saw one
 *  huge circuit does not pin a huge table forever. */
constexpr size_t kShrinkDivisor = 8;

/** Floor for setGcThreshold / the GC shrink path: below this the
 *  collector would run every few gates and thrash. */
constexpr size_t kMinGcThreshold = 1024;

/** Per-shard slot floor. Deliberately small so tiny configured
 *  capacities (tests use 16-64 total slots to force rehashing) still
 *  exercise the growth path even when spread across many shards. */
constexpr size_t kMinShardSlots = 16;

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

/** Serial source for the thread-local context lookup. Starts at 1 so
 *  a zero-initialized thread-local cache can never match. */
std::atomic<std::uint64_t> g_package_serial{1};

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
    : serial_(g_package_serial.fetch_add(1, std::memory_order_relaxed)),
      gc_threshold_(std::max(config.gcThreshold, kMinGcThreshold)),
      min_gc_threshold_(
          std::max(config.gcThreshold, kMinGcThreshold))
{
    terminal_.var = kTerminalVar;
    // Split the configured capacity evenly across shards, with a small
    // per-shard floor. Tiny totals (test configs) end up below the old
    // single-table floor of 64 on purpose: growth still triggers.
    size_t per_shard = nextPowerOfTwo(std::max(
        config.initialUniqueCapacity / kUniqueShards, kMinShardSlots));
    for (size_t i = 0; i < kUniqueShards; ++i) {
        shards_.emplace_back();
        UniqueShard &s = shards_.back();
        s.slots.assign(per_shard, nullptr);
        s.mask = per_shard - 1;
        s.minCapacity = per_shard;
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
    // Leave this thread's cache slots to its next package. compile()
    // verifies on a fresh package; freeing ~500 KiB after every compile
    // let glibc trim the top of the heap and fault it back in on the
    // next one, or not, depending on what happened to sit above it
    // (docs/performance.md).
    SpareCaches &spare = spareCaches();
    const std::thread::id self = std::this_thread::get_id();
    for (const auto &c : contexts_) {
        if (c->owner == self && spare.mul.empty()) {
            spare.mul = std::move(c->mul_cache);
            spare.add = std::move(c->add_cache);
            spare.ct = std::move(c->ct_cache);
        }
    }
}

Package::WorkerContext *
Package::context() const
{
    // One compare on the hot path: every public entry point resolves
    // the calling thread's context through this cache.
    thread_local std::uint64_t cached_serial = 0;
    thread_local WorkerContext *cached_ctx = nullptr;
    if (cached_serial == serial_)
        return cached_ctx;
    WorkerContext *ctx = contextSlow();
    cached_serial = serial_;
    cached_ctx = ctx;
    return ctx;
}

Package::WorkerContext *
Package::contextSlow() const
{
    // Reached when a thread switches packages. The contexts live in the
    // package, so nothing outlives it on the thread's side. A thread id
    // reused after a join adopts its predecessor's context; the join
    // orders the two threads' accesses.
    const std::thread::id self = std::this_thread::get_id();
    {
        std::lock_guard<std::mutex> lock(ctx_mu_);
        for (const auto &c : contexts_) {
            if (c->owner == self)
                return c.get();
        }
    }
    // Only this thread creates a context with its own id, so nobody can
    // add one between the scan and the insert.
    auto owned = std::make_unique<WorkerContext>();
    owned->owner = self;
    SpareCaches &spare = spareCaches();
    if (spare.mul.empty()) {
        owned->mul_cache.resize(2 * kMulCacheSets);
        owned->add_cache.resize(2 * kAddCacheSets);
        owned->ct_cache.resize(2 * kCtCacheSets);
    } else {
        // An earlier package's slots: keyed by its node addresses,
        // which this package may reuse, so they start empty.
        owned->mul_cache = std::move(spare.mul);
        owned->add_cache = std::move(spare.add);
        owned->ct_cache = std::move(spare.ct);
        std::fill(owned->mul_cache.begin(), owned->mul_cache.end(),
                  MulSlot{});
        std::fill(owned->add_cache.begin(), owned->add_cache.end(),
                  AddSlot{});
        std::fill(owned->ct_cache.begin(), owned->ct_cache.end(),
                  CtSlot{});
    }
    WorkerContext *ctx = owned.get();
    std::lock_guard<std::mutex> lock(ctx_mu_);
    contexts_.push_back(std::move(owned));
    return ctx;
}

Package::UniqueShard &
Package::shardOf(size_t hash)
{
    // Slot probing consumes the low hash bits (shard.mask), so the
    // shard index comes from the high half: the two selections stay
    // uncorrelated.
    return shards_[(hash >> 32) & (kUniqueShards - 1)];
}

void
Package::lockShard(UniqueShard &shard)
{
    if (shard.mu.try_lock()) {
        ++shard.lockAcquisitions;
        return;
    }
    shard.mu.lock();
    ++shard.lockAcquisitions;
    ++shard.lockContended;
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
Package::allocNode(UniqueShard &shard)
{
    auto pop = [this](UniqueShard &s) {
        Node *n = s.freeList;
        s.freeList = n->next;
        --s.freeCount;
        free_total_.fetch_sub(1, std::memory_order_relaxed);
        n->next = nullptr;
        n->mark = 0;
        return n;
    };
    if (shard.freeList != nullptr)
        return pop(shard);
    // A rebuild after GC hashes the same logical nodes to different
    // shards (hashes mix recycled pointers), so one shard's free list
    // can run dry while a sibling's is full. Steal before growing the
    // arena; try_lock keeps it deadlock-free (we hold `shard.mu`), and
    // the global counter makes the scan free while no node is free.
    if (free_total_.load(std::memory_order_relaxed) > 0) {
        for (UniqueShard &other : shards_) {
            if (&other == &shard || !other.mu.try_lock())
                continue;
            std::lock_guard<std::mutex> guard(other.mu, std::adopt_lock);
            if (other.freeList != nullptr)
                return pop(other);
        }
    }
    shard.arena.emplace_back();
    return &shard.arena.back();
}

void
Package::rehashShard(UniqueShard &shard, size_t capacity)
{
    std::vector<Node *> slots(capacity, nullptr);
    size_t mask = capacity - 1;
    for (Node *n : shard.slots) {
        if (n == nullptr)
            continue;
        size_t idx = n->hash & mask;
        while (slots[idx] != nullptr)
            idx = (idx + 1) & mask;
        slots[idx] = n;
    }
    shard.slots = std::move(slots);
    shard.mask = mask;
}

Edge
Package::makeNode(std::int32_t var, const std::array<Edge, 4> &edges)
{
    return makeNodeImpl(*context(), var, edges);
}

Edge
Package::makeNodeImpl(WorkerContext &ctx, std::int32_t var,
                      const std::array<Edge, 4> &edges)
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

    ctx.stats.bump(ctx.stats.uniqueLookups);
    size_t h = hashNode(var, e);
    UniqueShard &shard = shardOf(h);
    lockShard(shard);
    std::lock_guard<std::mutex> guard(shard.mu, std::adopt_lock);

    // Grow before probing so the insert position below stays valid.
    if ((shard.size + 1) * 100 > shard.slots.size() * kMaxLoadPercent) {
        rehashShard(shard, shard.slots.size() * 2);
        ++shard.rehashes;
    }
    size_t idx = h & shard.mask;
    while (Node *n = shard.slots[idx]) {
        if (n->hash == h && n->var == var && n->e == e) {
            ctx.stats.bump(ctx.stats.uniqueHits);
            return Edge{n, norm_ptr};
        }
        idx = (idx + 1) & shard.mask;
    }
    Node *n = allocNode(shard);
    n->var = var;
    n->e = e;
    n->hash = h;
    shard.slots[idx] = n;
    ++shard.size;
    // Peak is a *live*-node high-water mark: tracked here (the only
    // place the live count grows) so unique-table hits and free-list
    // recycling cannot inflate it.
    size_t live = live_nodes_.fetch_add(1, std::memory_order_relaxed) + 1;
    size_t peak = peak_nodes_.load(std::memory_order_relaxed);
    while (peak < live && !peak_nodes_.compare_exchange_weak(
                              peak, live, std::memory_order_relaxed)) {
    }
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
    return multiplyImpl(*context(), a, b);
}

Edge
Package::multiplyImpl(WorkerContext &ctx, const Edge &a, const Edge &b)
{
    if (a.weight == ctab_.zero() || b.weight == ctab_.zero())
        return zeroEdge();
    Edge r = mulNodes(ctx, a.node, b.node);
    if (r.weight == ctab_.zero())
        return zeroEdge();
    const Cplx *w = mulWeights(mulWeights(a.weight, b.weight), r.weight);
    if (w == ctab_.zero())
        return zeroEdge();
    return Edge{r.node, w};
}

Edge
Package::mulNodes(WorkerContext &ctx, Node *x, Node *y)
{
    ctx.stats.bump(ctx.stats.multiplies);
    if (isTerminal(x))
        return Edge{y, ctab_.one()};
    if (isTerminal(y))
        return Edge{x, ctab_.one()};

    size_t set =
        hashCombine(hashPtr(x), hashPtr(y)) & (kMulCacheSets - 1);
    MulSlot *w0 = &ctx.mul_cache[2 * set];
    MulSlot *w1 = w0 + 1;
    ctx.stats.bump(ctx.stats.computeLookups);
    if (w0->a == x && w0->b == y) {
        ctx.stats.bump(ctx.stats.computeHits);
        w0->age = 0;
        w1->age = 1;
        return w0->result;
    }
    if (w1->a == x && w1->b == y) {
        ctx.stats.bump(ctx.stats.computeHits);
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
            Edge p0 = multiplyImpl(ctx, child(ex, i, 0, top),
                                   child(ey, 0, j, top));
            Edge p1 = multiplyImpl(ctx, child(ex, i, 1, top),
                                   child(ey, 1, j, top));
            res[2 * i + j] = addImpl(ctx, p0, p1);
        }
    }
    Edge result = makeNodeImpl(ctx, top, res);
    // Evict the empty way if there is one, else the least recently
    // touched (age bit set).
    MulSlot *victim = w0->a == nullptr   ? w0
                      : w1->a == nullptr ? w1
                      : w0->age != 0     ? w0
                                         : w1;
    if (victim->a != nullptr)
        ctx.stats.bump(ctx.stats.mulEvictions);
    *victim = MulSlot{x, y, result, 0};
    (victim == w0 ? w1 : w0)->age = 1;
    return result;
}

Edge
Package::add(const Edge &a, const Edge &b)
{
    return addImpl(*context(), a, b);
}

Edge
Package::addImpl(WorkerContext &ctx, const Edge &a, const Edge &b)
{
    ctx.stats.bump(ctx.stats.additions);
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
    AddSlot *w0 = &ctx.add_cache[2 * set];
    AddSlot *w1 = w0 + 1;
    ctx.stats.bump(ctx.stats.computeLookups);
    if (w0->valid && w0->a == ka && w0->b == kb) {
        ctx.stats.bump(ctx.stats.computeHits);
        w0->age = 0;
        w1->age = 1;
        return w0->result;
    }
    if (w1->valid && w1->a == ka && w1->b == kb) {
        ctx.stats.bump(ctx.stats.computeHits);
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
            res[2 * i + j] = addImpl(ctx, child(a, i, j, top),
                                     child(b, i, j, top));
        }
    }
    Edge result = makeNodeImpl(ctx, top, res);
    AddSlot *victim = !w0->valid     ? w0
                      : !w1->valid   ? w1
                      : w0->age != 0 ? w0
                                     : w1;
    if (victim->valid)
        ctx.stats.bump(ctx.stats.addEvictions);
    *victim = AddSlot{ka, kb, result, true, 0};
    (victim == w0 ? w1 : w0)->age = 1;
    return result;
}

Edge
Package::conjugateTranspose(const Edge &a)
{
    return ctImpl(*context(), a);
}

Edge
Package::ctImpl(WorkerContext &ctx, const Edge &a)
{
    Edge r;
    if (isTerminal(a.node)) {
        r = identityEdge();
    } else {
        size_t set = hashPtr(a.node) & (kCtCacheSets - 1);
        CtSlot *w0 = &ctx.ct_cache[2 * set];
        CtSlot *w1 = w0 + 1;
        ctx.stats.bump(ctx.stats.computeLookups);
        if (w0->a == a.node) {
            ctx.stats.bump(ctx.stats.computeHits);
            w0->age = 0;
            w1->age = 1;
            r = w0->result;
        } else if (w1->a == a.node) {
            ctx.stats.bump(ctx.stats.computeHits);
            w1->age = 0;
            w0->age = 1;
            r = w1->result;
        } else {
            std::array<Edge, 4> res;
            for (int i = 0; i < 2; ++i) {
                for (int j = 0; j < 2; ++j) {
                    res[2 * i + j] =
                        ctImpl(ctx, a.node->e[2 * j + i]);
                }
            }
            r = makeNodeImpl(ctx, a.node->var, res);
            CtSlot *victim = w0->a == nullptr   ? w0
                             : w1->a == nullptr ? w1
                             : w0->age != 0     ? w0
                                                : w1;
            if (victim->a != nullptr)
                ctx.stats.bump(ctx.stats.ctEvictions);
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
    WorkerContext &ctx = *context();
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
                em[2 * i + j] = makeNodeImpl(
                    ctx, var,
                    {inactive, zeroEdge(), zeroEdge(), em[2 * i + j]});
            }
        }
        ++idx;
    }

    Edge e = makeNodeImpl(ctx, static_cast<std::int32_t>(target), em);

    // Controls above the target, bottom-up.
    while (idx < sorted.size()) {
        QSYN_ASSERT(sorted[idx] < target, "control equals target");
        e = makeNodeImpl(ctx, static_cast<std::int32_t>(sorted[idx]),
                         {identityEdge(), zeroEdge(), zeroEdge(), e});
        ++idx;
    }
    return e;
}

Edge
Package::makeSwapDD(const std::vector<Qubit> &controls, Qubit a, Qubit b)
{
    // (c-)SWAP(a,b) = CNOT(b,a) . MCX(controls + {a}, b) . CNOT(b,a)
    WorkerContext &ctx = *context();
    Mat2 x = baseMatrix(GateKind::X);
    Edge outer = makeGateDD(x, {b}, a);
    std::vector<Qubit> cs = controls;
    cs.push_back(a);
    Edge inner = makeGateDD(x, cs, b);
    return multiplyImpl(ctx, outer, multiplyImpl(ctx, inner, outer));
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
    Session session(*this);
    WorkerContext &ctx = *context();
    Edge e = identityEdge();
    for (const Gate &g : circuit) {
        if (g.kind() == GateKind::Barrier)
            continue;
        e = multiplyImpl(ctx, gateDD(g), e);
        if (live_nodes_.load(std::memory_order_relaxed) >
            gc_threshold_.load(std::memory_order_relaxed))
            requestGc();
        if (gcPending())
            safePoint({e});
    }
    return e;
}

Edge
Package::makeProjector(const std::vector<Qubit> &zero_wires)
{
    WorkerContext &ctx = *context();
    std::vector<Qubit> sorted = zero_wires;
    std::sort(sorted.begin(), sorted.end(), std::greater<>());
    Edge e = identityEdge();
    for (Qubit v : sorted) {
        e = makeNodeImpl(ctx, static_cast<std::int32_t>(v),
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
    WorkerContext &ctx = *context();
    // Max |entry| = max over paths of the product of |weight|s, which
    // decomposes level by level into a per-node maximum.
    struct Rec
    {
        Package *pkg;
        WorkerContext *ctx;
        double
        operator()(const Node *n)
        {
            if (isTerminal(n))
                return 1.0;
            auto it = ctx->mag_cache.find(n);
            if (it != ctx->mag_cache.end())
                return it->second;
            double m = 0.0;
            for (const Edge &c : n->e) {
                if (c.weight == pkg->ctab_.zero())
                    continue;
                m = std::max(m, std::abs(*c.weight) * (*this)(c.node));
            }
            ctx->mag_cache.emplace(n, m);
            return m;
        }
    } rec{this, &ctx};
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

size_t
Package::uniqueCapacity() const
{
    size_t total = 0;
    for (const UniqueShard &s : shards_) {
        std::lock_guard<std::mutex> lock(s.mu);
        total += s.slots.size();
    }
    return total;
}

double
Package::uniqueLoadFactor() const
{
    size_t cap = uniqueCapacity();
    return cap ? static_cast<double>(activeNodes()) /
                     static_cast<double>(cap)
               : 0.0;
}

size_t
Package::arenaNodes() const
{
    size_t total = 0;
    for (const UniqueShard &s : shards_) {
        std::lock_guard<std::mutex> lock(s.mu);
        total += s.arena.size();
    }
    return total;
}

size_t
Package::arenaBytes() const
{
    return arenaNodes() * sizeof(Node);
}

size_t
Package::freeListLength() const
{
    size_t total = 0;
    for (const UniqueShard &s : shards_) {
        std::lock_guard<std::mutex> lock(s.mu);
        total += s.freeCount;
    }
    return total;
}

size_t
Package::computeCacheBytes() const
{
    size_t total = 0;
    std::lock_guard<std::mutex> lock(ctx_mu_);
    for (const auto &c : contexts_) {
        total += c->mul_cache.size() * sizeof(MulSlot) +
                 c->add_cache.size() * sizeof(AddSlot) +
                 c->ct_cache.size() * sizeof(CtSlot);
    }
    return total;
}

void
Package::beginSession()
{
    WorkerContext *ctx = context();
    if (ctx->sessionDepth++ > 0)
        return;
    std::lock_guard<std::mutex> lock(gc_mu_);
    ++active_mutators_;
}

void
Package::endSession()
{
    WorkerContext *ctx = context();
    if (--ctx->sessionDepth > 0)
        return;
    std::lock_guard<std::mutex> lock(gc_mu_);
    --active_mutators_;
    if (!gc_requested_.load(std::memory_order_relaxed))
        return;
    if (active_mutators_ == 0) {
        // Last session out with a GC still pending: drop the request
        // rather than sweep, so edges the caller just built (and still
        // holds outside any session) stay alive. The next automatic
        // trigger re-requests.
        gc_requested_.store(false, std::memory_order_relaxed);
    } else if (parked_ == active_mutators_) {
        // This session was the only one not yet parked; its exit
        // completes the barrier on behalf of the waiters.
        sweepLocked({});
    }
}

void
Package::requestGc()
{
    gc_requested_.store(true, std::memory_order_relaxed);
}

void
Package::safePoint(const std::vector<Edge> &roots)
{
    if (!gcPending())
        return;
    WorkerContext *ctx = context();
    QSYN_ASSERT(ctx->sessionDepth > 0,
                "safePoint outside an active Session");
    std::unique_lock<std::mutex> lock(gc_mu_);
    if (!gc_requested_.load(std::memory_order_relaxed))
        return; // served while we took the lock
    ctx->parkedRoots = roots;
    ctx->parked = true;
    ++parked_;
    if (parked_ == active_mutators_) {
        // Everyone is at the barrier; this thread is the sweeper.
        sweepLocked({});
        return;
    }
    std::uint64_t gen = gc_generation_;
    gc_cv_.wait(lock, [&] { return gc_generation_ != gen; });
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
Package::collectGarbage(const std::vector<Edge> &roots)
{
    std::lock_guard<std::mutex> lock(gc_mu_);
    sweepLocked(roots);
}

void
Package::sweepLocked(const std::vector<Edge> &extra_roots)
{
    gc_runs_.fetch_add(1, std::memory_order_relaxed);
    ++mark_epoch_;
    for (const Edge &r : extra_roots) {
        if (r.node != nullptr)
            markReachable(r.node, mark_epoch_);
    }
    {
        // Parked sessions' published roots survive too. Their owner
        // threads are blocked on gc_cv_ (their pre-park writes ordered
        // by gc_mu_), so touching their contexts here is race-free.
        std::lock_guard<std::mutex> clock(ctx_mu_);
        for (const auto &c : contexts_) {
            if (!c->parked)
                continue;
            for (const Edge &r : c->parkedRoots) {
                if (r.node != nullptr)
                    markReachable(r.node, mark_epoch_);
            }
        }
    }

    size_t freed = 0;
    for (UniqueShard &shard : shards_) {
        std::lock_guard<std::mutex> slock(shard.mu);
        for (Node *&slot : shard.slots) {
            Node *n = slot;
            if (n == nullptr)
                continue;
            if (n->mark != mark_epoch_) {
                slot = nullptr;
                n->next = shard.freeList;
                shard.freeList = n;
                ++shard.freeCount;
                --shard.size;
                ++freed;
            }
        }
        // Open addressing cannot leave holes in probe chains: rebuild
        // the survivors' slots. Nodes themselves never move, so edges
        // (and canonicity) are untouched. Shrink the slot array when
        // survivors occupy a small fraction of it, never below the
        // shard's initial capacity.
        size_t capacity = shard.slots.size();
        while (capacity > shard.minCapacity &&
               shard.size < capacity / kShrinkDivisor)
            capacity /= 2;
        rehashShard(shard, capacity);
    }
    size_t live = live_nodes_.fetch_sub(freed, std::memory_order_relaxed)
                  - freed;
    free_total_.fetch_add(freed, std::memory_order_relaxed);

    {
        // Every thread's compute caches may hold freed nodes; clear
        // them all. Non-parked contexts belong to threads that are not
        // mutating (contract), so this cannot race.
        std::lock_guard<std::mutex> clock(ctx_mu_);
        for (const auto &c : contexts_) {
            std::fill(c->mul_cache.begin(), c->mul_cache.end(),
                      MulSlot{});
            std::fill(c->add_cache.begin(), c->add_cache.end(),
                      AddSlot{});
            std::fill(c->ct_cache.begin(), c->ct_cache.end(), CtSlot{});
            c->mag_cache.clear();
            if (c->parked) {
                c->parked = false;
                c->parkedRoots.clear();
            }
        }
    }

    // If the survivors alone still exceed the threshold, raise it so we
    // do not thrash in a GC loop; when a later sweep shows the spike
    // was transient, decay back toward the configured threshold so GC
    // re-arms for long-lived (batch-worker) packages.
    size_t thr = gc_threshold_.load(std::memory_order_relaxed);
    size_t min_thr = min_gc_threshold_.load(std::memory_order_relaxed);
    if (live > thr / 2) {
        gc_threshold_.store(thr * 2, std::memory_order_relaxed);
    } else if (thr > min_thr && live < thr / 4) {
        gc_threshold_.store(std::max(min_thr, thr / 2),
                            std::memory_order_relaxed);
    }

    // Release the barrier.
    parked_ = 0;
    gc_requested_.store(false, std::memory_order_relaxed);
    ++gc_generation_;
    gc_cv_.notify_all();
}

void
Package::setGcThreshold(size_t threshold)
{
    size_t clamped = std::max(threshold, kMinGcThreshold);
    gc_threshold_.store(clamped, std::memory_order_relaxed);
    min_gc_threshold_.store(clamped, std::memory_order_relaxed);
}

PackageStats
Package::stats() const
{
    PackageStats s;
    {
        std::lock_guard<std::mutex> lock(ctx_mu_);
        for (const auto &c : contexts_) {
            const LocalStats &l = c->stats;
            s.uniqueLookups +=
                l.uniqueLookups.load(std::memory_order_relaxed);
            s.uniqueHits += l.uniqueHits.load(std::memory_order_relaxed);
            s.multiplies += l.multiplies.load(std::memory_order_relaxed);
            s.additions += l.additions.load(std::memory_order_relaxed);
            s.computeLookups +=
                l.computeLookups.load(std::memory_order_relaxed);
            s.computeHits +=
                l.computeHits.load(std::memory_order_relaxed);
            s.mulEvictions +=
                l.mulEvictions.load(std::memory_order_relaxed);
            s.addEvictions +=
                l.addEvictions.load(std::memory_order_relaxed);
            s.ctEvictions +=
                l.ctEvictions.load(std::memory_order_relaxed);
        }
    }
    for (const UniqueShard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mu);
        s.uniqueRehashes += shard.rehashes;
    }
    s.gcRuns = gc_runs_.load(std::memory_order_relaxed);
    s.peakNodes = peak_nodes_.load(std::memory_order_relaxed);
    return s;
}

PackageStats
Package::threadStats() const
{
    PackageStats s;
    const LocalStats &l = context()->stats;
    s.uniqueLookups = l.uniqueLookups.load(std::memory_order_relaxed);
    s.uniqueHits = l.uniqueHits.load(std::memory_order_relaxed);
    s.multiplies = l.multiplies.load(std::memory_order_relaxed);
    s.additions = l.additions.load(std::memory_order_relaxed);
    s.computeLookups =
        l.computeLookups.load(std::memory_order_relaxed);
    s.computeHits = l.computeHits.load(std::memory_order_relaxed);
    s.mulEvictions = l.mulEvictions.load(std::memory_order_relaxed);
    s.addEvictions = l.addEvictions.load(std::memory_order_relaxed);
    s.ctEvictions = l.ctEvictions.load(std::memory_order_relaxed);
    for (const UniqueShard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mu);
        s.uniqueRehashes += shard.rehashes;
    }
    s.gcRuns = gc_runs_.load(std::memory_order_relaxed);
    s.peakNodes = peak_nodes_.load(std::memory_order_relaxed);
    return s;
}

void
Package::publishMetrics(const char *prefix) const
{
    obs::Sink *sink = obs::sink();
    if (sink == nullptr)
        return;
    obs::MetricsRegistry &m = sink->metrics();
    PackageStats st = stats();
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

    // Shard-level lock-contention gauges: how often makeNode had to
    // wait for another worker, the contention signal that would argue
    // for more shards.
    size_t acquisitions = 0, contended = 0;
    for (const UniqueShard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mu);
        acquisitions += shard.lockAcquisitions;
        contended += shard.lockContended;
    }
    m.setGauge(p + ".shard.count",
               static_cast<double>(shards_.size()));
    m.setGauge(p + ".shard.lock_acquisitions",
               static_cast<double>(acquisitions));
    m.setGauge(p + ".shard.lock_contended",
               static_cast<double>(contended));
    m.setGauge(p + ".shard.contention_rate",
               acquisitions ? static_cast<double>(contended) /
                                  static_cast<double>(acquisitions)
                            : 0.0);
    m.setGauge(p + ".ctab.size", static_cast<double>(ctab_.size()));
    m.setGauge(p + ".ctab.slow_inserts",
               static_cast<double>(ctab_.slowInserts()));
}

} // namespace qsyn::dd
