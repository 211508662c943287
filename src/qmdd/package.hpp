/**
 * @file
 * The QMDD package: canonical decision-diagram representation of
 * quantum transfer matrices (Miller & Thornton, ISMVL 2006; Niemann et
 * al., TCAD 2016), used by the compiler for formal equivalence checking.
 *
 * All nodes live in one Package; canonicity is global to the package,
 * so two circuits compare equal iff building them yields the *same*
 * root edge (pointer + weight pointer). See node.hpp for the
 * identity-skipping edge convention.
 *
 * Hot-path design (see docs/performance.md):
 *  - the unique table is one open-addressing table with linear probing
 *    that grows on a load-factor trigger. Rehashing moves only the slot
 *    array, never the nodes (they live in one arena), so Node* identity
 *    — and thus canonicity — survives every resize;
 *  - the mul/add/ct compute caches are 2-way set-associative with a
 *    one-bit age per way;
 *  - complex weights are interned in a ComplexTable, so equal weights
 *    are the same pointer.
 *
 * Ownership: a Package is single-threaded. One thread creates it, uses
 * it and destroys it; checks that run at the same time (batch workers,
 * qsynd requests) each own a package, so nothing in here locks.
 * Garbage collection is mark-and-sweep from explicit roots: an edge
 * survives a sweep only if it is reachable from a root the sweep is
 * given. The gate loops (buildCircuit, the EquivalenceChecker and
 * VectorEngine::applyCircuit) call collectGarbageIfDue() after every
 * step with the edges they still need.
 */

#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "ir/circuit.hpp"
#include "ir/matrix.hpp"
#include "qmdd/complex_table.hpp"
#include "qmdd/node.hpp"

namespace qsyn::dd {

/** Counter snapshot exposed for the tests, the compile report and the
 *  obs metrics surface (`qmdd.*`). */
struct PackageStats
{
    size_t uniqueLookups = 0;
    size_t uniqueHits = 0;
    /** Times the unique table grew (slots doubled, nodes untouched). */
    size_t uniqueRehashes = 0;
    size_t multiplies = 0;
    size_t additions = 0;
    /** Compute-cache probes (mul + add + conjugate-transpose). */
    size_t computeLookups = 0;
    size_t computeHits = 0;
    /** Valid compute-cache entries overwritten by a different key. */
    size_t mulEvictions = 0;
    size_t addEvictions = 0;
    size_t ctEvictions = 0;
    size_t gcRuns = 0;
    /** High-water mark of *live* nodes: tracked at unique-table insert,
     *  so hits and free-list recycling do not inflate it. */
    size_t peakNodes = 0;

    /** Fraction of unique-table lookups that found an existing node. */
    double
    uniqueHitRate() const
    {
        return uniqueLookups
                   ? static_cast<double>(uniqueHits) /
                         static_cast<double>(uniqueLookups)
                   : 0.0;
    }

    /** Fraction of compute-cache probes that hit. */
    double
    computeHitRate() const
    {
        return computeLookups
                   ? static_cast<double>(computeHits) /
                         static_cast<double>(computeLookups)
                   : 0.0;
    }
};

/** Construction-time tuning knobs. compile() verifies on a fresh
 *  package, so the defaults are sized to one miter's working set, not
 *  to a long-lived package: the unique table and the GC trigger grow
 *  on demand. Tests shrink both to force the rehash and GC paths. The
 *  compute-cache geometry is constant (the k*CacheSets below). */
struct PackageConfig
{
    /** Initial unique-table slot count, rounded up to a power of 2
     *  with a small floor. The table grows past this on demand and
     *  never shrinks below. */
    size_t initialUniqueCapacity = size_t{1} << 16;
    /** Live-node threshold that triggers automatic GC. Sized to the
     *  miter's live set, not its garbage: each sweep doubles the
     *  trigger while survivors exceed half of it and halves it back
     *  toward this floor once they shrink. */
    size_t gcThreshold = size_t{1} << 16;
};

/** Owner of all QMDD nodes plus the unique/compute tables. */
class Package
{
  public:
    Package();
    explicit Package(const PackageConfig &config);
    ~Package();

    Package(const Package &) = delete;
    Package &operator=(const Package &) = delete;

    /** @name Leaf edges */
    /// @{
    /** The zero matrix (of any dimension). */
    Edge zeroEdge();
    /** The identity (of any dimension) — terminal with weight 1. */
    Edge identityEdge();
    /** w x identity. */
    Edge terminalEdge(const Cplx &w);
    /// @}

    /**
     * Canonical node constructor: applies zero-edge canonicalization,
     * the identity-skip reduction, weight normalization, and the unique
     * table. `edges[i]` is quadrant U_{rc} with i = 2r + c. Children
     * must be at variables strictly greater than `var`.
     */
    Edge makeNode(std::int32_t var, const std::array<Edge, 4> &edges);

    /** @name Matrix algebra (memoized in the compute caches) */
    /// @{
    Edge multiply(const Edge &a, const Edge &b);
    Edge add(const Edge &a, const Edge &b);
    Edge conjugateTranspose(const Edge &a);
    /** Edge with weight scaled by `factor`. */
    Edge scaled(const Edge &e, const Cplx &factor);
    /**
     * Quadrant (r, c) of matrix edge `x` viewed at level `var`: the
     * stored child when x's node sits exactly at `var`, otherwise the
     * identity-skip expansion (diagonal continues, off-diagonal is
     * zero). Exposed for the vector engine.
     */
    Edge child(const Edge &x, int r, int c, std::int32_t var);
    /// @}

    /** @name Gate and circuit construction */
    /// @{
    /** DD of a base 2x2 unitary with positive controls. */
    Edge makeGateDD(const Mat2 &u, const std::vector<Qubit> &controls,
                    Qubit target);
    /** DD of a (controlled) SWAP. */
    Edge makeSwapDD(const std::vector<Qubit> &controls, Qubit a, Qubit b);
    /** DD of an arbitrary IR gate (must be unitary). */
    Edge gateDD(const Gate &gate);
    /** DD of a whole circuit: product of its gate DDs. Calls
     *  collectGarbageIfDue() with the running product after every
     *  gate, so edges the caller built earlier may not survive it. */
    Edge buildCircuit(const Circuit &circuit);
    /** Projector |0><0| on `zero_wires`, identity on all other wires. */
    Edge makeProjector(const std::vector<Qubit> &zero_wires);
    /// @}

    /** @name Inspection */
    /// @{
    /** Matrix entry at (row, col) for an n-qubit context. Qubit 0 is
     *  the most significant bit of the index. */
    Cplx getEntry(const Edge &e, std::uint64_t row, std::uint64_t col,
                  int num_qubits);
    /** Distinct nodes reachable from `e` (terminal excluded). */
    size_t countNodes(const Edge &e);
    /** Largest entry magnitude of the represented matrix. */
    double maxMagnitude(const Edge &e);
    /** Nodes currently alive in the unique table. */
    size_t activeNodes() const { return live_; }
    /** Live-node high-water mark (see PackageStats::peakNodes). */
    size_t peakNodes() const { return stats_.peakNodes; }
    /** Current unique-table slot count. */
    size_t uniqueCapacity() const { return slots_.size(); }
    /** Live nodes / slots; the resize trigger keeps this under the
     *  internal maximum (kMaxLoadPercent). */
    double uniqueLoadFactor() const;
    /** Nodes ever allocated from the node arena (live + recycled). */
    size_t arenaNodes() const { return arena_.size(); }
    /** Bytes the node arena holds (allocator high-water, since the
     *  arena never shrinks); the per-compile resource accounting's
     *  `qmdd_arena_bytes` source. */
    size_t arenaBytes() const { return arena_.size() * sizeof(Node); }
    /** Reclaimed nodes awaiting reuse. */
    size_t freeListLength() const { return free_count_; }
    /** Bytes of mul/add/ct compute-cache slots (the
     *  `compute_cache_bytes` gauge). */
    size_t computeCacheBytes() const;
    /** Counter snapshot. */
    PackageStats stats() const { return stats_; }
    /**
     * Publish the package's counters as `<prefix>.*` gauges on the
     * installed obs sink: live/peak nodes, table lookup/hit counts and
     * rates, allocator internals (arena size, free-list length), table
     * capacity/load factor, per-cache eviction counts and the complex
     * table's size. No-op when observability is off; last package
     * published wins on collisions.
     */
    void publishMetrics(const char *prefix = "qmdd") const;
    /// @}

    /**
     * Tolerant structural comparison: true when the two matrices agree
     * entrywise within eps (computed as max|A - B| < eps). Used as a
     * fallback when float drift breaks exact pointer canonicity.
     */
    bool approxEqualEdges(const Edge &a, const Edge &b, double eps = 1e-6);

    /** @name Garbage collection */
    /// @{
    /**
     * Mark-and-sweep: everything reachable from `roots` survives,
     * every other node is recycled, and the compute caches and the
     * maxMagnitude memo are cleared. Any edge not reachable from a
     * root is invalid afterwards. The sweep also adapts the GC
     * threshold to the survivors (see PackageConfig::gcThreshold).
     */
    void collectGarbage(std::span<const Edge> roots);

    /**
     * The gate loops' automatic GC: sweep with `roots` once live nodes
     * pass the threshold. True when it swept, so a caller that keeps a
     * memo keyed by nodes (the vector engine) knows to clear it.
     */
    bool
    collectGarbageIfDue(std::span<const Edge> roots)
    {
        if (live_ <= gc_threshold_)
            return false;
        collectGarbage(roots);
        return true;
    }

    /** Live-node threshold that triggers automatic GC (clamped to a
     *  small floor so it can never be set to a thrash-inducing zero). */
    void setGcThreshold(size_t threshold);
    size_t gcThreshold() const { return gc_threshold_; }
    /// @}

  private:
    /** Sets per compute cache (each set holds 2 ways). The caches are
     *  zeroed when a package is created (allocated only when no
     *  earlier package on the thread left its slots behind) and
     *  cleared by every GC, and compile() verifies on a fresh package,
     *  so their size is paid per compile. The miter stays near the
     *  projector, so its working set is small: these are the smallest
     *  sizes (mul swept over 2^8..2^16 with add = mul/2, ct = mul/16)
     *  that keep `multiplies` within 5% of 2^16 mul sets on every
     *  benchmark workload (paper_tables +2.8%, the most;
     *  docs/performance.md). They take 560 KiB per package
     *  (computeCacheBytes(); the budget is 1 MiB). */
    static constexpr size_t kMulCacheSets = size_t{1} << 12;
    static constexpr size_t kAddCacheSets = size_t{1} << 11;
    static constexpr size_t kCtCacheSets = size_t{1} << 8;

    /** One way of a 2-way set-associative product-cache set. `age`
     *  is the pseudo-LRU bit: 0 = most recently touched in its set. */
    struct MulSlot
    {
        const Node *a = nullptr;
        const Node *b = nullptr;
        Edge result;
        std::uint8_t age = 0;
    };
    /** One way of the 2-way sum cache. */
    struct AddSlot
    {
        Edge a{};
        Edge b{};
        Edge result;
        bool valid = false;
        std::uint8_t age = 0;
    };
    /** One way of the 2-way conjugate-transpose cache. */
    struct CtSlot
    {
        const Node *a = nullptr;
        Edge result;
        std::uint8_t age = 0;
    };

    /** Slot arrays a destroyed package left to the thread that
     *  destroyed it, for the thread's next package (see ~Package). */
    struct SpareCaches
    {
        std::vector<MulSlot> mul;
        std::vector<AddSlot> add;
        std::vector<CtSlot> ct;
        /** Unique-table slots, kept only at a package's initial size. */
        std::vector<Node *> unique;
    };
    /** The calling thread's spare slots (empty when it has none). */
    static SpareCaches &spareCaches();

    Edge mulNodes(Node *x, Node *y);

    /** Weight-pointer product with O(1) fast paths for 0 and 1. */
    const Cplx *mulWeights(const Cplx *a, const Cplx *b);

    Node *allocNode();

    /** Rebuild the slot array at `capacity` slots (nodes stay put). */
    void rehash(size_t capacity);

    void markReachable(Node *n, std::uint32_t epoch);

    static size_t hashNode(std::int32_t var,
                           const std::array<Edge, 4> &e);

    ComplexTable ctab_;
    Node terminal_;

    /** The unique table: open addressing, nullptr = empty slot.
     *  Deletion happens only in the GC sweep, which rebuilds it. */
    std::vector<Node *> slots_;
    size_t mask_ = 0;
    /** Nodes in the table, i.e. live nodes. */
    size_t live_ = 0;
    /** Initial slot count; a sweep never shrinks the table below it. */
    size_t min_capacity_ = 0;
    /** Node storage; a deque keeps Node* stable as it grows. */
    std::deque<Node> arena_;
    Node *free_list_ = nullptr;
    size_t free_count_ = 0;

    std::vector<MulSlot> mul_cache_;
    std::vector<AddSlot> add_cache_;
    std::vector<CtSlot> ct_cache_;
    std::unordered_map<const Node *, double> mag_cache_;

    PackageStats stats_;
    std::uint32_t mark_epoch_ = 0;
    size_t gc_threshold_;
    size_t min_gc_threshold_;
};

} // namespace qsyn::dd
