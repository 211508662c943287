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
 *  - the unique table is *sharded by node hash* into independently
 *    locked stripes; each shard is open-addressing with linear probing
 *    and grows on a load-factor trigger. Rehashing moves only the
 *    shard's slot array, never the nodes (each shard owns its node
 *    arena), so Node* identity — and thus canonicity — survives every
 *    resize;
 *  - the mul/add/ct compute caches are 2-way set-associative with a
 *    one-bit age per way and are **per thread** (a WorkerContext is
 *    created lazily for every thread that touches the package), so the
 *    single-thread hot path probes them without any synchronization;
 *  - complex-weight interning (ComplexTable) probes lock-free and
 *    serializes only first-time inserts, so weight-pointer canonicity
 *    holds across threads.
 *
 * Concurrency contract: a Package may be used from many threads at
 * once (the `--share-manager` batch mode). Node creation and matrix
 * algebra are safe anywhere, but garbage collection is a stop-the-
 * world mark-and-sweep coordinated at *safe points*: every thread that
 * runs long gate-product loops must hold a Package::Session and call
 * safePoint() with its live roots between gates (buildCircuit and the
 * EquivalenceChecker do this internally). GC runs only when every
 * active session is parked at a safe point, with the union of parked
 * roots kept alive. Single-threaded use degenerates to the old
 * behavior: the lone session reaches its safe point and sweeps inline.
 */

#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ir/circuit.hpp"
#include "ir/matrix.hpp"
#include "qmdd/complex_table.hpp"
#include "qmdd/node.hpp"

namespace qsyn::dd {

/** Counter snapshot exposed for the micro-benchmarks, tests, and the
 *  obs metrics surface (`qmdd.*`). Plain values: the live counters are
 *  kept per worker thread (and per shard) and merged into this struct
 *  on demand, so a snapshot is exact even while other threads run. */
struct PackageStats
{
    size_t uniqueLookups = 0;
    size_t uniqueHits = 0;
    /** Times a unique-table shard grew (slots doubled, nodes untouched). */
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
 *  shard count and the compute-cache geometry are constants (see
 *  Package::kUniqueShards and the k*CacheSets below it). */
struct PackageConfig
{
    /** Initial unique-table slot count, summed across shards (each
     *  shard rounds its slice up to a power of 2, with a small floor).
     *  Shards grow past this on demand and never shrink below. */
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

    /**
     * RAII mark that the current thread is actively mutating the
     * package (a "mutator"). Garbage collection waits until every
     * session is parked at a safePoint(), so threads that share a
     * package must wrap their gate-product loops in a Session (or use
     * buildCircuit / EquivalenceChecker, which do). Reentrant per
     * thread; cheap when nested.
     */
    class Session
    {
      public:
        explicit Session(Package &pkg) : pkg_(pkg)
        {
            pkg_.beginSession();
        }
        ~Session() { pkg_.endSession(); }
        Session(const Session &) = delete;
        Session &operator=(const Session &) = delete;

      private:
        Package &pkg_;
    };

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
     * must be at variables strictly greater than `var`. Thread-safe.
     */
    Edge makeNode(std::int32_t var, const std::array<Edge, 4> &edges);

    /** @name Matrix algebra (thread-safe; memoized per thread) */
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
    /** DD of a whole circuit: product of its gate DDs. Opens a Session
     *  and hits a GC safe point after every gate. */
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
    /** Nodes currently alive across all unique-table shards. */
    size_t
    activeNodes() const
    {
        return live_nodes_.load(std::memory_order_relaxed);
    }
    /** Live-node high-water mark (see PackageStats::peakNodes). */
    size_t
    peakNodes() const
    {
        return peak_nodes_.load(std::memory_order_relaxed);
    }
    /** Current unique-table slot count, summed over shards. */
    size_t uniqueCapacity() const;
    /** Number of unique-table shards. */
    size_t uniqueShards() const { return kUniqueShards; }
    /** Live nodes / slots; each shard's resize trigger keeps its own
     *  ratio under the internal maximum (kMaxLoadPercent). */
    double uniqueLoadFactor() const;
    /** Nodes ever allocated from the shard arenas (live + recycled). */
    size_t arenaNodes() const;
    /** Bytes the node arenas hold (allocator high-water, since arenas
     *  never shrink); the per-compile resource accounting's
     *  `qmdd_arena_bytes` source. */
    size_t arenaBytes() const;
    /** Reclaimed nodes awaiting reuse, summed over shards. */
    size_t freeListLength() const;
    /** Bytes of mul/add/ct compute-cache slots, summed over every
     *  thread's worker context (the `compute_cache_bytes` gauge). */
    size_t computeCacheBytes() const;
    /** Exact merged counter snapshot: per-thread counters summed over
     *  every worker context plus the shard/global counters. */
    PackageStats stats() const;
    /** The calling thread's share of the counters (its worker context)
     *  plus the global peak/GC/rehash values. Lets a shared-manager
     *  compile attribute table traffic to itself by diffing two
     *  snapshots around its verification. */
    PackageStats threadStats() const;
    /**
     * Publish the package's counters as `<prefix>.*` gauges on the
     * installed obs sink: live/peak nodes, table lookup/hit counts and
     * rates, allocator internals (arena size, free-list length), table
     * capacity/load factor, per-cache eviction counts, and the
     * `<prefix>.shard.*` lock-contention gauges. No-op when
     * observability is off; last package published wins on collisions.
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
     * Stop-the-world mark-and-sweep. Everything reachable from `roots`
     * (plus the published roots of any session parked at a safe point)
     * survives; every thread's compute caches are cleared. Safe to
     * call directly only when no *other* thread is mutating the
     * package; concurrent callers use requestGc() + safePoint().
     */
    void collectGarbage(const std::vector<Edge> &roots);

    /** Ask for a GC at the next point every active session is parked.
     *  Cheap and idempotent. */
    void requestGc();

    /** True when a GC has been requested and not yet run. The hot
     *  per-gate check: one relaxed load. */
    bool
    gcPending() const
    {
        return gc_requested_.load(std::memory_order_relaxed);
    }

    /**
     * Park the calling session with its live `roots` until the
     * requested GC has run (the last session to park performs the
     * sweep inline). Call between gates whenever gcPending(); no-op if
     * the request was already served. Must hold a Session.
     */
    void safePoint(const std::vector<Edge> &roots);

    /** Live-node threshold that triggers automatic GC (clamped to a
     *  small floor so it can never be set to a thrash-inducing zero). */
    void setGcThreshold(size_t threshold);
    size_t
    gcThreshold() const
    {
        return gc_threshold_.load(std::memory_order_relaxed);
    }
    /// @}

  private:
    /** Unique-table shards, each under its own lock, so concurrent
     *  workers rarely wait on one another. */
    static constexpr size_t kUniqueShards = 16;
    /** Sets per compute cache (each set holds 2 ways, per thread).
     *  A thread's caches are zeroed on its first call into a package
     *  (allocated only when no earlier package on the thread left its
     *  slots behind) and cleared by every GC, and compile() verifies
     *  on a fresh package, so their size is paid per compile. The
     *  miter stays near the projector, so its working set is small:
     *  these are the smallest sizes (mul swept over 2^8..2^16 with
     *  add = mul/2, ct = mul/16) that keep `multiplies` within 5% of
     *  2^16 mul sets on every benchmark workload (paper_tables +2.8%,
     *  the most; docs/performance.md). They take 560 KiB per thread
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

    /** Monotonic counters owned by one worker thread. Relaxed atomics:
     *  increments are uncontended (own cache line), and stats() reads
     *  them race-free while the owner keeps running. */
    struct LocalStats
    {
        std::atomic<size_t> uniqueLookups{0};
        std::atomic<size_t> uniqueHits{0};
        std::atomic<size_t> multiplies{0};
        std::atomic<size_t> additions{0};
        std::atomic<size_t> computeLookups{0};
        std::atomic<size_t> computeHits{0};
        std::atomic<size_t> mulEvictions{0};
        std::atomic<size_t> addEvictions{0};
        std::atomic<size_t> ctEvictions{0};

        void
        bump(std::atomic<size_t> &c)
        {
            c.store(c.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
        }
    };

    /**
     * Per-thread state: the compute caches, the maxMagnitude memo, the
     * thread's counters, and its GC-session bookkeeping. Created
     * lazily the first time a thread touches the package; owned by the
     * package and found by its owner's thread id, so a thread keeps no
     * per-package state beyond context()'s one-entry cache.
     */
    struct alignas(64) WorkerContext
    {
        /** Set at creation, never changed. */
        std::thread::id owner;
        std::vector<MulSlot> mul_cache;
        std::vector<AddSlot> add_cache;
        std::vector<CtSlot> ct_cache;
        std::unordered_map<const Node *, double> mag_cache;
        LocalStats stats;
        /** Session nesting depth; touched only by the owner thread. */
        int sessionDepth = 0;
        /** Roots published while parked at a safe point (gc_mu_). */
        std::vector<Edge> parkedRoots;
        bool parked = false; ///< guarded by gc_mu_
    };

    /** Cache slots a destroyed package left to the thread that owned
     *  them, for that thread's next context (see ~Package). */
    struct SpareCaches
    {
        std::vector<MulSlot> mul;
        std::vector<AddSlot> add;
        std::vector<CtSlot> ct;
    };
    /** The calling thread's spare slots (empty when it has none). */
    static SpareCaches &spareCaches();

    /** One stripe of the unique table: an open-addressing slot array
     *  plus the arena and free list for the nodes it owns. Padded so
     *  neighboring shards' locks do not false-share. */
    struct alignas(64) UniqueShard
    {
        /** Mutable so const inspection methods (stats, capacity) can
         *  take a consistent snapshot. */
        mutable std::mutex mu;
        /** nullptr = empty slot. Deletion happens only in the GC
         *  sweep, which rebuilds the shard. Guarded by mu. */
        std::vector<Node *> slots;
        size_t mask = 0;
        size_t size = 0;
        size_t minCapacity = 0;
        std::deque<Node> arena;
        Node *freeList = nullptr;
        size_t freeCount = 0;
        size_t rehashes = 0;
        /** Lock-contention accounting (qmdd.shard.* gauges). */
        size_t lockAcquisitions = 0;
        size_t lockContended = 0;
    };

    WorkerContext *context() const;
    WorkerContext *contextSlow() const;

    void beginSession();
    void endSession();

    /** The sweep itself; caller holds gc_mu_. Marks `extra_roots` plus
     *  every parked context's roots, sweeps each shard (under its
     *  lock), clears all contexts' caches, adapts the threshold, and
     *  releases any parked sessions. */
    void sweepLocked(const std::vector<Edge> &extra_roots);

    Edge makeNodeImpl(WorkerContext &ctx, std::int32_t var,
                      const std::array<Edge, 4> &edges);
    Edge multiplyImpl(WorkerContext &ctx, const Edge &a, const Edge &b);
    Edge mulNodes(WorkerContext &ctx, Node *x, Node *y);
    Edge addImpl(WorkerContext &ctx, const Edge &a, const Edge &b);
    Edge ctImpl(WorkerContext &ctx, const Edge &a);

    /** Weight-pointer product with O(1) fast paths for 0 and 1. */
    const Cplx *mulWeights(const Cplx *a, const Cplx *b);

    Node *allocNode(UniqueShard &shard);

    UniqueShard &shardOf(size_t hash);
    /** Lock a shard, counting contention. */
    void lockShard(UniqueShard &shard);

    /** Grow one shard to `capacity` slots (nodes stay put). Caller
     *  holds the shard lock. */
    static void rehashShard(UniqueShard &shard, size_t capacity);

    void markReachable(Node *n, std::uint32_t epoch);

    static size_t hashNode(std::int32_t var,
                           const std::array<Edge, 4> &e);

    ComplexTable ctab_;
    Node terminal_;

    /** Unique id for the thread-local context lookup; survives address
     *  reuse after a Package is destroyed. */
    const std::uint64_t serial_;

    std::deque<UniqueShard> shards_;

    mutable std::mutex ctx_mu_;
    mutable std::vector<std::unique_ptr<WorkerContext>> contexts_;

    mutable std::mutex gc_mu_;
    std::condition_variable gc_cv_;
    std::atomic<bool> gc_requested_{false};
    size_t active_mutators_ = 0; ///< sessions at depth >= 1 (gc_mu_)
    size_t parked_ = 0;          ///< sessions parked at a safe point
    std::uint64_t gc_generation_ = 0;
    std::uint32_t mark_epoch_ = 0; ///< touched only by the sweeper

    /** Reclaimed nodes across every shard; lets allocNode skip the
     *  steal scan entirely while all free lists are empty. */
    std::atomic<size_t> free_total_{0};
    std::atomic<size_t> live_nodes_{0};
    std::atomic<size_t> peak_nodes_{0};
    std::atomic<size_t> gc_runs_{0};
    std::atomic<size_t> gc_threshold_;
    std::atomic<size_t> min_gc_threshold_;
};

} // namespace qsyn::dd
