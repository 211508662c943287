/**
 * @file
 * Concurrency tests for the shared QMDD package: canonicity when many
 * threads build overlapping circuits at once, lock-free weight
 * interning, shard rehashing under parallel load, the GC safe-point
 * barrier, and exactness of the merged per-thread statistics.
 *
 * The assertions here are cross-thread *pointer* equalities: QMDD
 * canonicity promises that equal matrices are the same Node* + weight
 * pointer no matter which thread built them or in what interleaving.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "ir/random_circuit.hpp"
#include "qmdd/package.hpp"
#include "sim/statevector.hpp"

using namespace qsyn;
using dd::Edge;
using dd::Package;
using dd::PackageConfig;
using dd::PackageStats;

namespace {

Circuit
makeRandom(int qubits, int gates, std::uint64_t seed)
{
    Rng rng(seed);
    RandomCircuitOptions opts;
    opts.numQubits = static_cast<Qubit>(qubits);
    opts.numGates = static_cast<size_t>(gates);
    opts.maxControls = 2;
    return randomCircuit(rng, opts);
}

/** Dense unitary of a circuit (small widths only). */
DenseMatrix
denseOf(const Circuit &c)
{
    DenseMatrix m(static_cast<int>(c.numQubits()));
    for (const Gate &g : c) {
        std::vector<int> controls;
        for (Qubit q : g.controls())
            controls.push_back(static_cast<int>(q));
        if (g.kind() == GateKind::Swap) {
            m.applySwap(controls, static_cast<int>(g.targets()[0]),
                        static_cast<int>(g.targets()[1]));
        } else if (g.kind() == GateKind::Barrier) {
            continue;
        } else {
            m.applyGate(g.baseMatrix(), controls,
                        static_cast<int>(g.target()));
        }
    }
    return m;
}

void
expectMatchesDense(Package &pkg, const Edge &e, const DenseMatrix &m,
                   int n)
{
    for (size_t r = 0; r < m.dim(); ++r) {
        for (size_t c = 0; c < m.dim(); ++c) {
            Cplx got = pkg.getEntry(e, r, c, n);
            ASSERT_TRUE(approxEqual(got, m.at(r, c), 1e-9))
                << "entry (" << r << "," << c << ") got " << got
                << " want " << m.at(r, c);
        }
    }
}

/** Run `fn(t)` on `n` real threads simultaneously (start-gate). */
void
onThreads(size_t n, const std::function<void(size_t)> &fn)
{
    std::atomic<bool> go{false};
    std::vector<std::thread> pool;
    pool.reserve(n);
    for (size_t t = 0; t < n; ++t) {
        pool.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire)) {
            }
            fn(t);
        });
    }
    go.store(true, std::memory_order_release);
    for (std::thread &th : pool)
        th.join();
}

} // namespace

TEST(QmddConcurrency, SameCircuitFromEveryThreadYieldsSameRootEdge)
{
    // 8 threads race the full makeNode/multiply/add stack over one
    // shared package; canonicity demands the identical root edge
    // (node pointer AND interned weight pointer) from every thread.
    Package pkg;
    Circuit c = makeRandom(5, 80, 7);
    constexpr size_t kThreads = 8;
    std::vector<Edge> roots(kThreads);
    onThreads(kThreads,
              [&](size_t t) { roots[t] = pkg.buildCircuit(c); });
    for (size_t t = 1; t < kThreads; ++t) {
        EXPECT_EQ(roots[0].node, roots[t].node) << "thread " << t;
        EXPECT_EQ(roots[0].weight, roots[t].weight) << "thread " << t;
    }
    DenseMatrix dense = denseOf(c);
    expectMatchesDense(pkg, roots[0], dense, 5);
}

TEST(QmddConcurrency, OverlappingCircuitsInterleavedStayCanonical)
{
    // Threads build *different* circuits sharing a common prefix, so
    // they constantly collide on the same unique-table entries. A
    // single-threaded rebuild afterwards must land on the exact edges
    // the racing threads produced.
    Package pkg;
    Circuit prefix = makeRandom(4, 30, 11);
    constexpr size_t kThreads = 6;
    std::vector<Circuit> variants;
    for (size_t t = 0; t < kThreads; ++t) {
        Circuit c = prefix;
        Circuit suffix = makeRandom(4, 20, 100 + t);
        for (const Gate &g : suffix)
            c.add(g);
        variants.push_back(std::move(c));
    }
    std::vector<Edge> roots(kThreads);
    onThreads(kThreads, [&](size_t t) {
        roots[t] = pkg.buildCircuit(variants[t]);
    });
    for (size_t t = 0; t < kThreads; ++t) {
        Edge again = pkg.buildCircuit(variants[t]);
        EXPECT_EQ(roots[t].node, again.node) << "variant " << t;
        EXPECT_EQ(roots[t].weight, again.weight) << "variant " << t;
        expectMatchesDense(pkg, roots[t], denseOf(variants[t]), 4);
    }
}

TEST(QmddConcurrency, ConcurrentInterningYieldsOnePointerPerValue)
{
    // The ComplexTable's lock-free-probe/locked-insert path: all
    // threads interning the same fresh values must agree on one
    // representative pointer per value.
    Package pkg;
    constexpr size_t kThreads = 8;
    constexpr size_t kValues = 200;
    std::vector<std::vector<const Cplx *>> seen(
        kThreads, std::vector<const Cplx *>(kValues));
    onThreads(kThreads, [&](size_t t) {
        for (size_t i = 0; i < kValues; ++i) {
            // Deterministic value set, identical across threads; no
            // two values within kWeightEps of each other.
            Cplx v(0.001 * static_cast<double>(i + 1),
                   -0.002 * static_cast<double>(i + 1));
            seen[t][i] = pkg.terminalEdge(v).weight;
        }
    });
    for (size_t t = 1; t < kThreads; ++t) {
        for (size_t i = 0; i < kValues; ++i)
            EXPECT_EQ(seen[0][i], seen[t][i])
                << "value " << i << " thread " << t;
    }
}

TEST(QmddConcurrency, ShardsRehashUnderConcurrentLoadWithoutDamage)
{
    // A deliberately tiny table forces every shard to grow while 8
    // threads are inserting. Node pointers must survive the rehashes:
    // the racing roots still evaluate to their dense matrices, and
    // rebuilds return identical edges.
    PackageConfig cfg;
    cfg.initialUniqueCapacity = 16; // per-shard floor, grows at once
    Package pkg(cfg);
    constexpr size_t kThreads = 8;
    std::vector<Circuit> circuits;
    for (size_t t = 0; t < kThreads; ++t)
        circuits.push_back(makeRandom(5, 60, 200 + t));
    std::vector<Edge> roots(kThreads);
    onThreads(kThreads, [&](size_t t) {
        roots[t] = pkg.buildCircuit(circuits[t]);
    });
    EXPECT_GT(pkg.stats().uniqueRehashes, 0u);
    EXPECT_GT(pkg.uniqueCapacity(), 16u * pkg.uniqueShards());
    for (size_t t = 0; t < kThreads; ++t) {
        Edge again = pkg.buildCircuit(circuits[t]);
        EXPECT_EQ(roots[t].node, again.node) << "circuit " << t;
        expectMatchesDense(pkg, roots[t], denseOf(circuits[t]), 5);
    }
}

TEST(QmddConcurrency, GcBarrierPerformsSweepWhenAllSessionsPark)
{
    // Deterministic barrier choreography. Both threads finish building
    // BEFORE the request is made (otherwise a per-gate safe point
    // inside buildCircuit could consume it early); then one requests a
    // GC and parks, and the sweep must not run until the second thread
    // reaches its own safe point with its root published.
    Package pkg;
    Circuit ca = makeRandom(4, 40, 33);
    Circuit cb = makeRandom(4, 40, 34);
    std::atomic<int> phase{0};
    Edge ra, rb;
    size_t count_a = 0, count_b = 0;

    std::thread ta([&] {
        Package::Session session(pkg);
        ra = pkg.buildCircuit(ca);
        count_a = pkg.countNodes(ra);
        while (phase.load(std::memory_order_acquire) < 1) {
        }
        pkg.requestGc();
        phase.store(2, std::memory_order_release);
        pkg.safePoint({ra}); // parks: tb has not reached its barrier
    });
    std::thread tb([&] {
        Package::Session session(pkg);
        rb = pkg.buildCircuit(cb);
        count_b = pkg.countNodes(rb);
        phase.store(1, std::memory_order_release);
        while (phase.load(std::memory_order_acquire) < 2) {
        }
        EXPECT_TRUE(pkg.gcPending());
        pkg.safePoint({rb}); // last to park: completes the barrier
    });
    ta.join();
    tb.join();

    EXPECT_FALSE(pkg.gcPending());
    EXPECT_GT(pkg.stats().gcRuns, 0u);
    // Both parked roots survived the sweep intact. (No session is
    // needed here: the main thread is the package's sole user now and
    // nothing further requests a collection.)
    EXPECT_EQ(pkg.countNodes(ra), count_a);
    EXPECT_EQ(pkg.countNodes(rb), count_b);
    expectMatchesDense(pkg, ra, denseOf(ca), 4);
    expectMatchesDense(pkg, rb, denseOf(cb), 4);
    // Everything else was collected: live nodes is at most what the
    // two roots reach (shared substructure counts once).
    EXPECT_LE(pkg.activeNodes(), count_a + count_b);
}

TEST(QmddConcurrency, EndingSessionDropsPendingRequestInsteadOfSweeping)
{
    // A GC requested with no one left to park must not silently nuke
    // the edges the (single-threaded) caller still holds.
    Package pkg;
    Circuit c = makeRandom(4, 40, 35);
    Edge root;
    {
        Package::Session session(pkg);
        root = pkg.buildCircuit(c);
        pkg.requestGc();
    } // endSession: last mutator out, request dropped
    EXPECT_FALSE(pkg.gcPending());
    expectMatchesDense(pkg, root, denseOf(c), 4);
}

TEST(QmddConcurrency, AutomaticGcTriggersAtSafePointsUnderContention)
{
    // Tiny threshold + several threads: buildCircuit's per-gate
    // safe-point checks must coordinate sweeps without losing any
    // thread's intermediate product. Each thread validates its root
    // while its own session is still active — that is the lifetime the
    // package guarantees; once a thread leaves, later sweeps owe its
    // edges nothing.
    PackageConfig cfg;
    cfg.gcThreshold = 1024;
    Package pkg(cfg);
    constexpr size_t kThreads = 4;
    std::vector<Circuit> circuits;
    for (size_t t = 0; t < kThreads; ++t)
        circuits.push_back(makeRandom(5, 120, 300 + t));
    onThreads(kThreads, [&](size_t t) {
        Package::Session session(pkg);
        Edge root = pkg.buildCircuit(circuits[t]);
        expectMatchesDense(pkg, root, denseOf(circuits[t]), 5);
    });
    EXPECT_GT(pkg.stats().gcRuns, 0u);
}

TEST(QmddConcurrency, MergedStatsEqualSumOfPerThreadStats)
{
    // PackageStats must be exact under concurrency, not approximate:
    // the merged counters are exactly the sum of every thread's own
    // (threadStats-diffed) traffic.
    Package pkg;
    constexpr size_t kThreads = 6;
    std::vector<PackageStats> per_thread(kThreads);
    onThreads(kThreads, [&](size_t t) {
        PackageStats before = pkg.threadStats();
        (void)pkg.buildCircuit(makeRandom(4, 50, 400 + t));
        PackageStats after = pkg.threadStats();
        PackageStats d;
        d.uniqueLookups = after.uniqueLookups - before.uniqueLookups;
        d.uniqueHits = after.uniqueHits - before.uniqueHits;
        d.multiplies = after.multiplies - before.multiplies;
        d.additions = after.additions - before.additions;
        d.computeLookups =
            after.computeLookups - before.computeLookups;
        d.computeHits = after.computeHits - before.computeHits;
        per_thread[t] = d;
    });
    PackageStats merged = pkg.stats();
    PackageStats sum;
    for (const PackageStats &d : per_thread) {
        sum.uniqueLookups += d.uniqueLookups;
        sum.uniqueHits += d.uniqueHits;
        sum.multiplies += d.multiplies;
        sum.additions += d.additions;
        sum.computeLookups += d.computeLookups;
        sum.computeHits += d.computeHits;
    }
    EXPECT_EQ(merged.uniqueLookups, sum.uniqueLookups);
    EXPECT_EQ(merged.uniqueHits, sum.uniqueHits);
    EXPECT_EQ(merged.multiplies, sum.multiplies);
    EXPECT_EQ(merged.additions, sum.additions);
    EXPECT_EQ(merged.computeLookups, sum.computeLookups);
    EXPECT_EQ(merged.computeHits, sum.computeHits);
    // Structural invariants that must hold no matter the interleaving.
    EXPECT_GE(merged.uniqueLookups, merged.uniqueHits);
    EXPECT_LE(merged.peakNodes,
              merged.uniqueLookups - merged.uniqueHits);
    EXPECT_LE(pkg.activeNodes(), merged.peakNodes);
}

TEST(QmddConcurrency, SharedTableKeepsPeakNodesBelowSumOfPrivatePeaks)
{
    // The point of sharing: N workers building the same circuit add
    // (almost) nothing beyond one worker's node set, where private
    // packages would multiply it by N.
    Circuit c = makeRandom(5, 80, 55);
    constexpr size_t kThreads = 4;

    size_t private_sum = 0;
    for (size_t t = 0; t < kThreads; ++t) {
        Package solo;
        (void)solo.buildCircuit(c);
        private_sum += solo.stats().peakNodes;
    }

    Package shared;
    onThreads(kThreads, [&](size_t) { (void)shared.buildCircuit(c); });
    EXPECT_LT(shared.stats().peakNodes, private_sum);
}

TEST(QmddConcurrency, ThreadsSwitchingPackagesKeepTheirOwnContexts)
{
    // Each round creates and destroys a private package, so the next
    // call into `shared` misses context()'s one-entry cache and finds
    // the thread's context inside the package by thread id. A product
    // with the identity counts exactly one multiply, and the threads do
    // different amounts, so a swapped or recreated context shows.
    Package shared;
    constexpr size_t kThreads = 2;
    constexpr size_t kRounds = 100;
    std::vector<size_t> counted(kThreads);
    onThreads(kThreads, [&](size_t t) {
        const size_t before = shared.threadStats().multiplies;
        const Edge g = shared.gateDD(Gate::h(static_cast<Qubit>(t)));
        for (size_t i = 0; i < kRounds * (t + 1); ++i) {
            Package priv;
            Edge x = priv.gateDD(Gate::x(0));
            EXPECT_EQ(priv.multiply(x, x), priv.identityEdge());
            EXPECT_EQ(priv.threadStats().multiplies,
                      priv.stats().multiplies);
            EXPECT_EQ(shared.multiply(shared.identityEdge(), g), g);
        }
        counted[t] = shared.threadStats().multiplies - before;
    });
    for (size_t t = 0; t < kThreads; ++t)
        EXPECT_EQ(counted[t], kRounds * (t + 1)) << "thread " << t;
    EXPECT_EQ(shared.stats().multiplies, 3 * kRounds);
    // One context per thread, however often each came back.
    Package one;
    (void)one.gateDD(Gate::x(0));
    EXPECT_EQ(shared.computeCacheBytes(),
              kThreads * one.computeCacheBytes());
}
