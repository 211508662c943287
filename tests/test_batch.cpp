/**
 * @file
 * Tests for parallel batch compilation: the parallelFor primitive,
 * determinism of BatchCompiler across worker counts, per-item error
 * isolation, and the batch.* metrics surface.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "cache/cache.hpp"
#include "cache/fingerprint.hpp"
#include "common/rng.hpp"
#include "core/batch.hpp"
#include "device/registry.hpp"
#include "frontend/qasm_writer.hpp"
#include "ir/random_circuit.hpp"
#include "obs/obs.hpp"

using namespace qsyn;

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

std::vector<Circuit>
makeSuite(int n)
{
    std::vector<Circuit> circuits;
    for (int i = 0; i < n; ++i)
        circuits.push_back(makeRandom(4, 20 + 5 * i, 40 + i));
    return circuits;
}

std::string
writeTemp(const std::string &name, const std::string &content)
{
    std::string path = ::testing::TempDir() + name;
    std::ofstream out(path);
    out << content;
    return path;
}

} // namespace

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (size_t jobs : {size_t(0), size_t(1), size_t(3), size_t(16)}) {
        std::vector<std::atomic<int>> hits(97);
        parallelFor(hits.size(), jobs,
                    [&](size_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ParallelFor, MoreJobsThanItemsAndEmptyRange)
{
    std::atomic<int> count{0};
    parallelFor(2, 8, [&](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 2);
    parallelFor(0, 4, [&](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 2);
}

TEST(ParallelFor, ResolveJobs)
{
    EXPECT_EQ(resolveJobs(3), 3u);
    EXPECT_GE(resolveJobs(0), 1u); // hardware concurrency, at least 1
}

TEST(BatchCompiler, ResultsAreIdenticalAcrossWorkerCounts)
{
    std::vector<Circuit> circuits = makeSuite(6);
    Device dev = builtinDevice("ibmqx4");

    BatchCompiler seq(dev);
    std::vector<BatchItem> one = seq.compileCircuits(circuits, 1);
    ASSERT_EQ(one.size(), circuits.size());
    EXPECT_EQ(seq.summary().jobs, 1u);

    BatchCompiler par(dev);
    std::vector<BatchItem> four = par.compileCircuits(circuits, 4);
    ASSERT_EQ(four.size(), circuits.size());

    for (size_t i = 0; i < circuits.size(); ++i) {
        ASSERT_TRUE(one[i].ok) << one[i].error;
        ASSERT_TRUE(four[i].ok) << four[i].error;
        // The compiler is deterministic and workers share no state, so
        // the emitted QASM must be byte-identical per input slot.
        EXPECT_FALSE(one[i].qasm.empty());
        EXPECT_EQ(one[i].qasm, four[i].qasm) << "circuit " << i;
        EXPECT_EQ(one[i].result.optimizedM.gates,
                  four[i].result.optimizedM.gates);
    }
    EXPECT_EQ(par.summary().succeeded, circuits.size());
    EXPECT_EQ(par.summary().failed, 0u);
}

TEST(BatchCompiler, SharedAndPrivateManagersEmitIdenticalBytes)
{
    // The shared concurrent package is a verification-side
    // optimization only: with 8 workers racing on one node store, the
    // emitted QASM and stage metrics must still be byte-for-byte what
    // fully-isolated private packages produce.
    std::vector<Circuit> circuits = makeSuite(6);
    Device dev = builtinDevice("ibmqx4");

    BatchCompiler shared(dev);
    shared.setShareManager(true);
    std::vector<BatchItem> a = shared.compileCircuits(circuits, 8);

    BatchCompiler priv(dev);
    priv.setShareManager(false);
    std::vector<BatchItem> b = priv.compileCircuits(circuits, 8);

    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(a[i].ok) << a[i].error;
        ASSERT_TRUE(b[i].ok) << b[i].error;
        EXPECT_FALSE(a[i].qasm.empty());
        EXPECT_EQ(a[i].qasm, b[i].qasm) << "circuit " << i;
        EXPECT_EQ(a[i].result.optimizedM.gates,
                  b[i].result.optimizedM.gates);
    }
    EXPECT_EQ(shared.summary().succeeded, circuits.size());
}

TEST(BatchCompiler, SharedManagerLeavesCacheFingerprintsUnchanged)
{
    // Regression guard for the cache contract: whether verification
    // ran on the shared or a private package is NOT part of the
    // compile fingerprint, so entries stored by one mode are served
    // verbatim to the other.
    std::vector<Circuit> circuits = makeSuite(4);
    Device dev = builtinDevice("ibmqx4");

    std::string dir = ::testing::TempDir() + "batch_share_cache";
    std::filesystem::remove_all(dir);
    cache::CacheConfig cfg;
    cfg.dir = dir;
    cache::CompileCache store(cfg);

    BatchCompiler shared(dev);
    shared.setShareManager(true);
    shared.setCache(&store);
    std::vector<BatchItem> warm = shared.compileCircuits(circuits, 4);
    EXPECT_EQ(store.stats().hits, 0u);
    EXPECT_EQ(store.stats().stores, circuits.size());

    BatchCompiler priv(dev);
    priv.setShareManager(false);
    priv.setCache(&store);
    std::vector<BatchItem> served = priv.compileCircuits(circuits, 4);
    EXPECT_EQ(store.stats().hits, circuits.size());
    for (size_t i = 0; i < circuits.size(); ++i) {
        ASSERT_TRUE(warm[i].ok) << warm[i].error;
        ASSERT_TRUE(served[i].ok) << served[i].error;
        EXPECT_EQ(warm[i].qasm, served[i].qasm) << "circuit " << i;
    }

    // Same claim at the key level: the fingerprint domain is circuit,
    // device, options, salt — nothing the share-manager switch touches.
    for (const Circuit &c : circuits)
        EXPECT_EQ(cache::compileCacheKey(c, dev, shared.options(),
                                         cache::kCacheVersionSalt),
                  cache::compileCacheKey(c, dev, priv.options(),
                                         cache::kCacheVersionSalt));

    std::filesystem::remove_all(dir);
}

TEST(BatchCompiler, CompileFilesIsolatesFailures)
{
    std::string good = writeTemp(
        "batch_good.qasm",
        "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n");
    std::string bad = writeTemp("batch_bad.qasm", "not qasm at all\n");

    BatchCompiler batch(builtinDevice("ibmqx4"));
    std::vector<BatchItem> items = batch.compileFiles(
        {good, "/nonexistent/missing.qasm", bad, good}, 2);
    ASSERT_EQ(items.size(), 4u);
    EXPECT_TRUE(items[0].ok);
    EXPECT_FALSE(items[1].ok);
    EXPECT_FALSE(items[1].error.empty());
    EXPECT_FALSE(items[2].ok);
    EXPECT_TRUE(items[3].ok);
    // Identical inputs compile to identical outputs even when other
    // slots of the batch fail.
    EXPECT_EQ(items[0].qasm, items[3].qasm);
    EXPECT_EQ(batch.summary().succeeded, 2u);
    EXPECT_EQ(batch.summary().failed, 2u);

    std::remove(good.c_str());
    std::remove(bad.c_str());
}

TEST(BatchCompiler, PublishesBatchMetrics)
{
    std::vector<Circuit> circuits = makeSuite(3);
    obs::ScopedSink sink;
    BatchCompiler batch(builtinDevice("ibmqx4"));
    (void)batch.compileCircuits(circuits, 2);
    batch.publishMetrics();

    const obs::MetricsRegistry &m = sink->metrics();
    EXPECT_DOUBLE_EQ(m.gauge("batch.circuits"), 3.0);
    EXPECT_DOUBLE_EQ(m.gauge("batch.succeeded"), 3.0);
    EXPECT_DOUBLE_EQ(m.gauge("batch.failed"), 0.0);
    EXPECT_DOUBLE_EQ(m.gauge("batch.jobs"), 2.0);
    EXPECT_GT(m.gauge("batch.wall_seconds"), 0.0);
    EXPECT_GE(m.gauge("batch.sum_seconds"),
              m.gauge("batch.wall_seconds") * 0.5);
    EXPECT_GT(m.gauge("batch.gates_out"), 0.0);
    // Merged QMDD verification counters from every worker's package.
    EXPECT_GT(m.gauge("batch.qmdd.unique_lookups"), 0.0);
    EXPECT_GT(m.gauge("batch.qmdd.multiplies"), 0.0);
    EXPECT_GT(m.gauge("batch.qmdd.peak_nodes"), 0.0);
    EXPECT_GT(m.gauge("batch.qmdd.unique_hit_rate"), 0.0);
    EXPECT_LE(m.gauge("batch.qmdd.unique_hit_rate"), 1.0);
    EXPECT_DOUBLE_EQ(m.gauge("batch.share_manager"), 1.0);
}

TEST(BatchCompiler, SummaryTimesAreCoherent)
{
    std::vector<Circuit> circuits = makeSuite(4);
    BatchCompiler batch(builtinDevice("ibmqx4"));
    (void)batch.compileCircuits(circuits, 1);
    const BatchSummary &s = batch.summary();
    EXPECT_EQ(s.circuits, 4u);
    EXPECT_GT(s.wallSeconds, 0.0);
    EXPECT_GT(s.sumSeconds, 0.0);
    // Sequentially, per-item times must (roughly) fill the wall time.
    EXPECT_LE(s.sumSeconds, s.wallSeconds * 1.05 + 0.01);
}

TEST(BatchCompiler, JobDeadlineCancelsHugeCircuitCooperatively)
{
    // A deliberately huge circuit: 4000 gates cannot be decomposed,
    // routed, optimized and verified in 10 ms. The optimizer's
    // per-round deadline poll is usually the one that fires; the
    // verifier polls at its per-gate GC safe point too. Either way
    // the item must come back as a diagnosed timeout — not a hang,
    // not a crash, and without poisoning its neighbors.
    std::vector<Circuit> circuits;
    circuits.push_back(makeRandom(4, 12, 7));        // fast
    circuits.push_back(makeRandom(5, 4000, 8));      // doomed
    circuits.push_back(makeRandom(4, 14, 9));        // fast

    BatchCompiler batch(builtinDevice("ibmqx4"));
    batch.setJobDeadline(0.01);
    EXPECT_DOUBLE_EQ(batch.jobDeadline(), 0.01);
    std::vector<BatchItem> items = batch.compileCircuits(circuits, 2);
    ASSERT_EQ(items.size(), 3u);

    EXPECT_FALSE(items[1].ok);
    EXPECT_TRUE(items[1].timedOut) << items[1].error;
    EXPECT_NE(items[1].error.find("deadline"), std::string::npos)
        << items[1].error;
    // Timeouts are user-level outcomes, not internal failures.
    EXPECT_FALSE(items[1].internalError);

    // Neighbors on the same workers were unaffected: a worker whose
    // previous item timed out starts the next one with a fresh budget.
    // (The small items can in principle also hit a 10 ms budget on a
    // loaded machine; accept either outcome but require that any
    // failure is a clean timeout, never an internal error.)
    for (size_t i : {size_t(0), size_t(2)}) {
        if (!items[i].ok) {
            EXPECT_TRUE(items[i].timedOut) << items[i].error;
            EXPECT_FALSE(items[i].internalError);
        }
    }
}

TEST(BatchCompiler, NoDeadlineMeansNoTimeouts)
{
    std::vector<Circuit> circuits = makeSuite(3);
    BatchCompiler batch(builtinDevice("ibmqx4"));
    EXPECT_DOUBLE_EQ(batch.jobDeadline(), 0.0);
    std::vector<BatchItem> items = batch.compileCircuits(circuits, 2);
    for (const BatchItem &item : items) {
        EXPECT_TRUE(item.ok) << item.error;
        EXPECT_FALSE(item.timedOut);
    }
}
