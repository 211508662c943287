/**
 * @file
 * Parallel batch compilation: compile many independent circuits
 * concurrently on a worker pool.
 *
 * The unit of parallelism is one whole compile: each worker owns its
 * own Compiler and workers claim items from a shared queue. Each
 * compile verifies on a QMDD package of its own, which the worker
 * creates and destroys (see qmdd/package.hpp), so workers share no
 * QMDD state. Results are stored by input index, so output order — and
 * therefore every byte the CLI emits — is identical no matter how many
 * workers ran or how they interleaved. Surfaced as `--jobs N` on qsync
 * and qverify.
 */

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/compile_cache.hpp"
#include "core/compiler.hpp"

namespace qsyn {

/**
 * Run fn(0), ..., fn(n-1) across up to `jobs` worker threads. Indices
 * are claimed from a shared atomic counter, so callers must make fn
 * safe to run concurrently for distinct indices (write only to
 * index-owned slots). jobs <= 1 runs inline on the calling thread —
 * the sequential and parallel paths execute the same code. jobs == 0
 * means "one per hardware thread". fn must not throw.
 *
 * When `threadNamePrefix` is non-null, each *spawned* worker names
 * itself `<prefix>-<t>` via obs::nameCurrentThread (trace thread_name
 * metadata + crash-dump span stacks); the calling thread keeps its
 * existing name (e.g. `qsync-main`).
 */
void parallelFor(size_t n, size_t jobs,
                 const std::function<void(size_t)> &fn,
                 const char *threadNamePrefix = nullptr);

/** Number of workers `jobs` resolves to (0 -> hardware threads). */
size_t resolveJobs(size_t jobs);

/** Load one compiler input: `.pla` files through the ESOP front end
 *  (Fig. 2's classical path), everything else through the circuit
 *  loader. */
Circuit loadInputFile(const std::string &path);

/** Outcome of one circuit in a batch. */
struct BatchItem
{
    /** Source path (empty for in-memory circuits). */
    std::string inputPath;
    bool ok = false;
    /** Error text when !ok; user errors (bad file, unmappable circuit)
     *  are distinguished from internal failures. */
    std::string error;
    bool internalError = false;
    /** The per-job deadline (setJobDeadline) cancelled this item. */
    bool timedOut = false;
    CompileResult result;
    /** Final circuit serialized as OpenQASM (empty on failure). */
    std::string qasm;
    /** Wall time this item took on its worker. */
    double seconds = 0.0;
};

/** Aggregates over one batch run. */
struct BatchSummary
{
    size_t circuits = 0;
    size_t succeeded = 0;
    size_t failed = 0;
    /** Workers actually used. */
    size_t jobs = 0;
    /** End-to-end wall time of the batch. */
    double wallSeconds = 0.0;
    /** Sum of per-item wall times. Not a speedup numerator: with
     *  several workers it exceeds wallSeconds by about the number of
     *  items in flight, even when contention keeps the batch from
     *  finishing any sooner. */
    double sumSeconds = 0.0;
    /** Aggregated per-compile resource usage of the successful items:
     *  CPU times add, RSS / QMDD peaks take the max. */
    obs::ResourceUsage resources;
};

/** Compiles batches of independent circuits for one device. */
class BatchCompiler
{
  public:
    explicit BatchCompiler(Device device, CompileOptions options = {});

    /**
     * Load (loadInputFile) and compile each file with up to `jobs`
     * workers. A failing item records its error and leaves the rest of
     * the batch running; results come back in input order.
     */
    std::vector<BatchItem>
    compileFiles(const std::vector<std::string> &paths, size_t jobs);

    /** Same, for already-parsed circuits (benchmarks, library use). */
    std::vector<BatchItem>
    compileCircuits(const std::vector<Circuit> &circuits, size_t jobs);

    /** Summary of the most recent run. */
    const BatchSummary &summary() const { return summary_; }

    /**
     * Attach a compile cache (not owned; must outlive the batch runs).
     * Workers then fetch memoized results by content fingerprint, and
     * concurrent workers compiling identical inputs single-flight:
     * one computes, the rest share. Null detaches.
     */
    void setCache(CompileCacheBase *cache) { cache_ = cache; }
    CompileCacheBase *cache() const { return cache_; }

    /**
     * Cancel any single item that runs longer than `seconds` of wall
     * time (<= 0 disables, the default). Cancellation is cooperative:
     * the compile pipeline polls after every gate, next to its GC
     * check (see common/deadline.hpp), so a runaway item unwinds cleanly
     * and records `timedOut` while the rest of the batch keeps
     * running. This is the mechanism behind the qsynd service's
     * per-request wall-time limit and `qsync --deadline`.
     */
    void setJobDeadline(double seconds) { jobDeadlineSeconds_ = seconds; }
    double jobDeadline() const { return jobDeadlineSeconds_; }

    /**
     * Emit periodic stats while a batch runs (`--stats-interval
     * <sec>`): every `seconds` a background thread logs progress
     * (Info level) and, when `promPath` is non-empty, rewrites that
     * file with the current Prometheus exposition — a poor man's
     * /metrics endpoint a scraper can tail until qsynd mounts a real
     * one. `seconds <= 0` disables (the default).
     */
    void setStatsInterval(double seconds, std::string promPath = {});

    /**
     * Publish the last run's merged per-circuit metrics as
     * `<prefix>.*` gauges on the installed obs sink: batch shape
     * (circuits/jobs/failures), wall vs summed seconds, and the summed
     * QMDD verification counters under `<prefix>.qmdd.*` (peak_nodes
     * is a max, not a sum). No-op when observability is off.
     */
    void publishMetrics(const char *prefix = "batch") const;

    const Device &device() const { return device_; }
    const CompileOptions &options() const { return options_; }

  private:
    std::vector<BatchItem>
    run(size_t n, size_t jobs,
        const std::function<Circuit(size_t)> &load,
        const std::function<std::string(size_t)> &name);

    Device device_;
    CompileOptions options_;
    CompileCacheBase *cache_ = nullptr;
    double jobDeadlineSeconds_ = 0.0;
    double statsIntervalSeconds_ = 0.0;
    std::string statsPromPath_;
    BatchSummary summary_;
    /** Element-wise sum (peakNodes: max) of per-item dd stats. */
    dd::PackageStats mergedDd_;
    size_t totalGatesOut_ = 0;
};

} // namespace qsyn
