/**
 * @file
 * The compile cache: a two-tier (in-process LRU + optional on-disk
 * store), content-addressed memoizer for whole CompileResults, with
 * single-flight deduplication so concurrent batch workers compiling
 * identical inputs compute once and share the artifact.
 *
 * Wire-up: construct one CompileCache per tool run, hand it to
 * BatchCompiler::setCache / Compiler::compileCached. Hit, miss, store,
 * eviction, and dedup events are exported as cache.* counters on the
 * installed obs sink; publishMetrics adds the size gauges.
 */

#pragma once

#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "cache/store.hpp"
#include "core/compile_cache.hpp"

namespace qsyn::cache {

/**
 * Version salt folded into every fingerprint. Bump whenever the
 * compiler's output or the artifact encoding changes meaning: old
 * entries become unreachable (and age out by LRU) instead of being
 * replayed incorrectly.
 */
inline constexpr const char *kCacheVersionSalt = "qsyn-cache-v6";

struct CacheConfig
{
    /** On-disk store root; empty = in-memory tier only. */
    std::string dir;
    /** Disk byte budget before LRU eviction. */
    std::uint64_t maxDiskBytes = 256ull << 20;
    /** In-process tier capacity (whole artifacts, shared_ptr'd). */
    size_t maxMemoryEntries = 64;
    /** Fingerprint salt; override in tests to simulate a release. */
    std::string versionSalt = kCacheVersionSalt;
};

/** Cumulative counters for one CompileCache instance. */
struct CacheStats
{
    size_t hits = 0;        ///< memory + disk + single-flight shares
    size_t misses = 0;      ///< keys that ran a cold compile
    size_t memoryHits = 0;
    size_t diskHits = 0;
    size_t stores = 0;      ///< artifacts committed (memory tier)
    size_t singleFlightShared = 0; ///< waiters served by a leader
    size_t diskEvictions = 0;
    std::uint64_t diskBytes = 0;
    size_t diskEntries = 0;
    size_t memoryEntries = 0;
};

/** Two-tier content-addressed compile memoizer with single-flight. */
class CompileCache : public CompileCacheBase
{
  public:
    explicit CompileCache(CacheConfig config = {});

    std::shared_ptr<const CachedCompile>
    getOrCompute(const Circuit &input, const Device &device,
                 const CompileOptions &options,
                 const std::function<CachedCompile()> &compute) override;

    /** Point-in-time counters (thread-safe). */
    CacheStats stats() const;

    /**
     * Export `<prefix>.*` gauges (bytes, entries, plus counter
     * mirrors) on the installed obs sink. Counters are also emitted
     * incrementally as events happen; this adds the sizes.
     */
    void publishMetrics(const char *prefix = "cache") const;

    const CacheConfig &config() const { return config_; }

  private:
    /** One in-progress compute; waiters block on the condvar. */
    struct Flight
    {
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        std::shared_ptr<const CachedCompile> artifact;
        std::exception_ptr error;
    };

    std::shared_ptr<const CachedCompile>
    lookupMemoryLocked(const std::string &key);
    void insertMemoryLocked(const std::string &key,
                            std::shared_ptr<const CachedCompile> value);
    void bumpCounter(const char *name, double delta = 1.0) const;

    CacheConfig config_;
    std::unique_ptr<CacheStore> store_; // null when dir is empty

    mutable std::mutex mu_;
    /** MRU-front list + index: the in-process LRU tier. */
    std::list<std::pair<std::string, std::shared_ptr<const CachedCompile>>>
        lru_;
    std::unordered_map<std::string, decltype(lru_)::iterator> memory_;
    std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;
    CacheStats stats_;
};

} // namespace qsyn::cache
