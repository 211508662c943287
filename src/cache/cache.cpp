#include "cache/cache.hpp"

#include <chrono>

#include "cache/fingerprint.hpp"
#include "cache/serialize.hpp"
#include "common/errors.hpp"
#include "obs/obs.hpp"

namespace qsyn::cache {

CompileCache::CompileCache(CacheConfig config)
    : config_(std::move(config))
{
    if (!config_.dir.empty()) {
        StoreConfig sc;
        sc.dir = config_.dir;
        sc.maxBytes = config_.maxDiskBytes;
        store_ = std::make_unique<CacheStore>(sc);
    }
}

void
CompileCache::bumpCounter(const char *name, double delta) const
{
    obs::Sink *s = obs::sink();
    if (s != nullptr)
        s->metrics().addCounter(name, delta);
}

namespace {

using Clock = std::chrono::steady_clock;

/** In-process tier capacity (whole artifacts, shared_ptr'd). */
constexpr size_t kMaxMemoryEntries = 64;

/** Record a `*.latency_us` histogram sample (microsecond rule). */
void
observeLatencyUs(const char *name, Clock::time_point since)
{
    obs::Sink *s = obs::sink();
    if (s == nullptr)
        return;
    double us = std::chrono::duration<double, std::micro>(
                    Clock::now() - since)
                    .count();
    s->metrics().observe(name, us);
}

} // namespace

std::shared_ptr<const CachedCompile>
CompileCache::lookupMemoryLocked(const std::string &key)
{
    auto it = memory_.find(key);
    if (it == memory_.end())
        return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second); // refresh to MRU
    return it->second->second;
}

void
CompileCache::insertMemoryLocked(
    const std::string &key, std::shared_ptr<const CachedCompile> value)
{
    auto it = memory_.find(key);
    if (it != memory_.end()) {
        it->second->second = std::move(value);
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.emplace_front(key, std::move(value));
    memory_[key] = lru_.begin();
    while (memory_.size() > kMaxMemoryEntries && !lru_.empty()) {
        memory_.erase(lru_.back().first);
        lru_.pop_back();
    }
}

std::shared_ptr<const CachedCompile>
CompileCache::getOrCompute(const Circuit &input, const Device &device,
                           const CompileOptions &options,
                           const std::function<CachedCompile()> &compute)
{
    const std::string key =
        compileCacheKey(input, device, options, config_.versionSalt);
    Clock::time_point lookupStart = Clock::now();

    // Fast path + single-flight registration under the cache lock.
    std::shared_ptr<Flight> flight;
    bool leader = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (auto hit = lookupMemoryLocked(key)) {
            ++stats_.hits;
            ++stats_.memoryHits;
            bumpCounter("cache.hits");
            bumpCounter("cache.memory_hits");
            observeLatencyUs("cache.lookup.latency_us", lookupStart);
            return hit;
        }
        auto it = flights_.find(key);
        if (it != flights_.end()) {
            flight = it->second;
        } else {
            flight = std::make_shared<Flight>();
            flights_[key] = flight;
            leader = true;
        }
    }

    if (!leader) {
        // Another worker is compiling this key right now: wait and
        // share its result (or its exception) instead of recomputing.
        std::unique_lock<std::mutex> lock(flight->mu);
        flight->cv.wait(lock, [&] { return flight->done; });
        if (flight->error)
            std::rethrow_exception(flight->error);
        {
            std::lock_guard<std::mutex> cache_lock(mu_);
            ++stats_.hits;
            ++stats_.singleFlightShared;
        }
        bumpCounter("cache.hits");
        bumpCounter("cache.single_flight_shared");
        return flight->artifact;
    }

    auto finishFlight = [&](std::shared_ptr<const CachedCompile> artifact,
                            std::exception_ptr error) {
        {
            std::lock_guard<std::mutex> cache_lock(mu_);
            flights_.erase(key);
        }
        std::lock_guard<std::mutex> lock(flight->mu);
        flight->artifact = std::move(artifact);
        flight->error = error;
        flight->done = true;
        flight->cv.notify_all();
    };

    try {
        // Disk tier. A corrupt or truncated entry decodes to an
        // exception, which we treat as a miss and recompile cold.
        if (store_ != nullptr) {
            std::vector<std::uint8_t> payload;
            if (store_->load(key, &payload)) {
                bool decoded = false;
                CachedCompile artifact;
                try {
                    artifact = decodeCachedCompile(payload);
                    decoded = true;
                } catch (const Error &) {
                    // fall through to a cold compile
                }
                if (decoded) {
                    auto shared = std::make_shared<const CachedCompile>(
                        std::move(artifact));
                    {
                        std::lock_guard<std::mutex> lock(mu_);
                        insertMemoryLocked(key, shared);
                        ++stats_.hits;
                        ++stats_.diskHits;
                    }
                    bumpCounter("cache.hits");
                    bumpCounter("cache.disk_hits");
                    observeLatencyUs("cache.lookup.latency_us",
                                     lookupStart);
                    finishFlight(shared, nullptr);
                    return shared;
                }
            }
        }

        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.misses;
        }
        bumpCounter("cache.misses");

        auto shared =
            std::make_shared<const CachedCompile>(compute());
        if (store_ != nullptr) {
            Clock::time_point storeStart = Clock::now();
            store_->store(key, encodeCachedCompile(*shared));
            observeLatencyUs("cache.store.latency_us", storeStart);
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            insertMemoryLocked(key, shared);
            ++stats_.stores;
            if (store_ != nullptr)
                stats_.diskEvictions = store_->evictions();
        }
        bumpCounter("cache.stores");
        finishFlight(shared, nullptr);
        return shared;
    } catch (...) {
        finishFlight(nullptr, std::current_exception());
        throw;
    }
}

CacheStats
CompileCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    CacheStats out = stats_;
    out.memoryEntries = memory_.size();
    if (store_ != nullptr) {
        out.diskBytes = store_->bytes();
        out.diskEntries = store_->entries();
        out.diskEvictions = store_->evictions();
    }
    return out;
}

void
CompileCache::publishMetrics(const char *prefix) const
{
    obs::Sink *s = obs::sink();
    if (s == nullptr)
        return;
    CacheStats st = stats();
    obs::MetricsRegistry &m = s->metrics();
    std::string p(prefix);
    m.setGauge(p + ".bytes", static_cast<double>(st.diskBytes));
    m.setGauge(p + ".entries", static_cast<double>(st.diskEntries));
    m.setGauge(p + ".memory_entries",
               static_cast<double>(st.memoryEntries));
    m.setGauge(p + ".disk_evictions",
               static_cast<double>(st.diskEvictions));
    m.setGauge(p + ".hit_rate",
               st.hits + st.misses > 0
                   ? static_cast<double>(st.hits) /
                         static_cast<double>(st.hits + st.misses)
                   : 0.0);
}

} // namespace qsyn::cache
