#include "core/batch.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "common/deadline.hpp"
#include "common/errors.hpp"
#include "common/stopwatch.hpp"
#include "common/strings.hpp"
#include "esop/cascade.hpp"
#include "frontend/loader.hpp"
#include "frontend/pla_parser.hpp"
#include "obs/expo.hpp"
#include "obs/obs.hpp"

namespace qsyn {

size_t
resolveJobs(size_t jobs)
{
    if (jobs != 0)
        return jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<size_t>(hw);
}

void
parallelFor(size_t n, size_t jobs, const std::function<void(size_t)> &fn,
            const char *threadNamePrefix)
{
    jobs = std::min(resolveJobs(jobs), n);
    if (jobs <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<size_t> next{0};
    auto worker = [&](size_t t) {
        if (threadNamePrefix != nullptr && t != 0)
            obs::nameCurrentThread(std::string(threadNamePrefix) + "-" +
                                   std::to_string(t));
        for (;;) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            fn(i);
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(jobs - 1);
    for (size_t t = 1; t < jobs; ++t)
        pool.emplace_back(worker, t);
    worker(0); // the calling thread is worker 0
    for (std::thread &t : pool)
        t.join();
}

Circuit
loadInputFile(const std::string &path)
{
    if (endsWith(toLower(path), ".pla"))
        return esop::synthesizePla(frontend::loadPlaFile(path));
    return frontend::loadCircuitFile(path);
}

BatchCompiler::BatchCompiler(Device device, CompileOptions options)
    : device_(std::move(device)), options_(std::move(options))
{
}

void
BatchCompiler::setStatsInterval(double seconds, std::string promPath)
{
    statsIntervalSeconds_ = seconds;
    statsPromPath_ = std::move(promPath);
}

std::vector<BatchItem>
BatchCompiler::compileFiles(const std::vector<std::string> &paths,
                            size_t jobs)
{
    return run(
        paths.size(), jobs,
        [&](size_t i) { return loadInputFile(paths[i]); },
        [&](size_t i) { return paths[i]; });
}

std::vector<BatchItem>
BatchCompiler::compileCircuits(const std::vector<Circuit> &circuits,
                               size_t jobs)
{
    return run(
        circuits.size(), jobs,
        [&](size_t i) { return circuits[i]; },
        [](size_t) { return std::string(); });
}

std::vector<BatchItem>
BatchCompiler::run(size_t n, size_t jobs,
                   const std::function<Circuit(size_t)> &load,
                   const std::function<std::string(size_t)> &name)
{
    obs::Span span("batch.compile", obs::kTimed);
    span.arg("circuits", n);
    size_t workers = std::min(resolveJobs(jobs), std::max<size_t>(n, 1));
    span.arg("jobs", workers);

    std::vector<BatchItem> items(n);

    // Periodic stats emitter (--stats-interval): progress to the log,
    // and a fresh Prometheus page when a path is configured. Runs only
    // for the duration of this batch; woken early on completion.
    std::atomic<size_t> completed{0};
    std::mutex emitterMu;
    std::condition_variable emitterCv;
    bool emitterStop = false;
    std::thread emitter;
    if (statsIntervalSeconds_ > 0.0) {
        emitter = std::thread([&] {
            obs::nameCurrentThread("batch-stats");
            auto interval = std::chrono::duration<double>(
                statsIntervalSeconds_);
            std::unique_lock<std::mutex> lock(emitterMu);
            while (!emitterCv.wait_for(lock, interval,
                                       [&] { return emitterStop; })) {
                QSYN_OBS_LOG(Info, "batch")
                    << "progress "
                    << completed.load(std::memory_order_relaxed) << "/"
                    << n;
                if (!statsPromPath_.empty()) {
                    if (obs::Sink *s = obs::sink())
                        obs::writePrometheusFile(s->metrics(),
                                                 statsPromPath_);
                }
            }
        });
    }

    parallelFor(
        n, workers,
        [&](size_t i) {
        BatchItem &item = items[i];
        item.inputPath = name(i);
        Stopwatch sw;
        try {
            // Each item gets its own wall-time budget, measured from
            // the moment a worker picks it up (queue wait excluded).
            deadline::Scope item_deadline(jobDeadlineSeconds_);
            // One Compiler per item.
            Circuit input = load(i);
            Compiler compiler(device_, options_);
            std::shared_ptr<const CachedCompile> artifact =
                compiler.compileCached(input, cache_);
            item.result = artifact->result;
            item.qasm = artifact->qasm;
            item.ok = true;
        } catch (const DeadlineError &e) {
            item.error = e.what();
            item.timedOut = true;
        } catch (const UserError &e) {
            item.error = e.what();
        } catch (const Error &e) {
            item.error = e.what();
            item.internalError = true;
        }
        item.seconds = sw.seconds();
        completed.fetch_add(1, std::memory_order_relaxed);
        QSYN_OBS_LOG(Debug, "batch")
            << (item.inputPath.empty() ? std::string("<circuit>")
                                       : item.inputPath)
            << ": " << (item.ok ? "ok" : item.error) << " ("
            << item.seconds << " s)";
        },
        "batch-worker");

    if (emitter.joinable()) {
        {
            std::lock_guard<std::mutex> lock(emitterMu);
            emitterStop = true;
        }
        emitterCv.notify_all();
        emitter.join();
    }

    summary_ = BatchSummary{};
    summary_.circuits = n;
    summary_.jobs = workers;
    mergedDd_ = dd::PackageStats{};
    totalGatesOut_ = 0;
    for (const BatchItem &item : items) {
        summary_.sumSeconds += item.seconds;
        if (!item.ok) {
            ++summary_.failed;
            continue;
        }
        ++summary_.succeeded;
        summary_.resources.accumulate(item.result.resources);
        totalGatesOut_ += item.result.optimizedM.gates;
        const dd::PackageStats &s = item.result.ddStats;
        mergedDd_.uniqueLookups += s.uniqueLookups;
        mergedDd_.uniqueHits += s.uniqueHits;
        mergedDd_.uniqueRehashes += s.uniqueRehashes;
        mergedDd_.multiplies += s.multiplies;
        mergedDd_.additions += s.additions;
        mergedDd_.computeLookups += s.computeLookups;
        mergedDd_.computeHits += s.computeHits;
        mergedDd_.mulEvictions += s.mulEvictions;
        mergedDd_.addEvictions += s.addEvictions;
        mergedDd_.ctEvictions += s.ctEvictions;
        mergedDd_.gcRuns += s.gcRuns;
        mergedDd_.peakNodes = std::max(mergedDd_.peakNodes, s.peakNodes);
    }
    summary_.wallSeconds = span.seconds();
    span.arg("failed", summary_.failed);
    QSYN_OBS_LOG(Info, "batch")
        << summary_.succeeded << "/" << n << " circuits on " << workers
        << " worker(s): " << summary_.wallSeconds << " s wall, "
        << summary_.sumSeconds << " s summed";
    return items;
}

void
BatchCompiler::publishMetrics(const char *prefix) const
{
    obs::Sink *s = obs::sink();
    if (s == nullptr)
        return;
    obs::MetricsRegistry &m = s->metrics();
    std::string p(prefix);
    m.setGauge(p + ".circuits", static_cast<double>(summary_.circuits));
    m.setGauge(p + ".succeeded",
               static_cast<double>(summary_.succeeded));
    m.setGauge(p + ".failed", static_cast<double>(summary_.failed));
    m.setGauge(p + ".jobs", static_cast<double>(summary_.jobs));
    m.setGauge(p + ".wall_seconds", summary_.wallSeconds);
    m.setGauge(p + ".sum_seconds", summary_.sumSeconds);
    m.setGauge(p + ".gates_out",
               static_cast<double>(totalGatesOut_));
    m.setGauge(p + ".user_cpu_seconds",
               summary_.resources.userCpuSeconds);
    m.setGauge(p + ".sys_cpu_seconds", summary_.resources.sysCpuSeconds);
    m.setGauge(p + ".peak_rss_kb",
               static_cast<double>(summary_.resources.peakRssKb));
    m.setGauge(p + ".qmdd_arena_bytes",
               static_cast<double>(summary_.resources.qmddArenaBytes));
    std::string q = p + ".qmdd";
    m.setGauge(q + ".unique_lookups",
               static_cast<double>(mergedDd_.uniqueLookups));
    m.setGauge(q + ".unique_hits",
               static_cast<double>(mergedDd_.uniqueHits));
    m.setGauge(q + ".unique_hit_rate", mergedDd_.uniqueHitRate());
    m.setGauge(q + ".compute_lookups",
               static_cast<double>(mergedDd_.computeLookups));
    m.setGauge(q + ".compute_hits",
               static_cast<double>(mergedDd_.computeHits));
    m.setGauge(q + ".compute_hit_rate", mergedDd_.computeHitRate());
    m.setGauge(q + ".multiplies",
               static_cast<double>(mergedDd_.multiplies));
    m.setGauge(q + ".additions",
               static_cast<double>(mergedDd_.additions));
    m.setGauge(q + ".gc_runs", static_cast<double>(mergedDd_.gcRuns));
    m.setGauge(q + ".peak_nodes",
               static_cast<double>(mergedDd_.peakNodes));
}

} // namespace qsyn
