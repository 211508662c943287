/**
 * @file
 * Shared types of the qsyn benchmark harness: the run configuration,
 * the metric list a run prints, the arithmetic behind percentiles and
 * self time, and the in-memory span recorder of the traced run.
 *
 * The harness measures the library and the shipped `qsynd` binary from
 * the outside: nothing here is compiled into the program under test.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock instants. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** What one invocation was asked to do. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** The `qsynd` binary to spawn (built next to perfbench). */
    std::string qsyndPath;
    /** Directory for traces, sockets and daemon logs. */
    std::string outDir;
    /** main() entry: the start of the first set-up. */
    Clock::time_point processStart;
};

/**
 * Set-up repeats at least kMinSetups times and until kMinSetupSeconds
 * have passed since process start; setup_s is the median. A set-up of
 * a few milliseconds, repeated a fixed number of times, would sample
 * the machine's speed over a fraction of a second, and that speed
 * moves by a quarter within seconds.
 */
inline constexpr size_t kMinSetups = 9;
inline constexpr double kMinSetupSeconds = 2.0;

/** True while `done` set-ups are not yet enough. */
inline bool
needMoreSetups(const RunConfig &config, size_t done)
{
    return done < kMinSetups ||
           secondsBetween(config.processStart, Clock::now()) <
               kMinSetupSeconds;
}

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything a workload reports back to main(). */
struct RunResult
{
    size_t attempted = 0;
    size_t failed = 0;
    /** Output-check failures, one line per request or output. */
    std::vector<std::string> problems;
    /** End-to-end metrics (untraced run) or per-layer metrics (traced
     *  run), in BENCHMARK.json order. */
    std::vector<Metric> metrics;
    /** Human-readable report lines printed before the result line. */
    std::vector<std::string> report;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

/** @name Arithmetic (tested by perfbench_selftest) */
/// @{

/** A failed or refused request: it misses every latency limit. */
inline constexpr double kMissedLimit = 1e300;

/** A percentile and the evidence behind it. */
struct Percentile
{
    double value = 0.0;
    size_t samples = 0;
    /** Samples strictly above the percentile's rank. */
    size_t beyond = 0;
    /** True when at least `minBeyond` samples lie beyond it. */
    bool reported = false;
};

/**
 * Nearest-rank percentile `q` (0 < q < 1) of `samples`: the value at
 * 1-based rank ceil(q * n) of the sorted samples. Failed requests are
 * passed as kMissedLimit, so they sort above every real latency.
 * Reported only when n - rank >= minBeyond.
 */
Percentile percentile(std::vector<double> samples, double q,
                      size_t minBeyond = 10);

/** Median (mean of the middle pair for an even count); 0 when empty. */
double median(std::vector<double> values);

/**
 * Self time of a span [start, end]: its duration minus the part of
 * that interval covered by the union of its children's intervals.
 * Children may nest, overlap, touch or stick out of the parent.
 */
double selfTime(double start, double end,
                std::vector<std::pair<double, double>> children);

/**
 * Most distinct keys requested between two requests of one hot key
 * (keys below `hotKeys`) in `stream`: how deep in an LRU cache a hot
 * key must survive to be hit on its next request.
 */
size_t hotReuseDepth(const std::vector<std::uint32_t> &stream,
                     size_t hotKeys);

/// @}

/** One recorded span. Times are microseconds since the tracer began. */
struct SpanRecord
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    /** Index of the enclosing span in the same tracer, or -1. */
    int parent = -1;
    std::uint64_t request = 0;
    int thread = 0;
};

/**
 * In-memory span recorder. One tracer per thread; merge() joins them
 * at the end. Spans are kept until writeChromeTrace() dumps them, so
 * recording costs two clock reads and a vector push.
 */
class Tracer
{
  public:
    Tracer(Clock::time_point epoch, int thread)
        : epoch_(epoch), thread_(thread)
    {
    }

    /** Requests opened after this call carry `id`. */
    void setRequest(std::uint64_t id) { request_ = id; }

    /** Open a span nested in the innermost open one. */
    int begin(const std::string &name);
    /** Close the span `begin` returned. */
    void end(int index);

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const std::string &name)
            : tracer_(tracer), index_(tracer.begin(name))
        {
        }
        ~Scope() { tracer_.end(index_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int index_;
    };

    /** Append another tracer's spans (parents re-indexed). */
    void merge(const Tracer &other);

    /** Per span name: summed self time in milliseconds. */
    std::map<std::string, double> selfMsByName() const;
    /** Per span name: summed duration in milliseconds. */
    std::map<std::string, double> totalMsByName() const;

    /** Chrome trace-event JSON (loads in Perfetto). */
    void writeChromeTrace(std::ostream &out) const;

  private:
    double nowUs() const;

    Clock::time_point epoch_;
    int thread_;
    std::uint64_t request_ = 0;
    std::vector<SpanRecord> spans_;
    std::vector<int> open_;
};

/** @name Workloads */
/// @{
RunResult runPaperTables(const RunConfig &config);
RunResult runWide96(const RunConfig &config);
RunResult runDeep5(const RunConfig &config);
RunResult runServiceMix(const RunConfig &config);
/// @}

/** Peak resident set of a process in MiB (VmHWM; "self" or a pid). */
double peakRssMb(const std::string &pid = "self");

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace perfbench
