/**
 * @file
 * Compiler-wide observability: scoped trace spans, a metrics registry
 * (counters / gauges / histograms), and a leveled structured logger.
 *
 * Design rules:
 *  - With no sink installed every instrumentation call reduces to one
 *    relaxed atomic load and a branch on a null pointer, so the hot
 *    compile path pays nothing when tracing is off.
 *  - The sink is process-global but *not* owned globally: callers (CLI
 *    drivers, tests) create a Sink on their stack and install it for a
 *    scope (see ScopedSink).
 *  - Span nesting needs no bookkeeping: spans are exported as Chrome
 *    trace-event "complete" (ph:"X") events whose ts/dur containment
 *    on one thread id reconstructs the flame graph in Perfetto or
 *    chrome://tracing.
 *
 * Naming conventions (see docs/observability.md): dot-separated,
 * lowercase, `<layer>.<thing>` — e.g. span `compile.route`, counter
 * `route.swaps_inserted`, gauge `qmdd.unique_hit_rate`, histogram
 * `route.reroute_path_length`.
 */

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace qsyn::obs {

/* ------------------------------------------------------------------ */
/* JSON helpers                                                       */
/* ------------------------------------------------------------------ */

/**
 * Escape a string for inclusion inside a JSON string literal: quotes,
 * backslashes, and all control characters (U+0000..U+001F, with the
 * common short forms \n \r \t \b \f and \u00XX otherwise). Bytes >=
 * 0x20 pass through untouched, so UTF-8 survives.
 */
std::string jsonEscape(std::string_view s);

/* ------------------------------------------------------------------ */
/* Leveled logging                                                    */
/* ------------------------------------------------------------------ */

/** Verbosity levels, ordered: each level includes the ones before. */
enum class LogLevel : int
{
    Quiet = 0, ///< nothing
    Info = 1,  ///< high-level progress
    Debug = 2, ///< per-stage detail (pass breakdowns, stats dumps)
    Trace = 3  ///< per-decision detail (reroutes, pass rounds)
};

/** Printable name ("quiet", "info", ...). */
const char *logLevelName(LogLevel level);

/** Parse a level name; returns false on unknown names. */
bool parseLogLevel(std::string_view name, LogLevel *out);

/**
 * Current level. Defaults to Quiet, or to the value of the QSYN_LOG
 * environment variable (read once, on first use) when set.
 */
LogLevel logLevel();

/** Override the level (CLI --log-level beats QSYN_LOG). */
void setLogLevel(LogLevel level);

/** Redirect log output (default: stderr). Null restores stderr. */
void setLogStream(std::ostream *stream);

/** True when a message at `level` would be emitted. */
bool logEnabled(LogLevel level);

/**
 * One log line, built up by streaming and emitted on destruction as
 *
 *     [level] component: message\n
 *
 * Use via the QSYN_OBS_LOG macro so the message construction is
 * skipped entirely when the level is disabled.
 */
class LogMessage
{
  public:
    LogMessage(LogLevel level, const char *component);
    ~LogMessage();

    LogMessage(const LogMessage &) = delete;
    LogMessage &operator=(const LogMessage &) = delete;

    std::ostream &stream() { return buf_; }

  private:
    LogLevel level_;
    const char *component_;
    std::ostringstream buf_;
};

/** Leveled log statement: evaluates its operands only when enabled.
 *  Usage: QSYN_OBS_LOG(Debug, "opt") << "removed " << n << " gates"; */
#define QSYN_OBS_LOG(level, component)                                   \
    if (!::qsyn::obs::logEnabled(::qsyn::obs::LogLevel::level))          \
        ;                                                                \
    else                                                                 \
        ::qsyn::obs::LogMessage(::qsyn::obs::LogLevel::level,            \
                                (component))                             \
            .stream()

/* ------------------------------------------------------------------ */
/* Metrics                                                            */
/* ------------------------------------------------------------------ */

/**
 * Fixed-layout histogram: count/sum/min/max plus power-of-two upper-
 * bound buckets (bucket i counts samples with value <= 2^i; the last
 * bucket is a catch-all). Cheap enough to update under the registry
 * mutex and precise enough for path-length / node-count shapes.
 */
struct Histogram
{
    static constexpr int kBuckets = 32;

    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::array<std::uint64_t, kBuckets> buckets{};

    void observe(double value);
    double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }

    /** Upper bound of bucket `bucket` (2^bucket). */
    static double bucketUpperBound(int bucket);

    /**
     * Estimate the q-quantile (q in [0,1]) by linear interpolation
     * inside the power-of-two bucket holding the target rank, clamped
     * to the exact [min, max] extremes. Accuracy is bounded by bucket
     * width — good enough for p50/p95/p99 dashboards, which is what
     * the `*.latency_us` microsecond rule keeps meaningful.
     */
    double quantile(double q) const;
};

/**
 * Thread-safe registry of named counters (monotone adds), gauges
 * (last-write-wins), and histograms. Name lookups take a mutex, so
 * hot loops should accumulate locally and flush once per phase — the
 * routing and QMDD layers do exactly that.
 */
class MetricsRegistry
{
  public:
    void addCounter(std::string_view name, double delta = 1.0);
    void setGauge(std::string_view name, double value);
    void observe(std::string_view name, double value);

    /** Value of a counter / gauge; 0 when absent. */
    double counter(std::string_view name) const;
    double gauge(std::string_view name) const;
    /** Copy of a histogram; zero-count when absent. */
    Histogram histogram(std::string_view name) const;

    bool empty() const;

    /** Snapshot as a JSON object: {"counters": {...}, "gauges": {...},
     *  "histograms": {name: {count,sum,min,max,mean,p50,p95,p99,
     *  buckets}}}. */
    std::string toJson() const;

    /** Like toJson(), but try-lock: returns false without blocking
     *  when the registry mutex is contended. Crash-dump safe(ish) —
     *  the flight recorder uses it so a fault under the metrics lock
     *  cannot deadlock the handler. */
    bool tryToJson(std::string *out) const;

    /** Prometheus text exposition 0.0.4 (see obs/expo.hpp for the
     *  naming rules). Defined in expo.cpp. */
    std::string toPrometheus() const;

  private:
    std::string toJsonLocked() const;

    mutable std::mutex mutex_;
    std::map<std::string, double, std::less<>> counters_;
    std::map<std::string, double, std::less<>> gauges_;
    std::map<std::string, Histogram, std::less<>> histograms_;
};

/* ------------------------------------------------------------------ */
/* Tracing                                                            */
/* ------------------------------------------------------------------ */

/** One completed span, in Chrome trace-event terms. */
struct TraceEvent
{
    std::string name;
    const char *category = "qsyn";
    double tsUs = 0.0;  ///< start, microseconds since sink creation
    double durUs = 0.0; ///< duration, microseconds
    std::uint32_t tid = 0;
    /** Pre-rendered `"key": value` pairs, comma-joined (no braces);
     *  empty = no args object. */
    std::string argsJson;
};

/**
 * Collection point for spans and metrics. Thread-safe; one per
 * observed run. Install with installSink / ScopedSink.
 */
class Sink
{
  public:
    Sink();

    Sink(const Sink &) = delete;
    Sink &operator=(const Sink &) = delete;

    /** Microseconds elapsed since this sink was created. */
    double nowUs() const;
    /** Convert an absolute steady_clock time to sink-relative us. */
    double toUs(std::chrono::steady_clock::time_point t) const;

    void record(TraceEvent &&event);

    /** Attach a human-readable name to a thread id; exported as a
     *  Chrome trace `thread_name` metadata event so Perfetto shows
     *  `batch-worker-3` instead of a bare tid. Last write wins. */
    void setThreadName(std::uint32_t tid, std::string_view name);

    MetricsRegistry &metrics() { return metrics_; }
    const MetricsRegistry &metrics() const { return metrics_; }

    /** Copy of everything recorded so far (tests, exporters). */
    std::vector<TraceEvent> events() const;

    /** Drop recorded events (long-running collectors, benchmarks). */
    void clearEvents();

    /** Chrome trace-event JSON ({"traceEvents": [...]}); loads in
     *  Perfetto and chrome://tracing. */
    std::string traceJson() const;
    /** Metrics snapshot JSON (MetricsRegistry::toJson). */
    std::string metricsJson() const { return metrics_.toJson(); }

  private:
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<TraceEvent> events_;
    std::map<std::uint32_t, std::string> threadNames_;
    MetricsRegistry metrics_;
};

namespace detail {
extern std::atomic<Sink *> g_sink;
} // namespace detail

/** The installed sink, or null when observability is off. This is the
 *  null-pointer branch every instrumentation site starts with. */
inline Sink *
sink()
{
    return detail::g_sink.load(std::memory_order_acquire);
}

/** True when a sink is installed (spans/metrics will be recorded). */
inline bool
enabled()
{
    return sink() != nullptr;
}

/** Install (or, with null, remove) the process-global sink. The caller
 *  keeps ownership and must outlive the installation. */
void installSink(Sink *s);

/** RAII: owns a Sink and installs it for the enclosing scope. */
class ScopedSink
{
  public:
    ScopedSink() { installSink(&sink_); }
    ~ScopedSink() { installSink(nullptr); }

    ScopedSink(const ScopedSink &) = delete;
    ScopedSink &operator=(const ScopedSink &) = delete;

    Sink *operator->() { return &sink_; }
    Sink &operator*() { return sink_; }
    Sink *get() { return &sink_; }

  private:
    Sink sink_;
};

/** Small dense id for the calling thread (Chrome "tid" field). */
std::uint32_t currentThreadId();

/** Name the calling thread everywhere it matters: the installed sink
 *  (trace thread_name metadata, if a sink is up) and the flight
 *  recorder (crash-dump span stacks). Call once per thread, after the
 *  sink is installed — BatchCompiler workers and the tool mains do. */
void nameCurrentThread(std::string_view name);

/** Tag type selecting the always-timed Span constructor. */
struct TimedTag
{
};
inline constexpr TimedTag kTimed{};

/**
 * RAII scoped span. The plain constructor is free when no sink is
 * installed (it never reads the clock); the kTimed variant always
 * times so callers can reuse the measurement (compile-stage seconds in
 * CompileResult) whether or not tracing is on.
 */
class Span
{
  public:
    explicit Span(const char *name, const char *category = "qsyn");
    /** Always-timed: seconds() is valid even with no sink. */
    Span(const char *name, TimedTag, const char *category = "qsyn");
    ~Span() { finish(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Attach a key/value to the span's args (no-op with no sink). */
    template <class T,
              std::enable_if_t<std::is_arithmetic_v<T>, int> = 0>
    void
    arg(std::string_view key, T value)
    {
        argNumber(key, static_cast<double>(value));
    }
    void arg(std::string_view key, std::string_view value)
    {
        argString(key, value);
    }
    void arg(std::string_view key, const char *value)
    {
        argString(key, value);
    }

    /** Seconds elapsed since construction. Valid while timing (sink
     *  installed or kTimed); otherwise returns 0. */
    double seconds() const;

    /** Record the span now instead of at scope exit. Idempotent. */
    void finish();

  private:
    void argNumber(std::string_view key, double value);
    void argString(std::string_view key, std::string_view value);

    Sink *sink_;
    const char *name_;
    const char *category_;
    std::chrono::steady_clock::time_point start_;
    bool timing_;
    bool flight_; ///< flight recorder was on at construction
    bool done_ = false;
    std::string argsJson_;
};

} // namespace qsyn::obs
