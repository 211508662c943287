/**
 * @file
 * Tests for the observability layer (qsyn::obs): jsonEscape edge
 * cases, counter/gauge/histogram semantics, span nesting across
 * threads, and round-tripping the Chrome trace-event / metrics JSON
 * exports through a real JSON parser.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "ir/circuit.hpp"
#include "qmdd/package.hpp"

#include "service/json.hpp"

using namespace qsyn;

namespace {

using service::Json;

} // namespace

/* ------------------------------------------------------------------ */
/* jsonEscape                                                         */
/* ------------------------------------------------------------------ */

TEST(ObsJsonEscape, EdgeCases)
{
    EXPECT_EQ(obs::jsonEscape("plain"), "plain");
    EXPECT_EQ(obs::jsonEscape("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(obs::jsonEscape("C:\\path\\file"), "C:\\\\path\\\\file");
    EXPECT_EQ(obs::jsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
    EXPECT_EQ(obs::jsonEscape(std::string("\x01\x1f", 2)),
              "\\u0001\\u001f");
    EXPECT_EQ(obs::jsonEscape("\b\f"), "\\b\\f");
    EXPECT_EQ(obs::jsonEscape(""), "");
    // UTF-8 multibyte sequences pass through untouched.
    EXPECT_EQ(obs::jsonEscape("q\xc3\xbc" "bit"), "q\xc3\xbc" "bit");
}

TEST(ObsJsonEscape, RoundTripsThroughParser)
{
    std::string nasty = "he said \"q\\b\"\n\ttab\x01end";
    Json v;
    std::string error;
    ASSERT_TRUE(service::parseJson("\"" + obs::jsonEscape(nasty) + "\"",
                                   &v, &error))
        << error;
    ASSERT_EQ(v.type, Json::Type::String);
    EXPECT_EQ(v.str, nasty);
}

/* ------------------------------------------------------------------ */
/* Metrics                                                            */
/* ------------------------------------------------------------------ */

TEST(ObsMetrics, CounterAndGaugeSemantics)
{
    obs::MetricsRegistry m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.counter("c"), 0.0);

    m.addCounter("c");
    m.addCounter("c", 2.5);
    EXPECT_DOUBLE_EQ(m.counter("c"), 3.5);

    m.setGauge("g", 7.0);
    m.setGauge("g", 9.0); // last write wins
    EXPECT_DOUBLE_EQ(m.gauge("g"), 9.0);
    EXPECT_FALSE(m.empty());
}

TEST(ObsMetrics, HistogramSemantics)
{
    obs::MetricsRegistry m;
    m.observe("h", 1.0);
    m.observe("h", 4.0);
    m.observe("h", 16.0);
    obs::Histogram h = m.histogram("h");
    EXPECT_EQ(h.count, 3u);
    EXPECT_DOUBLE_EQ(h.sum, 21.0);
    EXPECT_DOUBLE_EQ(h.min, 1.0);
    EXPECT_DOUBLE_EQ(h.max, 16.0);
    EXPECT_DOUBLE_EQ(h.mean(), 7.0);
    // Power-of-two buckets: 1 -> le_1, 4 -> le_4, 16 -> le_16.
    EXPECT_EQ(h.buckets[0], 1u);
    EXPECT_EQ(h.buckets[2], 1u);
    EXPECT_EQ(h.buckets[4], 1u);
    // Absent histogram is zero-initialized.
    EXPECT_EQ(m.histogram("nope").count, 0u);
}

TEST(ObsMetrics, ThreadSafeCounters)
{
    obs::MetricsRegistry m;
    constexpr int kThreads = 4;
    constexpr int kIncrements = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&m] {
            for (int i = 0; i < kIncrements; ++i)
                m.addCounter("shared");
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_DOUBLE_EQ(m.counter("shared"),
                     static_cast<double>(kThreads * kIncrements));
}

TEST(ObsMetrics, JsonSnapshotRoundTrips)
{
    obs::MetricsRegistry m;
    m.addCounter("route.swaps_inserted", 12);
    m.setGauge("qmdd.unique_hit_rate", 0.75);
    m.observe("route.reroute_path_length", 3.0);
    m.observe("route.reroute_path_length", 5.0);

    Json v;
    std::string error;
    ASSERT_TRUE(service::parseJson(m.toJson(), &v, &error)) << error;
    EXPECT_DOUBLE_EQ(
        v.at("counters").at("route.swaps_inserted").number, 12.0);
    EXPECT_DOUBLE_EQ(v.at("gauges").at("qmdd.unique_hit_rate").number,
                     0.75);
    const Json &h =
        v.at("histograms").at("route.reroute_path_length");
    EXPECT_DOUBLE_EQ(h.at("count").number, 2.0);
    EXPECT_DOUBLE_EQ(h.at("sum").number, 8.0);
    EXPECT_DOUBLE_EQ(h.at("min").number, 3.0);
    EXPECT_DOUBLE_EQ(h.at("max").number, 5.0);
    EXPECT_DOUBLE_EQ(h.at("mean").number, 4.0);
}

TEST(ObsMetrics, EmptyRegistryStillValidJson)
{
    obs::MetricsRegistry m;
    Json v;
    std::string error;
    ASSERT_TRUE(service::parseJson(m.toJson(), &v, &error)) << error;
    EXPECT_EQ(v.at("counters").object.size(), 0u);
    EXPECT_EQ(v.at("gauges").object.size(), 0u);
    EXPECT_EQ(v.at("histograms").object.size(), 0u);
}

/* ------------------------------------------------------------------ */
/* Spans and sinks                                                    */
/* ------------------------------------------------------------------ */

TEST(ObsSpan, NoSinkMeansNoEventsAndNoTiming)
{
    ASSERT_EQ(obs::sink(), nullptr);
    obs::Span span("orphan");
    span.arg("ignored", 1.0);
    EXPECT_DOUBLE_EQ(span.seconds(), 0.0); // untimed without a sink
    span.finish();

    // kTimed spans measure even without a sink (compile-stage timings).
    obs::Span timed("stage", obs::kTimed);
    EXPECT_GE(timed.seconds(), 0.0);
}

TEST(ObsSpan, RecordsEventWithArgs)
{
    obs::ScopedSink sink;
    {
        obs::Span span("unit.work", "test");
        span.arg("gates", 42);
        span.arg("name", "he\"llo\\");
        span.arg("ratio", 0.5);
    }
    std::vector<obs::TraceEvent> events = sink->events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "unit.work");
    EXPECT_STREQ(events[0].category, "test");
    EXPECT_GE(events[0].durUs, 0.0);
    EXPECT_GE(events[0].tsUs, 0.0);

    // The full trace export (with the odd string arg) must parse.
    Json v;
    std::string error;
    ASSERT_TRUE(service::parseJson(sink->traceJson(), &v, &error))
        << error;
    const Json &list = v.at("traceEvents");
    ASSERT_EQ(list.type, Json::Type::Array);
    // [0] is the process_name metadata record.
    ASSERT_EQ(list.array.size(), 2u);
    const Json &ev = list.array[1];
    EXPECT_EQ(ev.at("name").str, "unit.work");
    EXPECT_EQ(ev.at("ph").str, "X");
    EXPECT_DOUBLE_EQ(ev.at("args").at("gates").number, 42.0);
    EXPECT_EQ(ev.at("args").at("name").str, "he\"llo\\");
    EXPECT_DOUBLE_EQ(ev.at("args").at("ratio").number, 0.5);
}

TEST(ObsSpan, NestingAcrossThreads)
{
    obs::ScopedSink sink;
    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            obs::Span outer("outer");
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            {
                obs::Span inner("inner");
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    std::vector<obs::TraceEvent> events = sink->events();
    ASSERT_EQ(events.size(), 2u * kThreads);

    // Group by thread id: each thread contributes one outer + one
    // inner, and the inner's [ts, ts+dur] nests inside the outer's.
    std::map<std::uint32_t, std::vector<const obs::TraceEvent *>>
        by_tid;
    for (const obs::TraceEvent &e : events)
        by_tid[e.tid].push_back(&e);
    ASSERT_EQ(by_tid.size(), static_cast<size_t>(kThreads));
    for (const auto &[tid, evs] : by_tid) {
        ASSERT_EQ(evs.size(), 2u);
        const obs::TraceEvent *outer = nullptr, *inner = nullptr;
        for (const obs::TraceEvent *e : evs) {
            if (e->name == "outer")
                outer = e;
            else if (e->name == "inner")
                inner = e;
        }
        ASSERT_NE(outer, nullptr);
        ASSERT_NE(inner, nullptr);
        EXPECT_GE(inner->tsUs, outer->tsUs);
        EXPECT_LE(inner->tsUs + inner->durUs,
                  outer->tsUs + outer->durUs);
        EXPECT_GE(outer->durUs, inner->durUs);
    }
}

TEST(ObsSink, ScopedInstallAndClear)
{
    EXPECT_EQ(obs::sink(), nullptr);
    {
        obs::ScopedSink sink;
        EXPECT_EQ(obs::sink(), sink.get());
        EXPECT_TRUE(obs::enabled());
        {
            obs::Span span("x");
        }
        EXPECT_EQ(sink->events().size(), 1u);
        sink->clearEvents();
        EXPECT_EQ(sink->events().size(), 0u);
    }
    EXPECT_EQ(obs::sink(), nullptr);
    EXPECT_FALSE(obs::enabled());
}

TEST(ObsSink, TraceJsonAlwaysParses)
{
    obs::ScopedSink sink;
    // No events at all: still a valid document with the metadata row.
    Json empty;
    std::string error;
    ASSERT_TRUE(service::parseJson(sink->traceJson(), &empty, &error))
        << error;
    EXPECT_EQ(empty.at("traceEvents").array.size(), 1u);
    EXPECT_EQ(empty.at("displayTimeUnit").str, "ms");
}

/* ------------------------------------------------------------------ */
/* Logging                                                            */
/* ------------------------------------------------------------------ */

TEST(ObsLog, LevelParsing)
{
    obs::LogLevel level;
    EXPECT_TRUE(obs::parseLogLevel("quiet", &level));
    EXPECT_EQ(level, obs::LogLevel::Quiet);
    EXPECT_TRUE(obs::parseLogLevel("info", &level));
    EXPECT_EQ(level, obs::LogLevel::Info);
    EXPECT_TRUE(obs::parseLogLevel("debug", &level));
    EXPECT_EQ(level, obs::LogLevel::Debug);
    EXPECT_TRUE(obs::parseLogLevel("trace", &level));
    EXPECT_EQ(level, obs::LogLevel::Trace);
    EXPECT_FALSE(obs::parseLogLevel("verbose", &level));
    EXPECT_STREQ(obs::logLevelName(obs::LogLevel::Debug), "debug");
}

TEST(ObsLog, GatedByLevelAndCapturable)
{
    std::ostringstream captured;
    obs::setLogStream(&captured);
    obs::setLogLevel(obs::LogLevel::Info);

    QSYN_OBS_LOG(Info, "test") << "visible " << 42;
    QSYN_OBS_LOG(Debug, "test") << "hidden";

    obs::setLogLevel(obs::LogLevel::Quiet);
    QSYN_OBS_LOG(Info, "test") << "also hidden";

    obs::setLogStream(nullptr);

    EXPECT_EQ(captured.str(), "[info] test: visible 42\n");
    EXPECT_FALSE(obs::logEnabled(obs::LogLevel::Info));
}

TEST(ObsMetrics, PackagePublishesAllocatorAndTableInternals)
{
    obs::ScopedSink sink;
    qsyn::dd::PackageConfig cfg;
    cfg.initialUniqueCapacity = 64; // force at least one rehash
    qsyn::dd::Package pkg(cfg);
    // Dense enough that the 64-slot table must grow at least once.
    qsyn::Circuit c(5);
    for (int i = 0; i < 12; ++i) {
        c.addH(static_cast<qsyn::Qubit>(i % 5));
        c.addCcx(static_cast<qsyn::Qubit>(i % 5),
                 static_cast<qsyn::Qubit>((i + 1) % 5),
                 static_cast<qsyn::Qubit>((i + 2) % 5));
        c.addT(static_cast<qsyn::Qubit>((i + 3) % 5));
    }
    (void)pkg.buildCircuit(c);
    pkg.collectGarbage({}); // populate the free list
    pkg.publishMetrics();

    const obs::MetricsRegistry &m = sink->metrics();
    // Allocator internals.
    EXPECT_GT(m.gauge("qmdd.arena_nodes"), 0.0);
    EXPECT_GT(m.gauge("qmdd.free_list_length"), 0.0);
    EXPECT_DOUBLE_EQ(m.gauge("qmdd.arena_nodes"),
                     static_cast<double>(pkg.arenaNodes()));
    EXPECT_DOUBLE_EQ(m.gauge("qmdd.free_list_length"),
                     static_cast<double>(pkg.freeListLength()));
    // Unique-table shape.
    EXPECT_DOUBLE_EQ(m.gauge("qmdd.unique_capacity"),
                     static_cast<double>(pkg.uniqueCapacity()));
    EXPECT_GE(m.gauge("qmdd.unique_load_factor"), 0.0);
    EXPECT_LT(m.gauge("qmdd.unique_load_factor"), 1.0);
    EXPECT_GE(m.gauge("qmdd.unique_rehashes"), 1.0);
    // Per-cache eviction counters are present (zero is fine for a
    // circuit this small, but the gauges themselves must exist).
    Json v;
    std::string error;
    ASSERT_TRUE(service::parseJson(sink->metricsJson(), &v, &error))
        << error;
    for (const char *g :
         {"qmdd.mul_evictions", "qmdd.add_evictions",
          "qmdd.ct_evictions", "qmdd.live_nodes", "qmdd.peak_nodes"})
        EXPECT_NO_THROW(v.at("gauges").at(g)) << g;
}
