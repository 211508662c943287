/**
 * @file
 * Tests for the service-grade telemetry layer: histogram bucket
 * boundaries and quantile estimation, Prometheus text exposition,
 * registry behaviour under concurrent writers+readers, the flight
 * recorder (ring semantics, span stacks, crash dumps), and the
 * per-compile resource probe.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/expo.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"
#include "obs/rusage.hpp"

#include "service/json.hpp"

using namespace qsyn;
using service::Json;

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** RAII: flight recording on for a test, reset + off afterwards so
 *  the global ring never leaks state between tests. */
struct ScopedRecording
{
    ScopedRecording()
    {
        obs::flight::reset();
        obs::flight::setRecording(true);
    }
    ~ScopedRecording()
    {
        obs::flight::setRecording(false);
        obs::flight::reset();
    }
};

} // namespace

/* ------------------------------------------------------------------ */
/* Histogram buckets and quantiles                                    */
/* ------------------------------------------------------------------ */

TEST(ObsHistogram, BucketUpperBounds)
{
    EXPECT_DOUBLE_EQ(obs::Histogram::bucketUpperBound(0), 1.0);
    EXPECT_DOUBLE_EQ(obs::Histogram::bucketUpperBound(1), 2.0);
    EXPECT_DOUBLE_EQ(obs::Histogram::bucketUpperBound(10), 1024.0);
    EXPECT_DOUBLE_EQ(obs::Histogram::bucketUpperBound(20),
                     1048576.0);
}

TEST(ObsHistogram, BucketBoundaryPlacement)
{
    // Bucket i counts samples <= 2^i: a value exactly on a boundary
    // lands in that bucket, one ulp above lands in the next.
    obs::Histogram h;
    h.observe(1.0);   // le=1  -> bucket 0
    h.observe(2.0);   // le=2  -> bucket 1
    h.observe(2.001); // le=4  -> bucket 2
    h.observe(8.0);   // le=8  -> bucket 3
    h.observe(8.001); // le=16 -> bucket 4
    EXPECT_EQ(h.buckets[0], 1u);
    EXPECT_EQ(h.buckets[1], 1u);
    EXPECT_EQ(h.buckets[2], 1u);
    EXPECT_EQ(h.buckets[3], 1u);
    EXPECT_EQ(h.buckets[4], 1u);
    EXPECT_EQ(h.count, 5u);
}

TEST(ObsHistogram, QuantileGolden)
{
    obs::Histogram h;
    h.observe(1.0);
    h.observe(2.0);
    h.observe(4.0);
    // p50: target rank 1.5 falls in bucket le=2 ([1,2]), halfway in.
    EXPECT_NEAR(h.quantile(0.50), 1.5, 1e-9);
    // p99: rank 2.97 falls in bucket le=4 ([2,4]), 97% in.
    EXPECT_NEAR(h.quantile(0.99), 3.94, 1e-9);
    // The extremes are exact, not bucket-estimated.
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
}

TEST(ObsHistogram, QuantileClampsToObservedExtremes)
{
    // A single sample of 5 sits in bucket le=8; interpolation alone
    // would say 8, but max=5 is exact and wins.
    obs::Histogram h;
    h.observe(5.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 5.0);
    // Empty histogram: quantiles are 0 by definition.
    obs::Histogram empty;
    EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST(ObsHistogram, MetricsJsonCarriesQuantiles)
{
    obs::MetricsRegistry m;
    for (int i = 1; i <= 100; ++i)
        m.observe("lat", static_cast<double>(i));
    Json v;
    std::string error;
    ASSERT_TRUE(service::parseJson(m.toJson(), &v, &error)) << error;
    const Json &h = v.at("histograms").at("lat");
    EXPECT_NE(h.find("p50"), nullptr);
    EXPECT_NE(h.find("p95"), nullptr);
    EXPECT_NE(h.find("p99"), nullptr);
    // Bucket resolution bounds accuracy; the estimates must at least
    // be ordered and inside the observed range.
    double p50 = h.at("p50").number;
    double p95 = h.at("p95").number;
    double p99 = h.at("p99").number;
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_GE(p50, 1.0);
    EXPECT_LE(p99, 100.0);
}

/* ------------------------------------------------------------------ */
/* Prometheus exposition                                              */
/* ------------------------------------------------------------------ */

TEST(ObsPrometheus, NameSanitization)
{
    EXPECT_EQ(obs::promName("compile.latency_us"),
              "qsyn_compile_latency_us");
    EXPECT_EQ(obs::promName("route.swaps_inserted"),
              "qsyn_route_swaps_inserted");
    EXPECT_EQ(obs::promName("weird-name with spaces"),
              "qsyn_weird_name_with_spaces");
}

TEST(ObsPrometheus, GoldenPage)
{
    obs::MetricsRegistry m;
    m.addCounter("a.count", 3);
    m.setGauge("g", 2.5);
    m.observe("h", 1.0);
    m.observe("h", 2.0);
    EXPECT_EQ(m.toPrometheus(),
              "# TYPE qsyn_a_count_total counter\n"
              "qsyn_a_count_total 3\n"
              "# TYPE qsyn_g gauge\n"
              "qsyn_g 2.5\n"
              "# TYPE qsyn_h histogram\n"
              "qsyn_h_bucket{le=\"1\"} 1\n"
              "qsyn_h_bucket{le=\"2\"} 2\n"
              "qsyn_h_bucket{le=\"+Inf\"} 2\n"
              "qsyn_h_sum 3\n"
              "qsyn_h_count 2\n");
}

TEST(ObsPrometheus, CounterTotalSuffixNotDoubled)
{
    obs::MetricsRegistry m;
    m.addCounter("requests_total", 1);
    std::string page = m.toPrometheus();
    EXPECT_NE(page.find("qsyn_requests_total 1"), std::string::npos);
    EXPECT_EQ(page.find("_total_total"), std::string::npos);
}

TEST(ObsPrometheus, HistogramBucketsAreCumulative)
{
    obs::MetricsRegistry m;
    for (int i = 0; i < 10; ++i)
        m.observe("x", 1.0); // all in bucket le=1
    m.observe("x", 100.0);   // bucket le=128
    std::string page = m.toPrometheus();
    // The cumulative count never decreases and every bucket up to the
    // one holding the last sample is emitted.
    EXPECT_NE(page.find("qsyn_x_bucket{le=\"1\"} 10"),
              std::string::npos);
    EXPECT_NE(page.find("qsyn_x_bucket{le=\"128\"} 11"),
              std::string::npos);
    EXPECT_NE(page.find("qsyn_x_bucket{le=\"+Inf\"} 11"),
              std::string::npos);
    EXPECT_NE(page.find("qsyn_x_count 11"), std::string::npos);
}

TEST(ObsPrometheus, WriteFileReportsErrors)
{
    obs::MetricsRegistry m;
    m.addCounter("c");
    std::string error;
    EXPECT_FALSE(obs::writePrometheusFile(
        m, "/nonexistent-dir-qsyn/x.prom", &error));
    EXPECT_FALSE(error.empty());

    std::string path = ::testing::TempDir() + "qsyn_expo_test.prom";
    ASSERT_TRUE(obs::writePrometheusFile(m, path, &error)) << error;
    std::string page = slurp(path);
    EXPECT_NE(page.find("qsyn_c_total 1"), std::string::npos);
    std::remove(path.c_str());
}

/* ------------------------------------------------------------------ */
/* Registry under concurrency                                         */
/* ------------------------------------------------------------------ */

TEST(ObsMetricsStress, ConcurrentWritersAndExporters)
{
    obs::MetricsRegistry m;
    constexpr int kThreads = 4;
    constexpr int kOps = 2000;
    std::atomic<bool> stop{false};

    // Exporters hammer the snapshot paths while writers mutate; the
    // test passes when nothing tears, deadlocks, or produces an
    // unparseable snapshot.
    std::thread exporter([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            Json snapshot;
            EXPECT_TRUE(service::parseJson(m.toJson(), &snapshot));
            std::string prom = m.toPrometheus();
            EXPECT_TRUE(prom.empty() ||
                        prom.rfind("# TYPE", 0) == 0);
            std::string viaTry;
            if (m.tryToJson(&viaTry)) {
                EXPECT_TRUE(service::parseJson(viaTry, &snapshot));
            }
        }
    });

    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&m, t] {
            for (int i = 0; i < kOps; ++i) {
                m.addCounter("stress.counter");
                m.setGauge("stress.gauge", static_cast<double>(i));
                m.observe("stress.hist",
                          static_cast<double>((t * kOps + i) % 257));
            }
        });
    }
    for (std::thread &w : writers)
        w.join();
    stop.store(true, std::memory_order_relaxed);
    exporter.join();

    EXPECT_DOUBLE_EQ(m.counter("stress.counter"),
                     static_cast<double>(kThreads * kOps));
    EXPECT_EQ(m.histogram("stress.hist").count,
              static_cast<std::uint64_t>(kThreads * kOps));
}

TEST(ObsMetricsStress, TryToJsonSucceedsUncontended)
{
    obs::MetricsRegistry m;
    m.addCounter("c", 2);
    std::string out;
    ASSERT_TRUE(m.tryToJson(&out));
    Json v;
    std::string error;
    ASSERT_TRUE(service::parseJson(out, &v, &error)) << error;
    EXPECT_DOUBLE_EQ(v.at("counters").at("c").number, 2.0);
}

/* ------------------------------------------------------------------ */
/* Flight recorder                                                    */
/* ------------------------------------------------------------------ */

TEST(ObsFlight, RecordingGate)
{
    obs::flight::reset();
    ASSERT_FALSE(obs::flight::recording());
    obs::flight::record(obs::flight::EventKind::Mark, "dropped");
    EXPECT_TRUE(obs::flight::snapshot().empty());

    ScopedRecording rec;
    obs::flight::record(obs::flight::EventKind::Mark, "kept");
    std::vector<obs::flight::Event> events = obs::flight::snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "kept");
    EXPECT_EQ(events[0].kind, obs::flight::EventKind::Mark);
    EXPECT_EQ(events[0].tid, obs::currentThreadId());
}

TEST(ObsFlight, SnapshotIsInSequenceOrderAndRingWraps)
{
    ScopedRecording rec;
    const size_t total = obs::flight::kCapacity + 100;
    for (size_t i = 0; i < total; ++i)
        obs::flight::record(obs::flight::EventKind::Mark, "m",
                            static_cast<double>(i));
    std::vector<obs::flight::Event> events = obs::flight::snapshot();
    ASSERT_EQ(events.size(), obs::flight::kCapacity);
    // Oldest first, strictly increasing seq, and the earliest 100
    // events were overwritten by the wrap.
    EXPECT_EQ(events.front().seq, 101u);
    for (size_t i = 1; i < events.size(); ++i)
        EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
    EXPECT_EQ(events.back().seq, total);
}

TEST(ObsFlight, LogDetailIsTruncatedNotTorn)
{
    ScopedRecording rec;
    std::string longText(200, 'x');
    obs::flight::record(obs::flight::EventKind::Log, "log", 1.0,
                        longText);
    std::vector<obs::flight::Event> events = obs::flight::snapshot();
    ASSERT_EQ(events.size(), 1u);
    std::string detail = events[0].detail;
    EXPECT_LT(detail.size(), sizeof(events[0].detail));
    EXPECT_EQ(detail, std::string(detail.size(), 'x'));
}

TEST(ObsFlight, SpansFeedRingAndThreadStacks)
{
    ScopedRecording rec;
    obs::flight::nameThreadForCrash("service-test");
    {
        obs::Span outer("outer.work");
        // While the span is open it must be on this thread's stack.
        bool found = false;
        for (const obs::flight::ThreadSpans &t :
             obs::flight::threadSpans()) {
            if (t.tid != obs::currentThreadId())
                continue;
            found = true;
            EXPECT_EQ(t.name, "service-test");
            ASSERT_EQ(t.stack.size(), 1u);
            EXPECT_STREQ(t.stack[0], "outer.work");
        }
        EXPECT_TRUE(found);
    }
    // After the scope closes: begin + end in the ring, empty stack.
    std::vector<obs::flight::Event> events = obs::flight::snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, obs::flight::EventKind::SpanBegin);
    EXPECT_EQ(events[1].kind, obs::flight::EventKind::SpanEnd);
    EXPECT_GE(events[1].value, 0.0); // duration us rides on SpanEnd
    for (const obs::flight::ThreadSpans &t :
         obs::flight::threadSpans()) {
        if (t.tid == obs::currentThreadId()) {
            EXPECT_TRUE(t.stack.empty());
        }
    }
}

TEST(ObsFlight, ConcurrentRecordersNeverTear)
{
    ScopedRecording rec;
    constexpr int kThreads = 4;
    constexpr int kEvents = 5000; // > kCapacity total: forces wraps
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < kEvents; ++i)
                obs::flight::record(obs::flight::EventKind::Mark,
                                    "spin", static_cast<double>(i));
        });
    }
    for (std::thread &t : threads)
        t.join();
    std::vector<obs::flight::Event> events = obs::flight::snapshot();
    ASSERT_LE(events.size(), obs::flight::kCapacity);
    ASSERT_FALSE(events.empty());
    for (size_t i = 1; i < events.size(); ++i)
        EXPECT_GT(events[i].seq, events[i - 1].seq);
    for (const obs::flight::Event &e : events)
        EXPECT_STREQ(e.name, "spin"); // no torn payloads
}

TEST(ObsFlight, WriteCrashDumpProducesParseableJson)
{
    ScopedRecording rec;
    std::string dir = ::testing::TempDir() + "qsyn_crash_test";
    obs::flight::CrashConfig config;
    config.dir = dir;
    obs::flight::installCrashHandler(config);
    obs::flight::nameThreadForCrash("dump-test");

    obs::ScopedSink sink;
    sink->metrics().addCounter("dump.counter", 7);
    obs::Span span("dump.span");
    std::string path = obs::flight::writeCrashDump("TEST");
    span.finish();

    ASSERT_FALSE(path.empty());
    Json v;
    std::string error;
    ASSERT_TRUE(service::parseJson(slurp(path), &v, &error))
        << error;
    EXPECT_DOUBLE_EQ(v.at("qsyn_crash_version").number, 1.0);
    EXPECT_EQ(v.at("signal").str, "TEST");
    EXPECT_GT(v.at("pid").number, 0.0);
    // The open span shows up in this thread's crash stack.
    const Json &spans = v.at("thread_spans");
    bool sawStack = false;
    for (const auto &[tid, entry] : spans.object) {
        if (entry.at("name").str != "dump-test")
            continue;
        ASSERT_EQ(entry.at("stack").array.size(), 1u);
        EXPECT_EQ(entry.at("stack").array[0].str, "dump.span");
        sawStack = true;
    }
    EXPECT_TRUE(sawStack);
    // The ring (span begin at least) and the metrics snapshot landed.
    EXPECT_FALSE(v.at("flight_recorder").array.empty());
    EXPECT_DOUBLE_EQ(
        v.at("metrics").at("counters").at("dump.counter").number, 7.0);
    std::remove(path.c_str());
}

/* ------------------------------------------------------------------ */
/* Resource accounting                                                */
/* ------------------------------------------------------------------ */

TEST(ObsResources, ProbeSamplesPlausibleValues)
{
    obs::ResourceProbe probe;
    // Burn a little CPU so the counters have something to see.
    volatile double x = 1.0;
    for (int i = 0; i < 2000000; ++i)
        x = x * 1.0000001 + 0.5;
    obs::ResourceUsage u = probe.sample();
    EXPECT_TRUE(u.valid);
    EXPECT_GT(u.wallSeconds, 0.0);
    EXPECT_GE(u.userCpuSeconds, 0.0);
    EXPECT_GE(u.sysCpuSeconds, 0.0);
    EXPECT_GT(u.peakRssKb, 0);
    EXPECT_GE(u.peakRssDeltaKb, 0);
    EXPECT_DOUBLE_EQ(u.cpuSeconds(),
                     u.userCpuSeconds + u.sysCpuSeconds);
}

TEST(ObsResources, AccumulateAddsTimesAndMaxesPeaks)
{
    obs::ResourceUsage a;
    a.wallSeconds = 1.0;
    a.userCpuSeconds = 0.5;
    a.sysCpuSeconds = 0.25;
    a.peakRssDeltaKb = 10;
    a.peakRssKb = 100;
    a.qmddPeakNodes = 50;
    a.qmddArenaBytes = 4096;
    a.valid = true;

    obs::ResourceUsage b;
    b.wallSeconds = 2.0;
    b.userCpuSeconds = 1.5;
    b.sysCpuSeconds = 0.75;
    b.peakRssDeltaKb = 5;
    b.peakRssKb = 200;
    b.qmddPeakNodes = 30;
    b.qmddArenaBytes = 8192;
    b.valid = true;

    a.accumulate(b);
    EXPECT_DOUBLE_EQ(a.wallSeconds, 3.0);
    EXPECT_DOUBLE_EQ(a.userCpuSeconds, 2.0);
    EXPECT_DOUBLE_EQ(a.sysCpuSeconds, 1.0);
    EXPECT_EQ(a.peakRssDeltaKb, 15);
    EXPECT_EQ(a.peakRssKb, 200);     // max, not sum
    EXPECT_EQ(a.qmddPeakNodes, 50u); // max, not sum
    EXPECT_EQ(a.qmddArenaBytes, 8192u);
    EXPECT_TRUE(a.valid);
}

TEST(ObsResources, ObserveFollowsMicrosecondRule)
{
    obs::MetricsRegistry m;
    obs::ResourceUsage u;
    u.wallSeconds = 0.5;
    u.userCpuSeconds = 0.25;
    u.sysCpuSeconds = 0.125;
    u.peakRssDeltaKb = 12;
    u.qmddPeakNodes = 99;
    u.valid = true;
    obs::observeResourceUsage(m, "compile", u);

    // Durations land in *_us histograms as microseconds — 0.5 s must
    // not collapse into the le=1 bucket as "0.5".
    obs::Histogram lat = m.histogram("compile.latency_us");
    ASSERT_EQ(lat.count, 1u);
    EXPECT_DOUBLE_EQ(lat.sum, 500000.0);
    EXPECT_DOUBLE_EQ(m.histogram("compile.user_cpu_us").sum, 250000.0);
    EXPECT_DOUBLE_EQ(m.histogram("compile.sys_cpu_us").sum, 125000.0);
    EXPECT_DOUBLE_EQ(m.histogram("compile.peak_rss_delta_kb").sum,
                     12.0);
    EXPECT_DOUBLE_EQ(m.histogram("compile.qmdd_peak_nodes").sum, 99.0);
}
