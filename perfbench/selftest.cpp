/**
 * @file
 * Tests of the benchmark's own arithmetic: the percentile rule (with
 * failed requests counted as missing every limit), self time with
 * nested, overlapping and adjacent children, the precision of trace
 * timestamps, and the hot-set reuse depth that decides whether
 * service_mix's hot keys stay cached. Exits non-zero when any fails.
 */

#include <cmath>
#include <cstdio>
#include <sstream>

#include "bench.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::printf("FAIL: %s\n", what);
        ++failures;
    }
}

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> v;
    for (size_t i = n; i >= 1; --i)
        v.push_back(static_cast<double>(i));
    return v;
}

void
testPercentile()
{
    Percentile p50 = percentile(oneTo(20), 0.5);
    expect(p50.value == 10 && p50.beyond == 10 && p50.reported,
           "p50 of 20 samples: rank 10, ten beyond");
    expect(!percentile(oneTo(19), 0.5).reported,
           "p50 of 19 samples has only nine beyond");
    Percentile p90 = percentile(oneTo(100), 0.9);
    expect(p90.value == 90 && p90.beyond == 10 && p90.reported,
           "p90 of 100 samples");
    expect(!percentile(oneTo(99), 0.9).reported,
           "p90 of 99 samples is not reported");
    Percentile p99 = percentile(oneTo(1000), 0.99);
    expect(p99.value == 990 && p99.beyond == 10 && p99.reported,
           "p99 of 1000 samples");
    expect(!percentile(oneTo(999), 0.99).reported,
           "p99 of 999 samples is not reported");
    expect(!percentile({}, 0.5).reported, "no samples, no percentile");

    // 11 of 100 requests failed: they count as missing every limit, so
    // p90 lands on a failure and no latency limit is met there.
    std::vector<double> v = oneTo(100);
    for (size_t i = 0; i < 11; ++i)
        v[i] = kMissedLimit;
    expect(percentile(v, 0.9).value == kMissedLimit,
           "failures sort above every latency");
    v[0] = 1; // now 10 failures: p90 is the slowest real request
    expect(percentile(v, 0.9).value == 89, "p90 below ten failures");

    expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5 &&
               median({}) == 0,
           "median");
}

void
testSelfTime()
{
    expect(selfTime(0, 10, {}) == 10, "no children");
    expect(selfTime(0, 10, {{1, 5}, {2, 3}}) == 6, "nested children");
    expect(selfTime(0, 10, {{1, 3}, {2, 4}}) == 7, "overlapping children");
    expect(selfTime(0, 10, {{1, 3}, {3, 5}}) == 6, "adjacent children");
    expect(selfTime(0, 10, {{-2, 1}, {9, 12}}) == 8,
           "children sticking out are clipped");
    expect(selfTime(0, 10, {{0, 10}}) == 0, "child covering the parent");

    // Through the tracer: a grandchild is not subtracted from its
    // grandparent a second time.
    Tracer t(Clock::now(), 0);
    int request = t.begin("request");
    int child = t.begin("child");
    int grandchild = t.begin("grandchild");
    t.end(grandchild);
    t.end(child);
    t.end(request);
    std::map<std::string, double> self = t.selfMsByName();
    std::map<std::string, double> total = t.totalMsByName();
    double sum = self["request"] + self["child"] + self["grandchild"];
    expect(std::abs(sum - total["request"]) < 1e-9,
           "self times of a span tree add up to the root's duration");
}

void
testTracePrecision()
{
    // A span 30 s into a run keeps its sub-microsecond digits, so
    // nested spans stay nested when Perfetto reads the file back.
    Tracer t(Clock::now() - std::chrono::seconds(30), 0);
    t.end(t.begin("late"));
    std::ostringstream out;
    t.writeChromeTrace(out);
    const std::string json = out.str();
    const size_t at = json.find("\"ts\": ") + 6;
    const std::string ts = json.substr(at, json.find(',', at) - at);
    expect(ts.find('e') == std::string::npos && ts.size() > 4 &&
               ts[ts.size() - 4] == '.' && std::stod(ts) >= 3e7,
           "trace timestamps are written in full");
}

void
testHotReuseDepth()
{
    // Keys 0 and 1 are hot; 2.. are fresh misses.
    expect(hotReuseDepth({0, 1, 0, 1}, 2) == 1, "alternating hot keys");
    expect(hotReuseDepth({0, 2, 3, 2, 0}, 2) == 2,
           "repeats between uses count once");
    expect(hotReuseDepth({0, 1, 2, 3, 4, 1, 0}, 2) == 4,
           "fresh keys deepen the reuse distance");
    expect(hotReuseDepth({2, 3, 0}, 2) == 0, "a single use has no depth");
}

} // namespace

int
main()
{
    testPercentile();
    testSelfTime();
    testTracePrecision();
    testHotReuseDepth();
    if (failures == 0)
        std::printf("perfbench_selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
