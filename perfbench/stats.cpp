#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>

#include "bench.hpp"

namespace perfbench {

Percentile
percentile(std::vector<double> samples, double q, size_t minBeyond)
{
    Percentile p;
    p.samples = samples.size();
    if (samples.empty() || q <= 0.0 || q >= 1.0)
        return p;
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    // The small epsilon keeps q * n = 90.0000000001 from rounding up
    // to rank 91 when the product is exact in decimal.
    size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
    rank = std::clamp<size_t>(rank, 1, samples.size());
    p.value = samples[rank - 1];
    p.beyond = samples.size() - rank;
    p.reported = p.beyond >= minBeyond;
    return p;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return 0.5 * (values[mid - 1] + values[mid]);
}

double
selfTime(double start, double end,
         std::vector<std::pair<double, double>> children)
{
    if (end <= start)
        return 0.0;
    // Union of the children clipped to the parent, swept in start
    // order: nested and overlapping children are counted once.
    std::sort(children.begin(), children.end());
    double covered = 0.0;
    double reach = start;
    for (auto [s, e] : children) {
        s = std::max(s, reach);
        e = std::min(e, end);
        if (e > s) {
            covered += e - s;
            reach = e;
        }
    }
    return (end - start) - covered;
}

size_t
hotReuseDepth(const std::vector<std::uint32_t> &stream, size_t hotKeys)
{
    size_t worst = 0;
    std::vector<size_t> last(hotKeys, stream.size());
    for (size_t i = 0; i < stream.size(); ++i) {
        const std::uint32_t k = stream[i];
        if (k >= hotKeys)
            continue;
        if (last[k] < i) {
            std::vector<std::uint32_t> seen(stream.begin() + last[k] + 1,
                                            stream.begin() + i);
            std::sort(seen.begin(), seen.end());
            seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
            worst = std::max(worst, seen.size());
        }
        last[k] = i;
    }
    return worst;
}

double
peakRssMb(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string key;
    while (in >> key) {
        if (key == "VmHWM:") {
            double kb = 0.0;
            in >> kb;
            return kb / 1024.0;
        }
        std::string rest;
        std::getline(in, rest);
    }
    return 0.0;
}

std::string
format(const char *fmt, ...)
{
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}

} // namespace perfbench
