#include "bench_util.hpp"

#include <cstdio>

#include "common/strings.hpp"

namespace qsyn::bench {

std::string
metricCell(const StageMetrics &m)
{
    return std::to_string(m.tCount) + "/" + std::to_string(m.gates) +
           "/" + formatNumber(m.cost, 2);
}

std::string
percentCell(double percent)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", percent);
    return buf;
}

std::string
timingCell(const CompileResult &result)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3fs", result.totalSeconds);
    std::string cell = buf;
    if (result.verifyRan) {
        cell += result.verified() ? " [verified]" : " [UNVERIFIED]";
    }
    return cell;
}

CompileResult
compileForTable(const Circuit &input, const Device &device)
{
    Compiler compiler(device, CompileOptions{});
    return compiler.compile(input);
}

} // namespace qsyn::bench
