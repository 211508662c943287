#include <iomanip>

#include "bench.hpp"
#include "obs/obs.hpp"

namespace perfbench {

double
Tracer::nowUs() const
{
    return secondsBetween(epoch_, Clock::now()) * 1e6;
}

int
Tracer::begin(const std::string &name)
{
    SpanRecord rec;
    rec.name = name;
    rec.parent = open_.empty() ? -1 : open_.back();
    rec.request = request_;
    rec.thread = thread_;
    rec.startUs = nowUs();
    spans_.push_back(std::move(rec));
    int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    return index;
}

void
Tracer::end(int index)
{
    spans_[static_cast<size_t>(index)].endUs = nowUs();
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

void
Tracer::merge(const Tracer &other)
{
    const int offset = static_cast<int>(spans_.size());
    for (SpanRecord rec : other.spans_) {
        if (rec.parent >= 0)
            rec.parent += offset;
        spans_.push_back(std::move(rec));
    }
}

std::map<std::string, double>
Tracer::selfMsByName() const
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const SpanRecord &rec : spans_) {
        if (rec.parent >= 0)
            children[static_cast<size_t>(rec.parent)].emplace_back(
                rec.startUs, rec.endUs);
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        out[spans_[i].name] +=
            selfTime(spans_[i].startUs, spans_[i].endUs,
                     std::move(children[i])) /
            1e3;
    }
    return out;
}

std::map<std::string, double>
Tracer::totalMsByName() const
{
    std::map<std::string, double> out;
    for (const SpanRecord &rec : spans_)
        out[rec.name] += (rec.endUs - rec.startUs) / 1e3;
    return out;
}

void
Tracer::writeChromeTrace(std::ostream &out) const
{
    // Microseconds to the nanosecond: the default six significant
    // digits would round a start time of seconds to tens of µs and
    // break the nesting of short spans.
    out << std::fixed << std::setprecision(3);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &rec = spans_[i];
        out << (i == 0 ? "\n" : ",\n") << "{\"name\": \""
            << qsyn::obs::jsonEscape(rec.name)
            << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1"
            << ", \"tid\": " << rec.thread << ", \"ts\": " << rec.startUs
            << ", \"dur\": " << (rec.endUs - rec.startUs)
            << ", \"args\": {\"request\": " << rec.request
            << ", \"span\": " << i << ", \"parent\": " << rec.parent
            << "}}";
    }
    out << "\n]}\n";
}

} // namespace perfbench
