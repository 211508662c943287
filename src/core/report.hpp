/**
 * @file
 * Machine-readable compile reports: serialize a CompileResult as JSON
 * so downstream tooling (dashboards, regression trackers) can consume
 * the compiler's metrics without parsing its tables.
 */

#pragma once

#include <string>

#include "analysis/diagnostics.hpp"
#include "core/compiler.hpp"

namespace qsyn {

/** Report serialization knobs. */
struct ReportOptions
{
    /** When set, embed this static-analysis report (DAG metrics plus
     *  lint findings for the optimized circuit) as an "analysis"
     *  object. Not owned; must outlive the serialization call. Safe
     *  for deterministic reports: the analysis is a pure function of
     *  the compiled circuit. */
    const analysis::Diagnostics *analysis = nullptr;

    /** Emit what measures one run rather than its inputs: the "qmdd"
     *  verification-package counters, the "seconds" timings and the
     *  "resources" accounting. Timings differ between runs, and the
     *  qmdd counters differ between two compiles of the same input,
     *  because the compute-cache sets hash node addresses. */
    bool includeRunStats = true;

    /** The fully reproducible form: only fields that are a pure
     *  function of the compile inputs. `qsync --report-deterministic`,
     *  every qsynd response and the cache-consistency oracle use this,
     *  which is what makes remote and local reports byte-comparable. */
    static ReportOptions
    deterministic()
    {
        ReportOptions o;
        o.includeRunStats = false;
        return o;
    }
};

/** Serialize a compile result (metrics, routing stats, timings,
 *  verification verdict) as a JSON object. */
std::string compileReportJson(const CompileResult &result,
                              const Device &device,
                              const ReportOptions &options = {});

} // namespace qsyn
