/**
 * @file
 * The end-to-end quantum logic synthesis and compilation tool of the
 * paper's Fig. 2: technology-independent circuit in, formally verified
 * technology-dependent QASM out.
 *
 * Pipeline: decompose (Barenco MCX networks + 15-gate Toffoli) ->
 * place -> CTR route (direction fixes + shortest-SWAP-path reroutes) ->
 * cost-driven local optimization -> QMDD equivalence check against the
 * input.
 */

#pragma once

#include <functional>
#include <memory>
#include <string>

#include "decompose/pass.hpp"
#include "device/device.hpp"
#include "ir/circuit.hpp"
#include "obs/rusage.hpp"
#include "opt/pipeline.hpp"
#include "qmdd/equivalence.hpp"
#include "route/ctr.hpp"
#include "route/placement.hpp"

namespace qsyn {

// From core/compile_cache.hpp (which includes this header).
struct CachedCompile;
class CompileCacheBase;

/** Verification behavior of the compiler. */
enum class VerifyMode
{
    Off,    ///< skip formal verification
    Full,   ///< QMDD check with the configured node budget
    /** Same as Full: the miter is the only check. Still declared only
     *  because the benchmark harness names it; delete it with that
     *  use. */
    Miter
};

/** Everything configurable about one compilation. */
struct CompileOptions
{
    decompose::McxStrategy mcxStrategy = decompose::McxStrategy::Auto;
    route::PlacementStrategy placement =
        route::PlacementStrategy::Identity;
    route::RouteOptions routing;

    bool optimize = true;
    opt::OptimizerOptions optimizer;
    /**
     * Also optimize the technology-independent intermediate form
     * before placement/routing (the paper's abstract: "optimization
     * procedures are applied in both the technologically-independent
     * intermediate form and the technologically-dependent final
     * result"). Uses the same pass set without device constraints.
     */
    bool optimizeTechIndependent = true;

    VerifyMode verify = VerifyMode::Full;
    /** Live-node cap for the QMDD check; exceeding it yields an
     *  Inconclusive verdict rather than unbounded memory use. */
    size_t verifyNodeBudget = 4u << 20;
    bool verifyUpToGlobalPhase = true;
};

/** T-count / gate volume / Eqn. 2 cost triple, as printed in the
 *  paper's tables. */
struct StageMetrics
{
    size_t tCount = 0;
    size_t gates = 0;
    double cost = 0.0;
    /** Critical-path length of the commutation-aware dependency DAG
     *  (see analysis/dag.hpp); 0 for an empty circuit. */
    size_t depth = 0;
};

/** Compute a StageMetrics under a cost model. */
StageMetrics measure(const Circuit &circuit, const opt::CostModel &model);

/** Full record of one compilation. */
struct CompileResult
{
    /** The parsed technology-independent input. */
    Circuit input{0};
    /** Primitive-level (1q + CNOT) form, before placement/routing —
     *  the "mapped to the simulator" technology-independent circuit. */
    Circuit decomposed{0};
    /** Routed onto the device, unoptimized (the tables' "unoptimized
     *  mapping"). */
    Circuit mapped{0};
    /** Final optimized technology-dependent circuit. */
    Circuit optimized{0};

    /** Logical -> physical map used. */
    std::vector<Qubit> placement;
    /** Physical wires that must be |0> at entry (clean ancillas). */
    std::vector<Qubit> ancillas;

    StageMetrics techIndependent; ///< metrics of `decomposed`
    StageMetrics unoptimized;     ///< metrics of `mapped`
    StageMetrics optimizedM;      ///< metrics of `optimized`

    route::RouteStats routeStats;
    opt::OptimizeReport optReport;

    /** QMDD package counters from the verification stage (zeros when
     *  verification was skipped): table sizes and hit rates. */
    dd::PackageStats ddStats;
    /** Live QMDD nodes when verification finished. */
    size_t ddLiveNodes = 0;

    dd::Equivalence verification = dd::Equivalence::Inconclusive;
    bool verifyRan = false;

    double decomposeSeconds = 0.0;
    double placeSeconds = 0.0;
    double routeSeconds = 0.0;
    double optimizeSeconds = 0.0;
    double verifySeconds = 0.0;
    double totalSeconds = 0.0;

    /** Resources this compile consumed (wall / user / sys CPU, peak
     *  RSS delta, QMDD allocator high-water). Always populated —
     *  resource accounting is not gated on the obs sink. */
    obs::ResourceUsage resources;

    /** True when verification ran and confirmed equivalence. */
    bool
    verified() const
    {
        return verifyRan && dd::isEquivalent(verification);
    }

    /**
     * The specification the compiled output must match: the input
     * circuit remapped through the placement onto a register of
     * `device_qubits` wires, with `ancillas` required |0>. This is the
     * exact reference the compiler verified against, exposed so
     * external oracles (qsyn::check, qfuzz) recheck the same claim.
     */
    Circuit
    referenceOnDevice(Qubit device_qubits) const
    {
        return input.remapped(placement, device_qubits);
    }

    /** Percent cost decrease achieved by optimization (Table 4/6/8). */
    double
    percentCostDecrease() const
    {
        if (unoptimized.cost <= 0.0)
            return 0.0;
        return 100.0 * (unoptimized.cost - optimizedM.cost) /
               unoptimized.cost;
    }
};

/** The compiler, bound to one target device. */
class Compiler
{
  public:
    explicit Compiler(Device device, CompileOptions options = {});

    const Device &device() const { return device_; }
    const CompileOptions &options() const { return options_; }

    /**
     * Compile a technology-independent circuit for the device. Throws
     * MappingError when the circuit cannot be realized (too wide,
     * disconnected coupling, ...).
     */
    CompileResult compile(const Circuit &input) const;

    /** Serialize a result's final circuit as OpenQASM 2.0. */
    std::string toQasm(const CompileResult &result) const;

    /**
     * compile() through a compile cache (see core/compile_cache.hpp):
     * returns the memoized artifact when the (input, device, options)
     * fingerprint hits, compiles and caches otherwise. A null cache
     * degrades to a plain compile. The returned artifact is shared
     * with the cache — treat it as immutable.
     */
    std::shared_ptr<const CachedCompile>
    compileCached(const Circuit &input, CompileCacheBase *cache) const;

    /**
     * Verify against an externally owned QMDD package instead of a
     * fresh per-compile one. The package may be shared by many
     * compilers on many threads at once (dd::Package is concurrent);
     * BatchCompiler uses this so similar circuits in one batch dedupe
     * their node universes. The result's ddStats then cover only this
     * compile's own table traffic (per-thread attribution), except
     * peakNodes, which reports the shared package's global high-water.
     * Deliberately NOT part of CompileOptions: where the package lives
     * cannot change the output, so cache fingerprints are unaffected.
     * Null (the default) restores the private per-compile package. The
     * package is not owned and must outlive every compile().
     */
    void setVerifyPackage(dd::Package *pkg) { verify_package_ = pkg; }
    dd::Package *verifyPackage() const { return verify_package_; }

  private:
    Device device_;
    CompileOptions options_;
    dd::Package *verify_package_ = nullptr;
};

} // namespace qsyn
