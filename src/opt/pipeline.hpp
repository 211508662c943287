/**
 * @file
 * The optimization driver: applies the local passes "recursively until
 * the technology library cost function cannot be further reduced"
 * (Section 4, steps 5-6).
 */

#pragma once

#include <vector>

#include "device/device.hpp"
#include "ir/circuit.hpp"
#include "opt/cost_model.hpp"
#include "opt/passes.hpp"

namespace qsyn::opt {

/** Pass selection and tuning. */
struct OptimizerOptions
{
    /** Cost function (Eqn. 2 by default). */
    CostWeights weights;
    /** Legality oracle for direction rewrites; null = unconstrained. */
    const Device *device = nullptr;

    /** Step 5's identity-window pass. Cancellation, rotation merging
     *  and the Hadamard rules always run. */
    bool enableWindowIdentity = true;
    /**
     * Phase-polynomial T-count reduction. Off by default: it merges
     * rotations through CNOT networks, improving *beyond* the paper's
     * reported optimizer (whose tables keep T-counts fixed), so the
     * reproduction benches leave it disabled and the ablation bench
     * measures it.
     */
    bool enablePhasePolynomial = false;

    /**
     * Track the per-pass cost delta in OptimizeReport::passes. Costs a
     * cost-model evaluation (one O(gates) scan) after every pass
     * invocation, so it is off by default; qsync sets it for --report
     * and `--log-level debug`, qsynd for every compile, and an
     * installed obs sink implies it. Invocation and gates-removed
     * accounting is O(1) and always on.
     */
    bool collectPassStats = false;

    /**
     * Capture a before/after circuit snapshot around every pass
     * invocation that changed the circuit (OptimizeReport::snapshots).
     * Costs an O(gates) circuit copy per effective pass, so it is off
     * by default; the check library's blame attribution enables it
     * when re-running a failing compile to name the culprit pass.
     */
    bool capturePassCircuits = false;
};

/** One effective pass invocation: the circuit it saw and produced. */
struct PassSnapshot
{
    /** Stable pass name ("cancellation", "rotation_merge", ...). */
    const char *pass = "";
    /** 0-based driver round the invocation ran in. */
    int round = 0;
    Circuit before{0};
    Circuit after{0};
};

/** Per-pass accounting across all driver rounds. */
struct PassReport
{
    /** Stable pass name ("cancellation", "rotation_merge", ...). */
    const char *name = "";
    /** Rounds in which the pass ran. */
    int invocations = 0;
    /** Rounds in which it changed the circuit. */
    int changedRounds = 0;
    /** Total gates it deleted (summed over rounds). */
    size_t gatesRemoved = 0;
    /** Total Eqn. 2 cost it removed; only filled when
     *  OptimizerOptions::collectPassStats is set. */
    double costDelta = 0.0;
};

/** What a run of the optimizer accomplished. */
struct OptimizeReport
{
    double initialCost = 0.0;
    double finalCost = 0.0;
    size_t initialGates = 0;
    size_t finalGates = 0;
    int rounds = 0;
    /** One entry per enabled pass, in execution order. */
    std::vector<PassReport> passes;
    /** Effective pass invocations in execution order; only filled when
     *  OptimizerOptions::capturePassCircuits is set. */
    std::vector<PassSnapshot> snapshots;

    double
    percentCostDecrease() const
    {
        if (initialCost <= 0.0)
            return 0.0;
        return 100.0 * (initialCost - finalCost) / initialCost;
    }
};

/**
 * Optimize a primitive-level circuit to a cost fixed point. Every
 * rewrite is phase-exact and (given `options.device`) legality-
 * preserving, so optimize(route(x)) still routes.
 */
Circuit optimizeCircuit(const Circuit &circuit,
                        const OptimizerOptions &options = {},
                        OptimizeReport *report = nullptr);

} // namespace qsyn::opt
