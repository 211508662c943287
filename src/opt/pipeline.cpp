#include "opt/pipeline.hpp"

#include "common/deadline.hpp"
#include "obs/obs.hpp"

namespace qsyn::opt {

namespace {

/** Safety cap on driver rounds. */
constexpr int kMaxRounds = 64;

} // namespace

Circuit
optimizeCircuit(const Circuit &circuit, const OptimizerOptions &options,
                OptimizeReport *report)
{
    CostModel model(options.weights);
    Circuit current = circuit;
    obs::Sink *sink = obs::sink();
    // Per-pass cost deltas need a cost evaluation around every pass;
    // only pay for them when someone will look at the numbers.
    const bool detailed = options.collectPassStats || sink != nullptr;

    double cost = model.cost(current);
    if (report) {
        report->initialCost = cost;
        report->initialGates = computeStats(current).volume;
        report->rounds = 0;
        report->passes.clear();
        report->snapshots.clear();
    }

    // A pass that found nothing to do stays settled until another pass
    // changes the circuit: on the same circuit it would find nothing
    // again, so it is not rerun, though it still counts as an
    // invocation. A pass is not settled by its own change:
    // cancellation's horizon counts the gates it erased, so on its own
    // output it can reach pairs it could not reach before.
    struct Pass
    {
        PassReport report;
        /** `changes` when the pass last found nothing to do. */
        size_t settledAt = static_cast<size_t>(-1);
    };
    size_t changes = 0; // pass invocations that changed the circuit
    Pass cancellation{{"cancellation", 0, 0, 0, 0.0}};
    Pass rotation{{"rotation_merge", 0, 0, 0, 0.0}};
    Pass hadamard{{"hadamard_rules", 0, 0, 0, 0.0}};
    Pass window{{"window_identity", 0, 0, 0, 0.0}};
    Pass phase{{"phase_polynomial", 0, 0, 0, 0.0}};

    // Window verdicts carry over between rounds: most windows of a
    // round were already examined, unchanged, in the round before.
    IdentityWindowMemo window_memo;

    const bool capture = options.capturePassCircuits && report != nullptr;
    int current_round = 0;
    auto run_pass = [&](Pass &pass, const char *span_name,
                        auto &&fn) -> bool {
        obs::Span span(span_name, "opt");
        PassReport &pr = pass.report;
        ++pr.invocations;
        bool changed = false;
        size_t removed = 0;
        double delta = 0.0;
        if (pass.settledAt == changes) {
            span.arg("skipped", 1);
        } else {
            size_t gates_before = current.size();
            double cost_before = detailed ? model.cost(current) : 0.0;
            Circuit before{0};
            if (capture)
                before = current;
            changed = fn();
            if (capture && changed) {
                report->snapshots.push_back(
                    {pr.name, current_round, std::move(before), current});
            }
            if (changed) {
                ++pr.changedRounds;
                ++changes;
            } else {
                pass.settledAt = changes;
            }
            size_t gates_after = current.size();
            removed =
                gates_before > gates_after ? gates_before - gates_after : 0;
            pr.gatesRemoved += removed;
            if (detailed) {
                delta = cost_before - model.cost(current);
                pr.costDelta += delta;
            }
        }
        if (sink != nullptr) {
            span.arg("gates_removed", removed);
            span.arg("cost_delta", delta);
            obs::MetricsRegistry &m = sink->metrics();
            std::string prefix = std::string("opt.") + pr.name;
            m.addCounter(prefix + ".invocations", 1.0);
            m.addCounter(prefix + ".gates_removed",
                         static_cast<double>(removed));
            m.addCounter(prefix + ".cost_delta", delta);
            m.addCounter("opt.gates_removed",
                         static_cast<double>(removed));
            m.addCounter("opt.cost_delta", delta);
        }
        return changed;
    };

    for (int round = 0; round < kMaxRounds; ++round) {
        deadline::check("local optimization");
        current_round = round;
        obs::Span round_span("opt.round", "opt");
        round_span.arg("round", round);
        bool changed = run_pass(cancellation, "opt.cancellation", [&] {
            return cancelInversePairs(current);
        });
        changed |= run_pass(rotation, "opt.rotation_merge", [&] {
            return mergeRotations(current);
        });
        changed |= run_pass(hadamard, "opt.hadamard_rules", [&] {
            return applyHadamardRules(current, options.device);
        });
        if (options.enableWindowIdentity) {
            changed |= run_pass(window, "opt.window_identity", [&] {
                return removeIdentityWindows(current, kWindowQubits,
                                             kWindowGates, &window_memo);
            });
        }
        if (options.enablePhasePolynomial) {
            changed |= run_pass(phase, "opt.phase_polynomial", [&] {
                return mergePhasePolynomial(current);
            });
        }
        if (report)
            report->rounds = round + 1;
        double new_cost = model.cost(current);
        QSYN_OBS_LOG(Trace, "opt")
            << "round " << round + 1 << ": cost " << cost << " -> "
            << new_cost << ", " << current.size() << " gates";
        // Passes only delete or shrink gates, so cost is monotone; stop
        // at the fixed point.
        if (!changed || new_cost >= cost) {
            cost = new_cost;
            break;
        }
        cost = new_cost;
    }

    if (sink != nullptr && options.enableWindowIdentity) {
        obs::MetricsRegistry &m = sink->metrics();
        m.addCounter("opt.window_identity.windows",
                     static_cast<double>(window_memo.windows));
        m.addCounter("opt.window_identity.memo_hits",
                     static_cast<double>(window_memo.hits));
    }

    if (report) {
        report->finalCost = cost;
        report->finalGates = computeStats(current).volume;
        report->passes.push_back(cancellation.report);
        report->passes.push_back(rotation.report);
        report->passes.push_back(hadamard.report);
        if (options.enableWindowIdentity)
            report->passes.push_back(window.report);
        if (options.enablePhasePolynomial)
            report->passes.push_back(phase.report);
    }
    return current;
}

} // namespace qsyn::opt
