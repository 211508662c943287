#include "route/router.hpp"

#include "common/errors.hpp"
#include "obs/obs.hpp"
#include "route/ctr.hpp"
#include "route/sabre.hpp"

namespace qsyn::route {

const char *
routerName(RouterKind kind)
{
    switch (kind) {
      case RouterKind::Ctr:
        return "ctr";
      case RouterKind::Sabre:
        return "sabre";
    }
    throw InternalError("unknown router kind", __FILE__, __LINE__);
}

bool
parseRouterName(const std::string &text, RouterKind *out)
{
    if (text == "ctr") {
        *out = RouterKind::Ctr;
        return true;
    }
    if (text == "sabre") {
        *out = RouterKind::Sabre;
        return true;
    }
    return false;
}

namespace detail {

void
countReversal(RouteStats *stats)
{
    if (stats == nullptr)
        return;
    ++stats->reversedCnots;
    stats->hInserted += 4;
}

} // namespace detail

namespace {

/** Flush one routing run's counters onto the obs sink. */
void
flushRouteStats(obs::Sink *sink, const RouteStats &stats)
{
    if (sink == nullptr)
        return;
    obs::MetricsRegistry &m = sink->metrics();
    m.addCounter("route.native_cnots",
                 static_cast<double>(stats.nativeCnots));
    m.addCounter("route.reversed_cnots",
                 static_cast<double>(stats.reversedCnots));
    m.addCounter("route.rerouted_cnots",
                 static_cast<double>(stats.reroutedCnots));
    m.addCounter("route.swaps_inserted",
                 static_cast<double>(stats.swapsInserted));
    m.addCounter("route.h_inserted",
                 static_cast<double>(stats.hInserted));
    // route.sabre.* counters are emitted by the sabre backend itself,
    // which can tell heuristic SWAPs from restore SWAPs as they land.
}

} // namespace

Circuit
routeCircuit(const Circuit &circuit, const Device &device,
             RouteStats *stats, const RouteOptions &options)
{
    if (circuit.numQubits() > device.numQubits()) {
        throw MappingError(
            "circuit needs " + std::to_string(circuit.numQubits()) +
            " qubits but " + device.name() + " has only " +
            std::to_string(device.numQubits()));
    }
    obs::Span span("route.circuit", "route");
    span.arg("router", routerName(options.router));
    obs::Sink *sink = obs::sink();
    // Keep per-run counters even when the caller does not ask for
    // them, so the metrics snapshot is complete.
    RouteStats local;
    if (stats == nullptr && sink != nullptr)
        stats = &local;

    Circuit routed;
    switch (options.router) {
      case RouterKind::Ctr:
        routed = routeCtr(circuit, device, stats, options);
        break;
      case RouterKind::Sabre:
        routed = routeSabre(circuit, device, stats, options);
        break;
    }
    if (sink != nullptr && stats != nullptr) {
        flushRouteStats(sink, *stats);
        span.arg("gates_in", circuit.size());
        span.arg("gates_out", routed.size());
        span.arg("swaps", stats->swapsInserted);
    }
    return routed;
}

} // namespace qsyn::route
