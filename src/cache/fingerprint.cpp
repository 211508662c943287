#include "cache/fingerprint.hpp"

#include <cstring>

namespace qsyn::cache {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t
fnv1a(std::uint64_t h, unsigned char byte)
{
    return (h ^ byte) * kFnvPrime;
}

} // namespace

void
Fingerprint::mixBytes(const void *data, size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < size; ++i) {
        lo_ = fnv1a(lo_, bytes[i]);
        // Second lane: same byte stream, different basis and an extra
        // rotation so the lanes decorrelate.
        hi_ = fnv1a(hi_, bytes[i]);
        hi_ = (hi_ << 7) | (hi_ >> 57);
    }
}

void
Fingerprint::mixU64(std::uint64_t value)
{
    unsigned char buf[8];
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<unsigned char>(value >> (8 * i));
    mixBytes(buf, sizeof buf);
}

void
Fingerprint::mixString(std::string_view text)
{
    mixU64(text.size());
    mixBytes(text.data(), text.size());
}

void
Fingerprint::mixDouble(double value)
{
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof value);
    std::memcpy(&bits, &value, sizeof bits);
    mixU64(bits);
}

std::string
Fingerprint::hex() const
{
    static const char *kDigits = "0123456789abcdef";
    std::string out;
    out.reserve(32);
    for (std::uint64_t lane : {lo_, hi_}) {
        for (int shift = 60; shift >= 0; shift -= 4)
            out.push_back(kDigits[(lane >> shift) & 0xF]);
    }
    return out;
}

void
mixCircuit(Fingerprint &fp, const Circuit &circuit)
{
    fp.mixString(circuit.name());
    fp.mixU64(circuit.numQubits());
    fp.mixU64(circuit.gates().size());
    for (const Gate &g : circuit.gates()) {
        fp.mixU64(static_cast<std::uint64_t>(g.kind()));
        fp.mixDouble(g.param());
        fp.mixU64(g.controls().size());
        for (Qubit q : g.controls())
            fp.mixU64(q);
        fp.mixU64(g.targets().size());
        for (Qubit q : g.targets())
            fp.mixU64(q);
        fp.mixU64(g.cbit());
    }
}

void
mixDevice(Fingerprint &fp, const Device &device)
{
    fp.mixString(device.name());
    fp.mixU64(device.numQubits());
    fp.mixU64(device.isFullyConnected() ? 1 : 0);
    const CouplingMap &map = device.coupling();
    for (Qubit c = 0; c < device.numQubits(); ++c) {
        const auto &targets = map.targetsOf(c);
        fp.mixU64(targets.size());
        for (Qubit t : targets)
            fp.mixU64(t);
    }
    const Calibration *cal = device.calibration();
    fp.mixU64(cal != nullptr ? 1 : 0);
    if (cal != nullptr) {
        for (Qubit q = 0; q < device.numQubits(); ++q) {
            fp.mixDouble(cal->singleQubitError(q));
            fp.mixDouble(cal->readoutError(q));
        }
        for (Qubit c = 0; c < device.numQubits(); ++c) {
            for (Qubit t : map.targetsOf(c))
                fp.mixDouble(cal->twoQubitError(c, t));
        }
    }
}

void
mixCompileOptions(Fingerprint &fp, const CompileOptions &options)
{
    fp.mixU64(static_cast<std::uint64_t>(options.mcxStrategy));
    fp.mixU64(static_cast<std::uint64_t>(options.placement));
    fp.mixU64(static_cast<std::uint64_t>(options.routing.router));
    fp.mixU64(options.routing.fidelityAware ? 1 : 0);
    fp.mixU64(options.routing.testOmitSwapBack ? 1 : 0);
    fp.mixU64(options.optimize ? 1 : 0);
    fp.mixU64(options.optimizeTechIndependent ? 1 : 0);

    const opt::OptimizerOptions &o = options.optimizer;
    fp.mixDouble(o.weights.tWeight);
    fp.mixDouble(o.weights.cnotWeight);
    fp.mixDouble(o.weights.gateWeight);
    fp.mixU64(o.enableWindowIdentity ? 1 : 0);
    fp.mixU64(o.enablePhasePolynomial ? 1 : 0);
    // collectPassStats / capturePassCircuits change the report's
    // optimizer_passes content, so they are part of the key even
    // though the emitted circuit is identical either way.
    fp.mixU64(o.collectPassStats ? 1 : 0);
    fp.mixU64(o.capturePassCircuits ? 1 : 0);

    fp.mixU64(static_cast<std::uint64_t>(options.verify));
    fp.mixU64(options.verifyNodeBudget);
    fp.mixU64(options.verifyUpToGlobalPhase ? 1 : 0);
}

std::string
compileCacheKey(const Circuit &input, const Device &device,
                const CompileOptions &options, std::string_view salt)
{
    Fingerprint fp;
    fp.mixString("qsyn.compile");
    fp.mixString(salt);
    mixCircuit(fp, input);
    mixDevice(fp, device);
    mixCompileOptions(fp, options);
    return fp.hex();
}

std::string
equivalenceCacheKey(const Circuit &a, const Circuit &b,
                    const dd::EquivalenceOptions &options,
                    std::string_view salt)
{
    Fingerprint fp;
    fp.mixString("qsyn.equivalence");
    fp.mixString(salt);
    mixCircuit(fp, a);
    mixCircuit(fp, b);
    fp.mixU64(options.upToGlobalPhase ? 1 : 0);
    fp.mixU64(options.ancillaWires.size());
    for (Qubit q : options.ancillaWires)
        fp.mixU64(q);
    fp.mixU64(options.nodeBudget);
    fp.mixU64(options.quickRefuteSamples);
    return fp.hex();
}

} // namespace qsyn::cache
