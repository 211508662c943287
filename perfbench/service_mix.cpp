/**
 * @file
 * service_mix: the shipped `qsynd` daemon (two compile slots, memory
 * cache tier only) under two closed-loop connections that send a
 * seeded stream. About three quarters of the requests repeat a hot
 * set that set-up primes, so they hit the compile cache; the rest are
 * fresh circuits that miss it and compile and verify on the daemon's
 * shared QMDD package. Every request asks for sabre routing and
 * greedy placement.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "device/registry.hpp"
#include "ir/random_circuit.hpp"
#include "pipeline.hpp"
#include "service/client.hpp"

namespace perfbench {

using namespace qsyn;

namespace {

constexpr size_t kHotKeys = 8;
constexpr double kHotShare = 0.75;
/** The planned stream; a run stops early only if it runs out. */
constexpr size_t kStreamLength = 8000;
/** Every run completes the stream up to this many fresh requests:
 *  output counts and the daemon's peak RSS are taken over that
 *  prefix, so they do not depend on how fast the run went. */
constexpr size_t kCountedFresh = 400;
/** Seed of the circuit population (see README: fixed inputs). */
constexpr std::uint64_t kPopulation = 0x5e41ce00;
/** The daemon's in-process cache tier (cache::CacheConfig). */
constexpr size_t kMemoryTier = 64;
constexpr size_t kConnections = 2;
/** Fresh compiles replayed in-process by the traced run. */
constexpr size_t kReplayedFresh = 32;

/** One distinct request: a circuit for one device. */
struct Key
{
    Source source;
    std::string device;
    std::string payload; ///< the request frame's JSON text
};

struct Plan
{
    std::vector<Key> keys; ///< hot keys first, then fresh in order
    std::vector<std::uint32_t> stream;
    /** Stream requests up to and including the kCountedFresh-th
     *  fresh one. */
    size_t countedPrefix = 0;
};

/** Population key `index`: the same circuit and device for every
 *  seed, so seeds change the request stream but not what is counted. */
Key
makeKey(size_t index)
{
    Rng rng(kPopulation + index);
    RandomCircuitOptions opts;
    opts.numQubits = 5;
    opts.numGates = 40;
    opts.maxControls = 2;
    opts.gateSet = RandomGateSet::CliffordT;
    const std::string name = index < kHotKeys
                                 ? "hot" + std::to_string(index)
                                 : "fresh" + std::to_string(index - kHotKeys);
    Circuit c = randomCircuit(rng, opts);
    c.setName(name);
    Key key;
    key.source = makeSource(c, false);
    key.device = index % 2 == 0 ? "ibmqx4" : "ibmqx5";
    service::Json req = service::Json::makeObject();
    req.object["op"] = service::Json::makeString("compile");
    req.object["source"] = service::Json::makeString(key.source.text);
    req.object["format"] = service::Json::makeString("qasm");
    req.object["name"] = service::Json::makeString(name);
    req.object["device"] = service::Json::makeString(key.device);
    req.object["router"] = service::Json::makeString("sabre");
    req.object["placement"] = service::Json::makeString("greedy");
    key.payload = req.dump();
    return key;
}

/** The seed decides which requests are hot and in which order. */
Plan
makePlan(std::uint64_t seed)
{
    Plan plan;
    Rng rng(seed);
    for (size_t i = 0; i < kHotKeys; ++i)
        plan.keys.push_back(makeKey(i));
    // Hot requests cycle through a fresh permutation of the hot set,
    // so every hot key recurs within two cycles and stays resident.
    std::vector<std::uint32_t> cycle;
    for (size_t i = 0; i < kStreamLength; ++i) {
        if (rng.chance(kHotShare)) {
            if (cycle.empty()) {
                for (std::uint32_t k = 0; k < kHotKeys; ++k)
                    cycle.push_back(k);
                for (size_t j = cycle.size(); j > 1; --j)
                    std::swap(cycle[j - 1], cycle[rng.below(j)]);
            }
            plan.stream.push_back(cycle.back());
            cycle.pop_back();
        } else {
            plan.keys.push_back(makeKey(plan.keys.size()));
            plan.stream.push_back(
                static_cast<std::uint32_t>(plan.keys.size() - 1));
            if (plan.keys.size() == kHotKeys + kCountedFresh)
                plan.countedPrefix = i + 1;
        }
    }
    if (plan.countedPrefix == 0)
        throw Error("stream too short for the counted prefix");
    return plan;
}

/** A spawned qsynd; stopped (SIGTERM, then waited for) on destroy. */
class Daemon
{
  public:
    Daemon(const std::string &binary, const std::string &socket,
           const std::string &log)
        : socket_(socket)
    {
        ::unlink(socket.c_str());
        pid_ = ::fork();
        if (pid_ < 0)
            throw Error("fork failed");
        if (pid_ == 0) {
            int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
            }
            ::execl(binary.c_str(), binary.c_str(), "--socket",
                    socket.c_str(), "--threads", "2",
                    static_cast<char *>(nullptr));
            ::_exit(127);
        }
        // Ready once a connection succeeds.
        Clock::time_point start = Clock::now();
        for (;;) {
            try {
                service::Client probe = service::Client::connectUnix(socket);
                break;
            } catch (const Error &) {
            }
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw Error("qsynd exited during start-up (see " + log +
                            ")");
            }
            if (secondsBetween(start, Clock::now()) > 60.0)
                throw Error("qsynd did not accept connections in 60 s");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;
    ~Daemon() { stop(); }

    void
    stop()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGTERM);
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        ::unlink(socket_.c_str());
    }

    std::string pid() const { return std::to_string(pid_); }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

/** One timed request. */
struct Sample
{
    double ms = 0;
    bool traced = false;
    /** A hit whose bytes equal its key's primed response. */
    bool samePrimed = false;
    /** The response, kept for fresh keys and mismatching hits. */
    std::string response;
};

service::Json
parse(const std::string &text)
{
    service::Json j;
    std::string error;
    if (!service::parseJson(text, &j, &error))
        throw Error("unparsable qsynd response: " + error);
    return j;
}

/** The in-process compiler a key's request asks the daemon for. */
Compiler
compilerFor(const Key &key, bool verify)
{
    CompileOptions options;
    options.optimizer.collectPassStats = true;
    options.placement = route::PlacementStrategy::Greedy;
    options.routing.router = route::RouterKind::Sabre;
    options.verify = verify ? VerifyMode::Full : VerifyMode::Off;
    return Compiler(builtinDevice(key.device), options);
}

double
histogramP50(const service::Json &metrics, const std::string &name)
{
    const service::Json *h = metrics.find("histograms");
    const service::Json *entry = h ? h->find(name) : nullptr;
    return entry ? entry->numberOr("p50", 0.0) : 0.0;
}

double
gauge(const service::Json &metrics, const std::string &name)
{
    const service::Json *g = metrics.find("gauges");
    return g ? g->numberOr(name, 0.0) : 0.0;
}

} // namespace

RunResult
runServiceMix(const RunConfig &config)
{
    RunResult run;
    const std::string socket =
        config.outDir + "/qsynd-" + std::to_string(::getpid()) + ".sock";
    const std::string log = config.outDir + "/qsynd.log";

    // Set-up several times (needMoreSetups).
    EndToEnd e2e;
    Plan plan;
    std::unique_ptr<Daemon> daemon;
    std::vector<std::string> primed(kHotKeys);
    Clock::time_point start = config.processStart;
    for (size_t rep = 0; needMoreSetups(config, rep); ++rep) {
        if (rep > 0) {
            // Tearing down the previous set-up is not set-up time.
            daemon.reset();
            plan = Plan{};
            start = Clock::now();
        }
        plan = makePlan(config.seed);
        daemon = std::make_unique<Daemon>(config.qsyndPath, socket, log);
        service::Client client = service::Client::connectUnix(socket);
        for (size_t k = 0; k < kHotKeys; ++k) {
            primed[k] = client.callRaw(plan.keys[k].payload);
            if (!parse(primed[k]).boolOr("ok", false))
                throw Error("priming " + plan.keys[k].source.name +
                            " failed: " + primed[k]);
        }
        for (size_t k = 0; k < kHotKeys; ++k) {
            if (client.callRaw(plan.keys[k].payload) != primed[k])
                throw Error("warm-up hit differs from its primed response");
        }
        e2e.setupSeconds.push_back(secondsBetween(start, Clock::now()));
    }
    const size_t depth = hotReuseDepth(plan.stream, kHotKeys);
    if (depth + 2 * kConnections >= kMemoryTier)
        throw Error("seed's stream would evict hot keys from the cache");

    // Timed phase: closed-loop connections pull the next stream index.
    std::vector<Sample> samples(plan.stream.size());
    std::atomic<size_t> next{0}, completed{0};
    std::mutex problemMu;
    std::vector<Tracer> tracers;
    for (size_t c = 0; c < kConnections; ++c)
        tracers.emplace_back(config.processStart, static_cast<int>(c + 1));
    std::vector<service::Client> clients;
    for (size_t c = 0; c < kConnections; ++c)
        clients.push_back(service::Client::connectUnix(socket));
    const std::string daemonPid = daemon->pid();
    Clock::time_point t0 = Clock::now();
    auto worker = [&](size_t c) {
        for (;;) {
            size_t i = next.fetch_add(1);
            if (i >= plan.stream.size() ||
                (i >= plan.countedPrefix &&
                 secondsBetween(t0, Clock::now()) >= config.seconds))
                break;
            const std::uint32_t k = plan.stream[i];
            Sample &s = samples[i];
            // Every other request is traced; the rest measure what
            // tracing costs (trace.overhead_frac).
            s.traced = config.trace && i % 2 == 0;
            int span = -1;
            if (s.traced) {
                tracers[c].setRequest(i + 1);
                span = tracers[c].begin(k < kHotKeys ? "service.hit"
                                                     : "service.miss");
            }
            Clock::time_point a = Clock::now();
            std::string response;
            try {
                response = clients[c].callRaw(plan.keys[k].payload);
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lock(problemMu);
                run.problems.push_back(format("request %zu: ", i) + e.what());
            }
            s.ms = secondsBetween(a, Clock::now()) * 1e3;
            if (span >= 0)
                tracers[c].end(span);
            if (k < kHotKeys && response == primed[k])
                s.samePrimed = true;
            else
                s.response = std::move(response);
            if (++completed == plan.countedPrefix)
                e2e.peakRssMb = peakRssMb(daemonPid);
        }
    };
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kConnections; ++c)
        threads.emplace_back(worker, c);
    for (std::thread &t : threads)
        t.join();
    const double elapsed = secondsBetween(t0, Clock::now());
    const size_t done = completed.load();
    samples.resize(done);

    // Daemon-side figures, then stop it.
    service::Json statsReq = service::Json::makeObject();
    statsReq.object["op"] = service::Json::makeString("stats");
    service::Json statsResponse = clients[0].call(statsReq);
    service::Json metrics = parse(statsResponse.stringOr("metrics", "{}"));
    const service::Json *cache = statsResponse.find("cache");
    clients.clear();
    daemon->stop();

    // Hit/miss accounting against the stats op: set-up primed every
    // hot key once (a miss) and hit it once; after that, every hot
    // request must hit and every fresh one must miss.
    size_t hotDone = 0, freshDone = 0;
    for (size_t i = 0; i < done; ++i)
        (plan.stream[i] < kHotKeys ? hotDone : freshDone) += 1;
    const double hits = cache ? cache->numberOr("hits", -1) : -1;
    const double misses = cache ? cache->numberOr("misses", -1) : -1;
    if (hits != static_cast<double>(kHotKeys + hotDone) ||
        misses != static_cast<double>(kHotKeys + freshDone)) {
        run.problems.push_back(format(
            "cache accounting: stats op reports %.0f hits / %.0f misses, "
            "the stream implies %zu / %zu",
            hits, misses, kHotKeys + hotDone, kHotKeys + freshDone));
    }

    // A request failed when its response is not an ok response; a hit
    // that is ok but not byte-identical to its key's first response
    // fails its check.
    std::vector<bool> failed(done, false);
    std::vector<const std::string *> firstResponse(plan.keys.size(),
                                                   nullptr);
    for (size_t k = 0; k < kHotKeys; ++k)
        firstResponse[k] = &primed[k];
    ServiceLayer service;
    size_t hitMismatches = 0;
    for (size_t i = 0; i < done; ++i) {
        const Sample &s = samples[i];
        const std::uint32_t k = plan.stream[i];
        if (s.samePrimed)
            continue;
        service::Json response;
        if (!service::parseJson(s.response, &response) ||
            !response.boolOr("ok", false)) {
            failed[i] = true;
            const service::Json *err = response.find("error");
            if (err != nullptr &&
                err->stringOr("code", "") == "overloaded")
                ++service.overloaded;
            run.problems.push_back(format("request %zu (%s): ", i,
                                          plan.keys[k].source.name.c_str()) +
                                   s.response.substr(0, 200));
        } else if (k < kHotKeys) {
            ++hitMismatches;
        } else {
            firstResponse[k] = &s.response;
        }
    }
    if (hitMismatches > 0)
        run.problems.push_back(format(
            "%zu hits were not byte-identical to their key's first "
            "response",
            hitMismatches));

    // Output checks, outside timing: recompile each distinct response
    // in-process; it must match byte for byte and pass the checks.
    std::vector<int> keyChecked(plan.keys.size(), -1);
    std::vector<bool> keyVerified(plan.keys.size(), false);
    std::vector<StageMetrics> keyMetrics(plan.keys.size());
    for (size_t i = 0; i < done; ++i) {
        const std::uint32_t k = plan.stream[i];
        if (keyChecked[k] >= 0 || firstResponse[k] == nullptr)
            continue;
        keyChecked[k] = 0;
        service::Json response = parse(*firstResponse[k]);
        keyVerified[k] = response.boolOr("verified", false);
        const Key &key = plan.keys[k];
        Compiler compiler = compilerFor(key, false);
        CompileResult result = compiler.compile(parseSource(key.source));
        keyMetrics[k] = result.optimizedM;
        if (compiler.toQasm(result) != response.stringOr("qasm", "")) {
            run.problems.push_back(key.source.name +
                                   ": qsynd output differs from the "
                                   "in-process compile");
            continue;
        }
        std::string why = checkOutput(result, compiler.device());
        if (!why.empty()) {
            run.problems.push_back(key.source.name + ": " + why);
            continue;
        }
        keyChecked[k] = 1;
    }

    run.attempted = done;
    std::vector<double> all, hitMs, missMs;
    double tracedMs = 0, untracedMs = 0;
    size_t tracedHits = 0, untracedHits = 0;
    for (size_t i = 0; i < done; ++i) {
        const Sample &s = samples[i];
        const std::uint32_t k = plan.stream[i];
        const bool hot = k < kHotKeys;
        if (failed[i]) {
            ++run.failed;
            all.push_back(kMissedLimit);
            (hot ? hitMs : missMs).push_back(kMissedLimit);
            continue;
        }
        ++e2e.ok;
        e2e.verified += keyVerified[k] ? 1 : 0;
        e2e.checked += keyChecked[k] == 1 && (!hot || s.samePrimed) ? 1 : 0;
        all.push_back(s.ms);
        (hot ? hitMs : missMs).push_back(s.ms);
        if (hot) {
            (s.traced ? tracedMs : untracedMs) += s.ms;
            ++(s.traced ? tracedHits : untracedHits);
        }
    }
    std::vector<bool> counted(plan.keys.size(), false);
    for (size_t i = 0; i < std::min(done, plan.countedPrefix); ++i) {
        const std::uint32_t k = plan.stream[i];
        if (!counted[k])
            e2e.count(keyMetrics[k]);
        counted[k] = true;
    }

    Percentile hitP50 = percentile(hitMs, 0.5);
    Percentile missP50 = percentile(missMs, 0.5);
    Percentile p90 = percentile(all, 0.9);
    Percentile p99 = percentile(all, 0.99);
    const double attempted = static_cast<double>(std::max<size_t>(done, 1));
    if (!config.trace) {
        e2e.attempted = done;
        e2e.requestsPerSecond = static_cast<double>(done) / elapsed;
        addEndToEndMetrics(run, e2e);
    }
    run.report.push_back(format(
        "timed phase: %zu requests (%zu hot, %zu fresh) over %zu "
        "connections in %.3f s; hot-key reuse depth %zu of %zu cache "
        "entries",
        done, hotDone, freshDone, kConnections, elapsed, depth,
        kMemoryTier));
    auto describe = [&](const char *what, const Percentile &p) {
        run.report.push_back(format(
            "  %s: %s (n=%zu, %zu beyond)", what,
            p.reported ? format("%.3f ms", p.value).c_str()
                       : "not reported",
            p.samples, p.beyond));
    };
    describe("hit round trip p50", hitP50);
    describe("miss round trip p50", missP50);
    describe("round trip p90", p90);
    describe("round trip p99", p99);
    if (!config.trace)
        return run;

    // Traced run: the daemon's figures, the codec on the real
    // payloads, and an in-process replay of the distinct compiles.
    auto shown = [](const Percentile &p) { return p.reported ? p.value : 0; };
    service.hitRttP50 = shown(hitP50);
    service.missRttP50 = shown(missP50);
    service.rttP90 = shown(p90);
    service.rttP99 = shown(p99);
    service.compileMsP50 =
        histogramP50(metrics, "service.compile.latency_us") / 1e3;
    service.lookupUsP50 = histogramP50(metrics, "cache.lookup.latency_us");
    service.cacheHits = hits;
    service.cacheMisses = misses;
    service.cacheEntries = cache ? cache->numberOr("memory_entries", 0) : 0;
    service.sharedLiveNodes = gauge(metrics, "qmdd.live_nodes");
    service.sharedCtab = gauge(metrics, "qmdd.ctab.size");
    service.sharedGcRuns = gauge(metrics, "qmdd.gc_runs");
    service.sharedContention = gauge(metrics, "qmdd.shard.contention_rate");
    Clock::time_point codecStart = Clock::now();
    size_t codecBytes = 0;
    for (size_t i = 0; i < done; ++i) {
        const std::uint32_t k = plan.stream[i];
        service::Json request = parse(plan.keys[k].payload);
        codecBytes += request.dump().size();
        const std::string &raw =
            samples[i].samePrimed ? primed[k] : samples[i].response;
        service::Json response;
        if (service::parseJson(raw, &response))
            codecBytes += response.dump().size();
    }
    service.codecMs = secondsBetween(codecStart, Clock::now()) * 1e3 /
                      attempted;

    Tracer tracer(config.processStart, 0);
    for (const Tracer &t : tracers)
        tracer.merge(t);
    LayerStats stats;
    std::uint64_t id = plan.stream.size();
    size_t fresh = 0;
    for (size_t k = 0; k < plan.keys.size(); ++k) {
        if (keyChecked[k] != 1)
            continue;
        if (k >= kHotKeys && ++fresh > kReplayedFresh)
            break; // fresh keys follow the hot ones
        Compiler compiler = compilerFor(plan.keys[k], true);
        CompileResult result =
            compiler.compile(parseSource(plan.keys[k].source));
        tracer.setRequest(++id);
        replayRequest(plan.keys[k].source, compiler, result, tracer, stats,
                      true, run.problems);
    }
    stats.tracedMs =
        tracedMs / static_cast<double>(std::max<size_t>(tracedHits, 1));
    stats.untracedMs =
        untracedMs / static_cast<double>(std::max<size_t>(untracedHits, 1));
    addLayerMetrics(run, stats, tracer, service);
    run.report.push_back(format("codec: %zu bytes re-parsed and dumped",
                                codecBytes));
    std::ofstream trace(config.outDir + "/" + config.workload +
                        ".trace.json");
    tracer.writeChromeTrace(trace);
    return run;
}

} // namespace perfbench
