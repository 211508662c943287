/**
 * @file
 * The qsynd compile server: a long-lived front end over the compile
 * pipeline that keeps every scaling layer warm across requests — one
 * shared two-tier CompileCache (content-addressed memoization +
 * single-flight dedup), one shared concurrent dd::Package (so
 * verifications of similar circuits reuse each other's node
 * universes), and the process-global obs metrics registry served live
 * through the `stats` op.
 *
 * Concurrency model: one accept thread plus one thread per
 * connection. Connections are cheap (blocking reads, no business
 * state); the scarce resource is compile slots. Admission control
 * gates every compile/verify/simulate through `workers` concurrent
 * slots with a bounded FIFO wait queue of `queueDepth`: a request
 * that would wait behind a full queue gets an immediate structured
 * `overloaded` response — the daemon never silently hangs a client.
 *
 * Per-request limits (maxQubits, maxGates, deadlineSeconds) are
 * checked after parsing and enforced cooperatively: the deadline uses
 * the same per-gate safe-point poll as QMDD garbage collection (see
 * common/deadline.hpp), so a runaway compile unwinds cleanly and the
 * daemon answers the next request.
 *
 * Shutdown (Server::stop, triggered by SIGTERM in qsynd) is a drain:
 * listening sockets close first, idle connections are shut down, and
 * every request already past admission runs to completion and gets
 * its response before the server returns.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.hpp"
#include "core/compiler.hpp"
#include "qmdd/package.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"

namespace qsyn::service {

/** Everything configurable about one Server. */
struct ServerConfig
{
    /** Unix-domain socket path (required; unlinked on start + stop). */
    std::string socketPath;
    /** Also listen on this TCP port on 127.0.0.1 (0 = off). */
    int tcpPort = 0;
    /** Concurrent compile slots (0 = one per hardware thread). */
    size_t workers = 0;
    /** Admission-queue depth; a compile arriving with `queueDepth`
     *  requests already waiting is answered `overloaded`. */
    size_t queueDepth = 16;
    /** Largest accepted request frame. */
    std::uint32_t maxFrameBytes = kDefaultMaxFrameBytes;
    /** Reject circuits wider than this (0 = unlimited). */
    Qubit maxQubits = 0;
    /** Reject circuits with more gates than this (0 = unlimited). */
    size_t maxGates = 0;
    /** Per-request wall-time budget in seconds (0 = unlimited). A
     *  request's own deadline_ms may tighten but never exceed it. */
    double deadlineSeconds = 0.0;
    /** Compile-cache configuration (dir may be empty: memory tier
     *  only — still warm across requests). */
    std::string cacheDir;
    std::uint64_t cacheMaxBytes = 256ull << 20;
    /** Share one concurrent QMDD package across all verifications. */
    bool shareManager = true;
};

/** Point-in-time service counters (the `health` response). */
struct ServerStats
{
    std::uint64_t requestsTotal = 0;
    std::uint64_t requestsOk = 0;
    std::uint64_t requestsError = 0;
    std::uint64_t overloaded = 0;
    std::uint64_t protocolErrors = 0;
    std::uint64_t connectionsTotal = 0;
    size_t inFlight = 0;
    size_t queued = 0;
    bool draining = false;
    double uptimeSeconds = 0.0;
};

/** The compile-server daemon core (socket front end + warm state). */
class Server
{
  public:
    explicit Server(ServerConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind, listen, and start the accept thread. Throws UserError when
     * the socket cannot be bound. Returns once the server is
     * accepting — a client connecting after start() never gets
     * connection-refused.
     */
    void start();

    /**
     * Graceful drain: stop accepting, finish every admitted request,
     * answer queued ones, close all connections, join all threads.
     * Idempotent; safe to call from any thread except a connection
     * handler. Called by the destructor if the caller forgot.
     */
    void stop();

    /** Ask for stop() from a signal context: async-signal-safe. The
     *  thread blocked in waitForStopRequest() picks it up. */
    void requestStop();

    /** Block until requestStop() (or stop()) was called. */
    void waitForStopRequest();

    bool running() const { return running_.load(); }
    ServerStats stats() const;
    const ServerConfig &config() const { return config_; }

  private:
    struct Connection
    {
        int fd = -1;
        std::thread thread;
        std::atomic<bool> busy{false};
        std::atomic<bool> closed{false};
    };

    /** RAII admission slot; `admitted` false means overloaded. */
    struct Admission;

    void acceptLoop();
    /** Write one byte to the wake pipe: unblocks the accept loop and
     *  waitForStopRequest(). Async-signal-safe. */
    void wake();
    void connectionLoop(Connection *conn);
    /** Handle one request payload; returns the response JSON text and
     *  sets `*fatal` when the connection must close after sending. */
    std::string handleRequest(const std::string &payload, bool *fatal);

    Json handleCompile(const Json &request);
    Json handleVerify(const Json &request);
    Json handleSimulate(const Json &request);
    Json handleAnalyze(const Json &request);
    Json handleStats(const Json &request);
    Json handleHealth(const Json &request);

    /** Effective deadline of a request: the config budget tightened by
     *  the request's own deadline_ms (whichever is sooner). */
    double effectiveDeadline(const Json &request) const;

    /** Parse a request's circuit source (format: qasm|qc|real) and
     *  enforce the width/gate limits. Throws UserError/ParseError. */
    Circuit parseCircuitField(const Json &request, const char *sourceKey,
                              const char *formatKey) const;
    void enforceLimits(const Circuit &circuit) const;

    Device deviceFor(const Json &request) const;

    void bumpMetric(const char *name, double delta = 1.0) const;
    void observeLatency(const char *op, double seconds) const;

    ServerConfig config_;
    std::vector<int> listenFds_;
    std::thread acceptThread_;
    std::atomic<bool> running_{false};
    std::atomic<bool> draining_{false};
    std::atomic<bool> stopRequested_{false};
    int wakePipe_[2] = {-1, -1};

    // Warm shared state.
    std::unique_ptr<cache::CompileCache> cache_;
    std::unique_ptr<dd::Package> sharedPackage_;

    // Admission gate.
    mutable std::mutex admitMu_;
    std::condition_variable admitCv_;
    size_t activeCompiles_ = 0;
    size_t waitingCompiles_ = 0;

    // Connection registry.
    mutable std::mutex connMu_;
    std::vector<std::unique_ptr<Connection>> connections_;

    // Counters.
    mutable std::mutex statsMu_;
    ServerStats stats_;
    std::chrono::steady_clock::time_point startedAt_;

    std::once_flag stopOnce_;
};

} // namespace qsyn::service
