#include "service/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "analysis/rules.hpp"
#include "common/deadline.hpp"
#include "common/errors.hpp"
#include "common/numeric.hpp"
#include "common/stopwatch.hpp"
#include "common/strings.hpp"
#include "core/batch.hpp"
#include "core/report.hpp"
#include "device/registry.hpp"
#include "esop/cascade.hpp"
#include "frontend/pla_parser.hpp"
#include "frontend/qasm_parser.hpp"
#include "frontend/qc_parser.hpp"
#include "frontend/real_parser.hpp"
#include "obs/obs.hpp"
#include "qmdd/equivalence.hpp"
#include "qmdd/vector.hpp"

namespace qsyn::service {

namespace {

/** Internal carrier mapping a failure onto a wire error code. */
struct ServiceError
{
    ErrorCode code;
    std::string message;
};

Json
errorResponse(ErrorCode code, const std::string &message)
{
    Json error = Json::makeObject();
    error.object["code"] = Json::makeString(errorCodeName(code));
    error.object["message"] = Json::makeString(message);
    Json response = Json::makeObject();
    response.object["ok"] = Json::makeBool(false);
    response.object["error"] = std::move(error);
    return response;
}

Json
okResponse()
{
    Json response = Json::makeObject();
    response.object["ok"] = Json::makeBool(true);
    return response;
}

} // namespace

/**
 * RAII compile slot. Construction either admits (possibly after a
 * bounded wait), reports `overloaded` (queue full), or throws
 * DeadlineError (budget burnt while queued). Destruction frees the
 * slot and wakes one waiter.
 */
struct Server::Admission
{
    Admission(Server *server, size_t workers) : server_(server)
    {
        std::unique_lock<std::mutex> lock(server_->admitMu_);
        if (server_->activeCompiles_ < workers) {
            ++server_->activeCompiles_;
            admitted = true;
            return;
        }
        if (server_->waitingCompiles_ >= server_->config_.queueDepth)
            return; // overloaded; caller answers immediately
        ++server_->waitingCompiles_;
        while (server_->activeCompiles_ >= workers) {
            server_->admitCv_.wait_for(lock,
                                       std::chrono::milliseconds(200));
            if (deadline::expired()) {
                --server_->waitingCompiles_;
                throw DeadlineError(
                    "deadline exceeded while queued for a compile "
                    "slot");
            }
        }
        --server_->waitingCompiles_;
        ++server_->activeCompiles_;
        admitted = true;
    }

    ~Admission()
    {
        if (!admitted)
            return;
        {
            std::lock_guard<std::mutex> lock(server_->admitMu_);
            --server_->activeCompiles_;
        }
        server_->admitCv_.notify_one();
    }

    Admission(const Admission &) = delete;
    Admission &operator=(const Admission &) = delete;

    bool admitted = false;

  private:
    Server *server_;
};

Server::Server(ServerConfig config) : config_(std::move(config))
{
}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    if (running_.load())
        return;
    if (config_.socketPath.empty())
        throw UserError("qsynd needs a --socket path");

    // Warm shared state, created once and reused by every request.
    cache::CacheConfig ccfg;
    ccfg.dir = config_.cacheDir;
    ccfg.maxDiskBytes = config_.cacheMaxBytes;
    cache_ = std::make_unique<cache::CompileCache>(ccfg);

    if (::pipe(wakePipe_) != 0)
        throw UserError("qsynd: cannot create wake pipe");

    // Unix-domain listener.
    int ufd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (ufd < 0)
        throw UserError("qsynd: cannot create unix socket");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.socketPath.size() >= sizeof addr.sun_path) {
        ::close(ufd);
        throw UserError("socket path too long: " + config_.socketPath);
    }
    std::strncpy(addr.sun_path, config_.socketPath.c_str(),
                 sizeof addr.sun_path - 1);
    ::unlink(config_.socketPath.c_str());
    if (::bind(ufd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
            0 ||
        ::listen(ufd, 64) != 0) {
        int err = errno;
        ::close(ufd);
        throw UserError("cannot listen on '" + config_.socketPath +
                        "': " + std::strerror(err));
    }
    listenFds_.push_back(ufd);

    // Optional loopback TCP listener.
    if (config_.tcpPort != 0) {
        int tfd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (tfd < 0)
            throw UserError("qsynd: cannot create tcp socket");
        int one = 1;
        ::setsockopt(tfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        sockaddr_in tcp{};
        tcp.sin_family = AF_INET;
        tcp.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        tcp.sin_port =
            htons(static_cast<std::uint16_t>(config_.tcpPort));
        if (::bind(tfd, reinterpret_cast<sockaddr *>(&tcp),
                   sizeof tcp) != 0 ||
            ::listen(tfd, 64) != 0) {
            int err = errno;
            ::close(tfd);
            throw UserError("cannot listen on 127.0.0.1:" +
                            std::to_string(config_.tcpPort) + ": " +
                            std::strerror(err));
        }
        listenFds_.push_back(tfd);
    }

    startedAt_ = std::chrono::steady_clock::now();
    running_.store(true);
    draining_.store(false);
    acceptThread_ = std::thread([this] {
        obs::nameCurrentThread("qsynd-accept");
        acceptLoop();
    });
    QSYN_OBS_LOG(Info, "service")
        << "listening on " << config_.socketPath
        << (config_.tcpPort != 0
                ? " and 127.0.0.1:" + std::to_string(config_.tcpPort)
                : std::string());
}

void
Server::requestStop()
{
    // Async-signal-safe: one atomic store and one pipe write.
    stopRequested_.store(true, std::memory_order_release);
    wake();
}

void
Server::wake()
{
    if (wakePipe_[1] >= 0) {
        char byte = 's';
        [[maybe_unused]] ssize_t ignored =
            ::write(wakePipe_[1], &byte, 1);
    }
}

void
Server::waitForStopRequest()
{
    // Every stopRequested_ store is followed by a wake byte, so the
    // poll needs no timeout.
    while (!stopRequested_.load(std::memory_order_acquire)) {
        pollfd pfd{};
        pfd.fd = wakePipe_[0];
        pfd.events = POLLIN;
        ::poll(&pfd, 1, -1);
        if (pfd.revents & POLLIN) {
            char buf[16];
            [[maybe_unused]] ssize_t ignored =
                ::read(wakePipe_[0], buf, sizeof buf);
        }
    }
}

void
Server::stop()
{
    std::call_once(stopOnce_, [this] {
        if (!running_.load())
            return;
        QSYN_OBS_LOG(Info, "service") << "draining";
        draining_.store(true);
        stopRequested_.store(true);
        wake();
        if (acceptThread_.joinable())
            acceptThread_.join();
        for (int fd : listenFds_)
            ::close(fd);
        listenFds_.clear();
        ::unlink(config_.socketPath.c_str());

        // Unblock connections parked in readFrame. SHUT_RD only: a
        // response already being written must still flush — the drain
        // promise is "every admitted request gets its answer".
        {
            std::lock_guard<std::mutex> lock(connMu_);
            for (const std::unique_ptr<Connection> &conn :
                 connections_) {
                if (!conn->closed.load())
                    ::shutdown(conn->fd, SHUT_RD);
            }
        }
        std::vector<std::unique_ptr<Connection>> finished;
        {
            std::lock_guard<std::mutex> lock(connMu_);
            finished.swap(connections_);
        }
        for (const std::unique_ptr<Connection> &conn : finished) {
            if (conn->thread.joinable())
                conn->thread.join();
        }
        running_.store(false);
        QSYN_OBS_LOG(Info, "service") << "stopped";
        if (wakePipe_[0] >= 0)
            ::close(wakePipe_[0]);
        if (wakePipe_[1] >= 0)
            ::close(wakePipe_[1]);
        wakePipe_[0] = wakePipe_[1] = -1;
    });
}

void
Server::acceptLoop()
{
    // The listeners plus the wake pipe's read end, which turns
    // readable on requestStop() and stop(). The loop only watches it:
    // waitForStopRequest() consumes the bytes, and a stop request
    // ends accepting, so an unread byte cannot spin this loop.
    std::vector<pollfd> pfds(listenFds_.size() + 1);
    for (size_t i = 0; i < listenFds_.size(); ++i)
        pfds[i].fd = listenFds_[i];
    pfds.back().fd = wakePipe_[0];
    for (pollfd &pfd : pfds)
        pfd.events = POLLIN;
    const size_t listeners = listenFds_.size();
    while (!draining_.load() && !stopRequested_.load()) {
        int ready = ::poll(pfds.data(),
                           static_cast<nfds_t>(pfds.size()), -1);
        if (ready <= 0)
            continue;
        for (size_t i = 0; i < listeners; ++i) {
            const pollfd &pfd = pfds[i];
            if (!(pfd.revents & POLLIN))
                continue;
            int fd = ::accept4(pfd.fd, nullptr, nullptr, SOCK_CLOEXEC);
            if (fd < 0)
                continue;
            auto conn = std::make_unique<Connection>();
            Connection *raw = conn.get();
            raw->fd = fd;
            {
                std::lock_guard<std::mutex> lock(statsMu_);
                ++stats_.connectionsTotal;
            }
            std::lock_guard<std::mutex> lock(connMu_);
            // Reap finished connections so a long-lived daemon does
            // not accumulate dead thread handles.
            for (std::unique_ptr<Connection> &old : connections_) {
                if (old->closed.load() && old->thread.joinable())
                    old->thread.join();
            }
            connections_.erase(
                std::remove_if(
                    connections_.begin(), connections_.end(),
                    [](const std::unique_ptr<Connection> &c) {
                        return c->closed.load() &&
                               !c->thread.joinable();
                    }),
                connections_.end());
            raw->thread = std::thread([this, raw] {
                obs::nameCurrentThread("qsynd-conn");
                connectionLoop(raw);
            });
            connections_.push_back(std::move(conn));
        }
    }
}

void
Server::connectionLoop(Connection *conn)
{
    for (;;) {
        std::string payload;
        FrameStatus status =
            readFrame(conn->fd, &payload, config_.maxFrameBytes);
        if (status != FrameStatus::Ok) {
            if (status == FrameStatus::TooLarge ||
                status == FrameStatus::Truncated ||
                status == FrameStatus::Error) {
                {
                    std::lock_guard<std::mutex> lock(statsMu_);
                    ++stats_.protocolErrors;
                }
                bumpMetric("service.protocol_errors");
                if (status == FrameStatus::TooLarge) {
                    // The stream cannot be resynchronized; answer once
                    // and hang up.
                    writeFrame(conn->fd,
                               errorResponse(
                                   ErrorCode::BadRequest,
                                   "frame exceeds maximum size")
                                   .dump());
                }
            }
            break;
        }
        conn->busy.store(true);
        Stopwatch sw;
        bool fatal = false;
        std::string response = handleRequest(payload, &fatal);
        bool wrote = writeFrame(conn->fd, response);
        observeLatency("request", sw.seconds());
        conn->busy.store(false);
        if (!wrote || fatal)
            break;
        if (draining_.load())
            break;
    }
    ::close(conn->fd);
    conn->closed.store(true);
}

std::string
Server::handleRequest(const std::string &payload, bool *fatal)
{
    *fatal = false;
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        ++stats_.requestsTotal;
    }
    bumpMetric("service.requests");

    Json request;
    std::string parse_error;
    Json response;
    std::string op = "?";
    try {
        if (!parseJson(payload, &request, &parse_error))
            throw ServiceError{ErrorCode::BadRequest, parse_error};
        if (!request.isObject())
            throw ServiceError{ErrorCode::BadRequest,
                               "request must be a JSON object"};
        op = request.stringOr("op", "");
        if (op.empty())
            throw ServiceError{ErrorCode::BadRequest,
                               "missing 'op' field"};
        if (op == "compile") {
            response = handleCompile(request);
        } else if (op == "verify") {
            response = handleVerify(request);
        } else if (op == "simulate") {
            response = handleSimulate(request);
        } else if (op == "analyze") {
            response = handleAnalyze(request);
        } else if (op == "stats") {
            response = handleStats(request);
        } else if (op == "health") {
            response = handleHealth(request);
        } else if (op == "ping") {
            response = okResponse();
        } else {
            throw ServiceError{ErrorCode::BadRequest,
                               "unknown op '" + op + "'"};
        }
    } catch (const ServiceError &e) {
        response = errorResponse(e.code, e.message);
        if (e.code == ErrorCode::Overloaded) {
            std::lock_guard<std::mutex> lock(statsMu_);
            ++stats_.overloaded;
        }
    } catch (const DeadlineError &e) {
        response = errorResponse(ErrorCode::DeadlineExceeded, e.what());
    } catch (const ParseError &e) {
        response = errorResponse(ErrorCode::ParseError, e.what());
    } catch (const MappingError &e) {
        response = errorResponse(ErrorCode::MappingError, e.what());
    } catch (const VerificationError &e) {
        response =
            errorResponse(ErrorCode::VerificationFailed, e.what());
    } catch (const UserError &e) {
        response = errorResponse(ErrorCode::BadRequest, e.what());
    } catch (const Error &e) {
        response = errorResponse(ErrorCode::Internal, e.what());
    } catch (const std::exception &e) {
        response = errorResponse(ErrorCode::Internal, e.what());
    }

    // Echo the request id so pipelined clients can match responses.
    if (const Json *id = request.find("id"))
        response.object["id"] = *id;

    bool ok = response.boolOr("ok", false);
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        if (ok)
            ++stats_.requestsOk;
        else
            ++stats_.requestsError;
    }
    bumpMetric(ok ? "service.requests_ok" : "service.requests_error");
    QSYN_OBS_LOG(Debug, "service")
        << op << " -> " << (ok ? "ok" : "error");
    return response.dump();
}

double
Server::effectiveDeadline(const Json &request) const
{
    double requested =
        request.numberOr("deadline_ms", 0.0) / 1e3;
    if (requested < 0.0)
        requested = 0.0;
    double limit = config_.deadlineSeconds;
    if (limit <= 0.0)
        return requested;
    if (requested <= 0.0)
        return limit;
    return std::min(requested, limit);
}

void
Server::enforceLimits(const Circuit &circuit) const
{
    if (config_.maxQubits != 0 &&
        circuit.numQubits() > config_.maxQubits) {
        throw ServiceError{
            ErrorCode::LimitExceeded,
            "circuit has " + std::to_string(circuit.numQubits()) +
                " qubits; this server accepts at most " +
                std::to_string(config_.maxQubits)};
    }
    if (config_.maxGates != 0 && circuit.size() > config_.maxGates) {
        throw ServiceError{
            ErrorCode::LimitExceeded,
            "circuit has " + std::to_string(circuit.size()) +
                " gates; this server accepts at most " +
                std::to_string(config_.maxGates)};
    }
}

Circuit
Server::parseCircuitField(const Json &request, const char *sourceKey,
                          const char *formatKey) const
{
    const Json *source = request.find(sourceKey);
    if (source == nullptr || !source->isString())
        throw ServiceError{ErrorCode::BadRequest,
                           std::string("missing '") + sourceKey +
                               "' string field"};
    std::string format = toLower(request.stringOr(formatKey, "qasm"));
    std::string name = request.stringOr("name", "remote");
    Circuit circuit(0);
    if (format == "qasm")
        circuit = frontend::parseQasm(source->str, name);
    else if (format == "qc")
        circuit = frontend::parseQc(source->str, name);
    else if (format == "real")
        circuit = frontend::parseReal(source->str, name);
    else if (format == "pla")
        circuit = esop::synthesizePla(frontend::parsePla(source->str));
    else
        throw ServiceError{ErrorCode::BadRequest,
                           "unknown format '" + format +
                               "' (qasm|qc|real|pla)"};
    enforceLimits(circuit);
    return circuit;
}

Device
Server::deviceFor(const Json &request) const
{
    std::string name = request.stringOr("device", "ibmqx4");
    if (name == "simulator") {
        double width = request.numberOr("simulator_qubits", 32.0);
        if (!isRegisterWidth(width))
            throw ServiceError{ErrorCode::BadRequest,
                               "simulator_qubits must be an integer in "
                               "1.." + std::to_string(kMaxRegisterWidth)};
        return Device::simulator(static_cast<Qubit>(width));
    }
    return builtinDevice(name);
}

Json
Server::handleCompile(const Json &request)
{
    Stopwatch sw;
    if (draining_.load())
        throw ServiceError{ErrorCode::ShuttingDown,
                           "server is draining"};
    Circuit input = parseCircuitField(request, "source", "format");
    Device device = deviceFor(request);

    CompileOptions options;
    // The daemon's obs sink would flip the optimizer into detailed
    // mode anyway (see opt/pipeline.cpp); setting the flag explicitly
    // keeps the report bytes independent of sink presence so they
    // match `qsync --report-deterministic`, which does the same.
    options.optimizer.collectPassStats = true;
    options.optimize = request.boolOr("optimize", true);
    std::string verify = toLower(request.stringOr("verify", "full"));
    if (verify == "full")
        options.verify = VerifyMode::Full;
    else if (verify == "off")
        options.verify = VerifyMode::Off;
    else
        throw ServiceError{ErrorCode::BadRequest,
                           "unknown verify mode '" + verify +
                               "' (full|off)"};
    std::string placement =
        toLower(request.stringOr("placement", "identity"));
    if (placement == "identity")
        options.placement = route::PlacementStrategy::Identity;
    else if (placement == "greedy")
        options.placement = route::PlacementStrategy::Greedy;
    else
        throw ServiceError{ErrorCode::BadRequest,
                           "unknown placement '" + placement +
                               "' (identity|greedy)"};
    std::string router = toLower(request.stringOr("router", "ctr"));
    if (!route::parseRouterName(router, &options.routing.router))
        throw ServiceError{ErrorCode::BadRequest,
                           "unknown router '" + router +
                               "' (ctr|sabre)"};

    // The deadline covers queueing AND compiling: a client's budget
    // is end-to-end, not "after we got around to it".
    deadline::Scope scope(effectiveDeadline(request));
    Admission slot(this, resolveJobs(config_.workers));
    if (!slot.admitted) {
        throw ServiceError{ErrorCode::Overloaded,
                           "admission queue is full; retry later"};
    }
    deadline::check("service admission");

    Compiler compiler(device, options);
    std::shared_ptr<const CachedCompile> artifact =
        compiler.compileCached(input, cache_.get());

    Json response = okResponse();
    response.object["qasm"] = Json::makeString(artifact->qasm);
    response.object["report"] = Json::makeString(compileReportJson(
        artifact->result, device, ReportOptions::deterministic()));
    response.object["gates"] = Json::makeNumber(
        static_cast<double>(artifact->result.optimizedM.gates));
    response.object["cost"] =
        Json::makeNumber(artifact->result.optimizedM.cost);
    response.object["verified"] =
        Json::makeBool(artifact->result.verified());
    observeLatency("compile", sw.seconds());
    return response;
}

Json
Server::handleVerify(const Json &request)
{
    Stopwatch sw;
    if (draining_.load())
        throw ServiceError{ErrorCode::ShuttingDown,
                           "server is draining"};
    Circuit a = parseCircuitField(request, "source_a", "format_a");
    Circuit b = parseCircuitField(request, "source_b", "format_b");

    deadline::Scope scope(effectiveDeadline(request));
    Admission slot(this, resolveJobs(config_.workers));
    if (!slot.admitted) {
        throw ServiceError{ErrorCode::Overloaded,
                           "admission queue is full; retry later"};
    }
    deadline::check("service admission");

    dd::Package pkg;
    dd::EquivalenceChecker checker(pkg);
    dd::EquivalenceOptions eopts;
    eopts.nodeBudget = 4u << 20;
    dd::Equivalence verdict = checker.check(a, b, eopts);

    Json response = okResponse();
    response.object["verdict"] =
        Json::makeString(dd::equivalenceName(verdict));
    response.object["equivalent"] =
        Json::makeBool(dd::isEquivalent(verdict));
    observeLatency("verify", sw.seconds());
    return response;
}

Json
Server::handleSimulate(const Json &request)
{
    Stopwatch sw;
    if (draining_.load())
        throw ServiceError{ErrorCode::ShuttingDown,
                           "server is draining"};
    Circuit circuit = parseCircuitField(request, "source", "format");
    double top = request.numberOr("top", 16.0);
    double threshold = request.numberOr("threshold", 1e-9);
    if (top < 0.0 || top > 4096.0)
        throw ServiceError{ErrorCode::BadRequest, "'top' out of range"};

    deadline::Scope scope(effectiveDeadline(request));
    Admission slot(this, resolveJobs(config_.workers));
    if (!slot.admitted) {
        throw ServiceError{ErrorCode::Overloaded,
                           "admission queue is full; retry later"};
    }
    deadline::check("service admission");

    dd::Package pkg;
    dd::VectorEngine engine(pkg);
    Qubit n = circuit.numQubits();
    dd::Edge state =
        engine.applyCircuit(circuit, engine.makeBasisState(0, n));

    Json response = okResponse();
    response.object["qubits"] =
        Json::makeNumber(static_cast<double>(n));
    response.object["gates"] =
        Json::makeNumber(static_cast<double>(circuit.size()));
    if (n > 24) {
        // Too wide to enumerate; report the norm as a sanity value.
        response.object["norm_squared"] = Json::makeNumber(
            engine.normSquared(state, static_cast<int>(n)));
        observeLatency("simulate", sw.seconds());
        return response;
    }
    Json amps = Json::makeArray();
    size_t printed = 0;
    for (std::uint64_t index = 0;
         index < (std::uint64_t{1} << n) &&
         printed < static_cast<size_t>(top);
         ++index) {
        deadline::check("amplitude enumeration");
        Cplx a = engine.amplitude(state, index, static_cast<int>(n));
        double p = std::norm(a);
        if (p < threshold)
            continue;
        Json amp = Json::makeObject();
        amp.object["index"] =
            Json::makeNumber(static_cast<double>(index));
        std::string bits;
        for (Qubit q = 0; q < n; ++q)
            bits += ((index >> (n - 1 - q)) & 1) ? '1' : '0';
        amp.object["bits"] = Json::makeString(bits);
        amp.object["re"] = Json::makeNumber(a.real());
        amp.object["im"] = Json::makeNumber(a.imag());
        amp.object["p"] = Json::makeNumber(p);
        amps.array.push_back(std::move(amp));
        ++printed;
    }
    response.object["amplitudes"] = std::move(amps);
    observeLatency("simulate", sw.seconds());
    return response;
}

Json
Server::handleAnalyze(const Json &request)
{
    Stopwatch sw;
    if (draining_.load())
        throw ServiceError{ErrorCode::ShuttingDown,
                           "server is draining"};
    Circuit circuit = parseCircuitField(request, "source", "format");
    // The device is optional here: without one only the device-
    // independent rules (QL003..QL005) run, matching qlint.
    std::optional<Device> device;
    if (request.find("device") != nullptr)
        device = deviceFor(request);

    deadline::Scope scope(effectiveDeadline(request));
    Admission slot(this, resolveJobs(config_.workers));
    if (!slot.admitted) {
        throw ServiceError{ErrorCode::Overloaded,
                           "admission queue is full; retry later"};
    }
    deadline::check("service admission");

    analysis::LintOptions lopts;
    if (device)
        lopts.device = &*device;
    if (const Json *ancillas = request.find("ancillas")) {
        if (ancillas->type != Json::Type::Array)
            throw ServiceError{ErrorCode::BadRequest,
                               "'ancillas' must be an array"};
        for (const Json &a : ancillas->array) {
            if (a.type != Json::Type::Number || a.number < 0.0)
                throw ServiceError{ErrorCode::BadRequest,
                                   "'ancillas' entries must be "
                                   "non-negative numbers"};
            lopts.ancillas.push_back(static_cast<Qubit>(a.number));
        }
    }
    analysis::Diagnostics report = analysis::analyzeCircuit(
        circuit, request.stringOr("name", "remote"), lopts);

    Json response = okResponse();
    Json metrics = Json::makeObject();
    metrics.object["gates"] =
        Json::makeNumber(static_cast<double>(report.metrics.gates));
    metrics.object["edges"] =
        Json::makeNumber(static_cast<double>(report.metrics.edges));
    metrics.object["depth"] =
        Json::makeNumber(static_cast<double>(report.metrics.depth));
    metrics.object["critical_gates"] = Json::makeNumber(
        static_cast<double>(report.metrics.criticalGates));
    metrics.object["max_layer_width"] = Json::makeNumber(
        static_cast<double>(report.metrics.maxLayerWidth));
    metrics.object["parallelism"] =
        Json::makeNumber(report.metrics.parallelism);
    response.object["metrics"] = std::move(metrics);
    Json findings = Json::makeArray();
    for (const analysis::Finding &f : report.findings) {
        Json entry = Json::makeObject();
        entry.object["rule"] = Json::makeString(f.ruleId);
        entry.object["severity"] =
            Json::makeString(analysis::severityName(f.severity));
        entry.object["message"] = Json::makeString(f.message);
        if (f.gateIndex != analysis::kNoGate)
            entry.object["gate"] = Json::makeNumber(
                static_cast<double>(f.gateIndex));
        if (f.wire != analysis::Finding::kNoWire)
            entry.object["wire"] =
                Json::makeNumber(static_cast<double>(f.wire));
        findings.array.push_back(std::move(entry));
    }
    response.object["findings"] = std::move(findings);
    response.object["errors"] = Json::makeNumber(static_cast<double>(
        report.countAtLeast(analysis::Severity::Error)));
    observeLatency("analyze", sw.seconds());
    return response;
}

Json
Server::handleStats(const Json &request)
{
    std::string format = toLower(request.stringOr("format", "json"));
    Json response = okResponse();
    obs::Sink *sink = obs::sink();
    if (format == "prom") {
        response.object["prometheus"] = Json::makeString(
            sink != nullptr ? sink->metrics().toPrometheus()
                            : std::string());
    } else if (format == "json") {
        response.object["metrics"] = Json::makeString(
            sink != nullptr ? sink->metricsJson()
                            : std::string("{}"));
    } else {
        throw ServiceError{ErrorCode::BadRequest,
                           "unknown stats format '" + format +
                               "' (json|prom)"};
    }
    cache::CacheStats cs = cache_->stats();
    Json cacheStats = Json::makeObject();
    cacheStats.object["hits"] =
        Json::makeNumber(static_cast<double>(cs.hits));
    cacheStats.object["misses"] =
        Json::makeNumber(static_cast<double>(cs.misses));
    cacheStats.object["memory_entries"] =
        Json::makeNumber(static_cast<double>(cs.memoryEntries));
    cacheStats.object["disk_entries"] =
        Json::makeNumber(static_cast<double>(cs.diskEntries));
    response.object["cache"] = std::move(cacheStats);
    return response;
}

Json
Server::handleHealth(const Json &)
{
    ServerStats s = stats();
    Json response = okResponse();
    response.object["status"] =
        Json::makeString(s.draining ? "draining" : "ok");
    response.object["uptime_seconds"] =
        Json::makeNumber(s.uptimeSeconds);
    response.object["requests_total"] =
        Json::makeNumber(static_cast<double>(s.requestsTotal));
    response.object["requests_ok"] =
        Json::makeNumber(static_cast<double>(s.requestsOk));
    response.object["requests_error"] =
        Json::makeNumber(static_cast<double>(s.requestsError));
    response.object["overloaded"] =
        Json::makeNumber(static_cast<double>(s.overloaded));
    response.object["protocol_errors"] =
        Json::makeNumber(static_cast<double>(s.protocolErrors));
    response.object["connections_total"] =
        Json::makeNumber(static_cast<double>(s.connectionsTotal));
    response.object["in_flight"] =
        Json::makeNumber(static_cast<double>(s.inFlight));
    response.object["queued"] =
        Json::makeNumber(static_cast<double>(s.queued));
    response.object["workers"] = Json::makeNumber(
        static_cast<double>(resolveJobs(config_.workers)));
    return response;
}

ServerStats
Server::stats() const
{
    ServerStats out;
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        out = stats_;
    }
    {
        std::lock_guard<std::mutex> lock(admitMu_);
        out.inFlight = activeCompiles_;
        out.queued = waitingCompiles_;
    }
    out.draining = draining_.load();
    out.uptimeSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - startedAt_)
            .count();
    return out;
}

void
Server::bumpMetric(const char *name, double delta) const
{
    if (obs::Sink *s = obs::sink())
        s->metrics().addCounter(name, delta);
}

void
Server::observeLatency(const char *op, double seconds) const
{
    if (obs::Sink *s = obs::sink()) {
        s->metrics().observe(
            std::string("service.") + op + ".latency_us",
            seconds * 1e6);
    }
}

} // namespace qsyn::service
