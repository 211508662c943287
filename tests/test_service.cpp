/**
 * @file
 * Service-layer test suite: the qsynd daemon driven as a real
 * subprocess over its Unix socket (spawn, warm-compile, limits,
 * SIGTERM drain), plus in-process Server/Client protocol-robustness
 * tests (malformed JSON, truncated frames, oversized length prefixes,
 * abrupt disconnects).
 *
 * The tool directory arrives via the QSYN_TOOL_DIR environment
 * variable (set by tests/CMakeLists.txt from the build tree).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/errors.hpp"
#include "service/client.hpp"
#include "service/fuzz.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace fs = std::filesystem;
using namespace qsyn;

namespace {

fs::path
scratchDir(const std::string &name)
{
    fs::path dir = fs::temp_directory_path() / "qsyn_service" / name;
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir);
    return dir;
}

std::string
toolPath(const std::string &tool)
{
    const char *dir = std::getenv("QSYN_TOOL_DIR");
    EXPECT_NE(dir, nullptr) << "QSYN_TOOL_DIR not set; run via ctest";
    return dir ? std::string(dir) + "/" + tool : tool;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

const char *kSmallQasm =
    "OPENQASM 2.0;\n"
    "include \"qelib1.inc\";\n"
    "qreg q[4];\n"
    "h q[0];\n"
    "cx q[0],q[1];\n"
    "cx q[1],q[2];\n"
    "t q[2];\n"
    "cx q[2],q[3];\n";

/** A long T/CX braid on 5 qubits (3 gates per layer). The compile
 *  takes tens to hundreds of milliseconds, so tests that need it to
 *  be in flight wait for that with waitForInFlight, not a sleep. */
std::string
hugeQasm(size_t layers)
{
    std::ostringstream os;
    os << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[5];\n";
    for (size_t i = 0; i < layers; ++i) {
        os << "h q[" << i % 5 << "];\n";
        os << "t q[" << (i + 1) % 5 << "];\n";
        os << "cx q[" << i % 5 << "],q[" << (i + 2) % 5 << "];\n";
    }
    return os.str();
}

service::Json
compileRequest(const std::string &source)
{
    service::Json req = service::Json::makeObject();
    req.object["op"] = service::Json::makeString("compile");
    req.object["source"] = service::Json::makeString(source);
    return req;
}

std::string
errorCodeOf(const service::Json &response)
{
    const service::Json *e = response.find("error");
    return e != nullptr ? e->stringOr("code", "") : "";
}

/**
 * A qsynd child process for one test: fork/exec, connect-poll until
 * the socket answers, SIGTERM + waitpid on teardown.
 */
class Daemon
{
  public:
    explicit Daemon(std::vector<std::string> extraArgs = {})
    {
        dir_ = scratchDir("daemon-" + std::to_string(::getpid()) +
                          "-" + std::to_string(counter_++));
        socket_ = (dir_ / "qsynd.sock").string();
        std::string bin = toolPath("qsynd");
        std::vector<std::string> args = {bin, "--socket", socket_};
        for (std::string &a : extraArgs)
            args.push_back(std::move(a));

        pid_ = ::fork();
        if (pid_ < 0) {
            ADD_FAILURE() << "fork failed";
            return;
        }
        if (pid_ == 0) {
            // Child: quiet stderr, then become qsynd.
            FILE *sink = std::freopen("/dev/null", "w", stderr);
            (void)sink;
            std::vector<char *> argv;
            argv.reserve(args.size() + 1);
            for (std::string &a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            ::execv(argv[0], argv.data());
            std::_Exit(127);
        }
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            int status = 0;
            ::waitpid(pid_, &status, 0);
        }
    }

    /** Poll-connect until the daemon answers a ping (or ~10 s). */
    void
    waitReady()
    {
        for (int attempt = 0; attempt < 200; ++attempt) {
            try {
                service::Client c =
                    service::Client::connectUnix(socket_);
                service::Json ping = service::Json::makeObject();
                ping.object["op"] = service::Json::makeString("ping");
                if (c.call(ping).boolOr("ok", false))
                    return;
            } catch (const Error &) {
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
        FAIL() << "qsynd never became ready on " << socket_;
    }

    /** SIGTERM, then reap; returns the exit code (-1 = signalled). */
    int
    terminate()
    {
        ::kill(pid_, SIGTERM);
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    const std::string &socket() const { return socket_; }
    const fs::path &dir() const { return dir_; }

  private:
    static std::atomic<int> counter_;
    pid_t pid_ = -1;
    std::string socket_;
    fs::path dir_;
};

std::atomic<int> Daemon::counter_{0};

/** Poll the daemon's `health` op until it reports `in_flight` ==
 *  `want`; false after 10 s or when the daemon stops answering. */
bool
waitForInFlight(const std::string &socket, double want)
{
    try {
        service::Client client = service::Client::connectUnix(socket);
        service::Json health = service::Json::makeObject();
        health.object["op"] = service::Json::makeString("health");
        auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(10);
        while (std::chrono::steady_clock::now() < give_up) {
            if (client.call(health).numberOr("in_flight", -1.0) == want)
                return true;
        }
    } catch (const Error &) {
    }
    return false;
}

int
runShell(const std::string &cmd)
{
    int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

} // namespace

// ---------------------------------------------------------------------
// Subprocess end-to-end: the real daemon over its real socket.
// ---------------------------------------------------------------------

TEST(ServiceE2E, HealthStatsAndCompile)
{
    Daemon daemon;
    daemon.waitReady();
    service::Client client =
        service::Client::connectUnix(daemon.socket());

    service::Json health = service::Json::makeObject();
    health.object["op"] = service::Json::makeString("health");
    service::Json h = client.call(health);
    EXPECT_TRUE(h.boolOr("ok", false));
    EXPECT_EQ(h.stringOr("status", ""), "ok");
    EXPECT_GE(h.numberOr("workers", 0.0), 1.0);

    service::Json resp = client.call(compileRequest(kSmallQasm));
    ASSERT_TRUE(resp.boolOr("ok", false)) << errorCodeOf(resp);
    EXPECT_NE(resp.stringOr("qasm", "").find("OPENQASM"),
              std::string::npos);
    EXPECT_TRUE(resp.boolOr("verified", false));
    // The report field is a pre-rendered JSON document.
    EXPECT_EQ(resp.stringOr("report", "").rfind("{", 0), 0u);

    // stats: json form carries the metrics registry snapshot; prom
    // form carries a text exposition page with qsyn_ series.
    service::Json stats = service::Json::makeObject();
    stats.object["op"] = service::Json::makeString("stats");
    service::Json s = client.call(stats);
    ASSERT_TRUE(s.boolOr("ok", false));
    EXPECT_EQ(s.stringOr("metrics", "").rfind("{", 0), 0u);
    const service::Json *cache = s.find("cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_GE(cache->numberOr("misses", -1.0), 1.0);

    stats.object["format"] = service::Json::makeString("prom");
    service::Json p = client.call(stats);
    ASSERT_TRUE(p.boolOr("ok", false));
    EXPECT_NE(p.stringOr("prometheus", "").find("qsyn_"),
              std::string::npos);

    EXPECT_EQ(daemon.terminate(), 0);
}

TEST(ServiceE2E, SecondCompileHitsWarmCache)
{
    Daemon daemon;
    daemon.waitReady();
    service::Client client =
        service::Client::connectUnix(daemon.socket());

    service::Json first = client.call(compileRequest(kSmallQasm));
    ASSERT_TRUE(first.boolOr("ok", false)) << errorCodeOf(first);
    service::Json second = client.call(compileRequest(kSmallQasm));
    ASSERT_TRUE(second.boolOr("ok", false)) << errorCodeOf(second);
    // Identical request -> identical bytes, served from the shared
    // cache (hits >= 1).
    EXPECT_EQ(first.stringOr("qasm", "x"), second.stringOr("qasm", "y"));
    EXPECT_EQ(first.stringOr("report", "x"),
              second.stringOr("report", "y"));

    service::Json stats = service::Json::makeObject();
    stats.object["op"] = service::Json::makeString("stats");
    service::Json s = client.call(stats);
    const service::Json *cache = s.find("cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_GE(cache->numberOr("hits", 0.0), 1.0);

    EXPECT_EQ(daemon.terminate(), 0);
}

TEST(ServiceE2E, RemoteReportByteIdenticalToLocal)
{
    fs::path dir = scratchDir("byte-identical");
    fs::path circuit = dir / "c.qasm";
    {
        std::ofstream out(circuit);
        out << kSmallQasm;
    }
    Daemon daemon;
    daemon.waitReady();

    fs::path remoteQasm = dir / "remote.qasm";
    fs::path remoteReport = dir / "remote.json";
    fs::path localQasm = dir / "local.qasm";
    fs::path localReport = dir / "local.json";

    std::string qsync = toolPath("qsync");
    ASSERT_EQ(runShell(qsync + " --remote " + daemon.socket() +
                       " --quiet --report " + remoteReport.string() +
                       " " + circuit.string() + " > " +
                       remoteQasm.string() + " 2>/dev/null"),
              0);
    ASSERT_EQ(runShell(qsync + " --quiet --report-deterministic"
                       " --report " + localReport.string() + " " +
                       circuit.string() + " > " + localQasm.string() +
                       " 2>/dev/null"),
              0);

    std::string remoteQ = slurp(remoteQasm);
    ASSERT_FALSE(remoteQ.empty());
    EXPECT_EQ(remoteQ, slurp(localQasm));
    std::string remoteR = slurp(remoteReport);
    ASSERT_FALSE(remoteR.empty());
    EXPECT_EQ(remoteR, slurp(localReport));

    EXPECT_EQ(daemon.terminate(), 0);
}

TEST(ServiceE2E, EightConcurrentClients)
{
    Daemon daemon;
    daemon.waitReady();

    constexpr size_t kClients = 8;
    constexpr size_t kRequests = 4;
    std::atomic<size_t> ok{0};
    std::vector<std::string> problems;
    std::mutex mu;

    std::vector<std::thread> pool;
    for (size_t c = 0; c < kClients; ++c) {
        pool.emplace_back([&, c] {
            try {
                service::Client client =
                    service::Client::connectUnix(daemon.socket());
                for (size_t r = 0; r < kRequests; ++r) {
                    service::Json req = compileRequest(kSmallQasm);
                    double id = static_cast<double>(c * 100 + r);
                    req.object["id"] = service::Json::makeNumber(id);
                    service::Json resp = client.call(req);
                    if (resp.boolOr("ok", false) &&
                        resp.numberOr("id", -1.0) == id) {
                        ++ok;
                    } else {
                        std::lock_guard<std::mutex> lock(mu);
                        problems.push_back("client " +
                                           std::to_string(c) + ": " +
                                           errorCodeOf(resp));
                    }
                }
            } catch (const Error &e) {
                std::lock_guard<std::mutex> lock(mu);
                problems.push_back(e.what());
            }
        });
    }
    for (std::thread &t : pool)
        t.join();

    EXPECT_EQ(ok.load(), kClients * kRequests)
        << (problems.empty() ? "" : problems.front());
    EXPECT_EQ(daemon.terminate(), 0);
}

TEST(ServiceE2E, LimitViolationsAreStructuredAndNonFatal)
{
    Daemon daemon({"--max-qubits", "4", "--max-gates", "64"});
    daemon.waitReady();
    service::Client client =
        service::Client::connectUnix(daemon.socket());

    // Too wide.
    std::string wide =
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[6];\nh q[5];\n";
    service::Json r1 = client.call(compileRequest(wide));
    EXPECT_FALSE(r1.boolOr("ok", true));
    EXPECT_EQ(errorCodeOf(r1), "limit_exceeded");

    // Too long.
    service::Json r2 = client.call(compileRequest(hugeQasm(100)));
    EXPECT_FALSE(r2.boolOr("ok", true));
    EXPECT_EQ(errorCodeOf(r2), "limit_exceeded");

    // Unparseable circuit.
    service::Json r3 = client.call(compileRequest("qreg nonsense"));
    EXPECT_FALSE(r3.boolOr("ok", true));
    EXPECT_EQ(errorCodeOf(r3), "parse_error");

    // Unknown device.
    service::Json r4 = compileRequest(kSmallQasm);
    r4.object["device"] = service::Json::makeString("enigma");
    service::Json r4r = client.call(r4);
    EXPECT_FALSE(r4r.boolOr("ok", true));
    EXPECT_EQ(errorCodeOf(r4r), "bad_request");

    // Unknown verify mode: `full` and `off` are the only ones.
    service::Json r5 = compileRequest(kSmallQasm);
    r5.object["verify"] = service::Json::makeString("miter");
    service::Json r5r = client.call(r5);
    EXPECT_FALSE(r5r.boolOr("ok", true));
    EXPECT_EQ(errorCodeOf(r5r), "bad_request");

    // The daemon answered five poisoned requests and is still fine.
    service::Json good = client.call(compileRequest(kSmallQasm));
    EXPECT_TRUE(good.boolOr("ok", false)) << errorCodeOf(good);
    EXPECT_EQ(daemon.terminate(), 0);
}

TEST(ServiceE2E, DeadlineExpiresStructurally)
{
    // 2400 gates cannot be decomposed, routed, optimized and verified
    // in 20 ms; the optimizer's deadline poll usually fires first, and
    // the cooperative poll must unwind it cleanly. The budget rides on
    // the request (deadline_ms) rather than the server so the
    // follow-up small compile is unconstrained — under slow sanitizer
    // builds even it would blow a 20 ms server-wide deadline.
    Daemon daemon({"--max-gates", "1000000"});
    daemon.waitReady();
    service::Client client =
        service::Client::connectUnix(daemon.socket());

    service::Json req = compileRequest(hugeQasm(800));
    req.object["deadline_ms"] = service::Json::makeNumber(20.0);
    service::Json resp = client.call(req);
    EXPECT_FALSE(resp.boolOr("ok", true));
    EXPECT_EQ(errorCodeOf(resp), "deadline_exceeded");

    service::Json good = client.call(compileRequest(kSmallQasm));
    EXPECT_TRUE(good.boolOr("ok", false)) << errorCodeOf(good);
    EXPECT_EQ(daemon.terminate(), 0);
}

TEST(ServiceE2E, OverloadedWhenQueueFull)
{
    Daemon daemon({"--threads", "1", "--queue-depth", "0"});
    daemon.waitReady();

    // Occupy the single compile slot with a slow compile (bounded by
    // its own deadline so the test can't hang), wait until health
    // shows it in flight, then probe: the probe must get an immediate
    // structured `overloaded`, not a hang.
    std::thread slow([&] {
        try {
            service::Client c =
                service::Client::connectUnix(daemon.socket());
            service::Json req = compileRequest(hugeQasm(800));
            req.object["deadline_ms"] =
                service::Json::makeNumber(2000.0);
            c.call(req);
        } catch (const Error &) {
        }
    });

    bool inFlight = waitForInFlight(daemon.socket(), 1.0);
    bool sawOverloaded = false;
    for (int attempt = 0; inFlight && attempt < 5 && !sawOverloaded;
         ++attempt) {
        service::Client probe =
            service::Client::connectUnix(daemon.socket());
        service::Json resp = probe.call(compileRequest(kSmallQasm));
        if (!resp.boolOr("ok", true) &&
            errorCodeOf(resp) == "overloaded")
            sawOverloaded = true;
    }
    slow.join();
    EXPECT_TRUE(inFlight);
    EXPECT_TRUE(sawOverloaded);
    EXPECT_EQ(daemon.terminate(), 0);
}

TEST(ServiceE2E, SigtermDrainsInFlightRequest)
{
    Daemon daemon;
    daemon.waitReady();

    // Launch a compile, send SIGTERM while health shows it in flight;
    // its response must be delivered anyway, and only after SIGTERM
    // (otherwise nothing was drained and the test proves nothing).
    std::atomic<bool> sigtermSent{false};
    std::atomic<bool> gotResponse{false};
    std::atomic<bool> answeredBeforeSigterm{false};
    std::atomic<bool> responseOk{false};
    std::thread inflight([&] {
        try {
            service::Client c =
                service::Client::connectUnix(daemon.socket());
            service::Json req = compileRequest(hugeQasm(250));
            service::Json resp = c.call(req);
            answeredBeforeSigterm = !sigtermSent.load();
            gotResponse = true;
            responseOk = resp.boolOr("ok", false);
        } catch (const Error &) {
        }
    });

    bool inFlight = waitForInFlight(daemon.socket(), 1.0);
    sigtermSent = true;
    int exitCode = daemon.terminate(); // SIGTERM + waitpid
    inflight.join();

    ASSERT_TRUE(inFlight);
    EXPECT_EQ(exitCode, 0);
    EXPECT_TRUE(gotResponse.load());
    EXPECT_FALSE(answeredBeforeSigterm.load());
    EXPECT_TRUE(responseOk.load());
    // The drain unlinked the socket.
    EXPECT_FALSE(fs::exists(daemon.socket()));
}

// ---------------------------------------------------------------------
// Protocol robustness: in-process Server attacked at the byte level.
// ---------------------------------------------------------------------

namespace {

/** In-process server on a scratch socket for byte-level attacks. */
class InProcessServer
{
  public:
    InProcessServer()
    {
        dir_ = scratchDir("inproc-" + std::to_string(::getpid()));
        service::ServerConfig config;
        config.socketPath = (dir_ / "s.sock").string();
        config.workers = 2;
        config.queueDepth = 2;
        config.maxFrameBytes = 1u << 20;
        server_ = std::make_unique<service::Server>(config);
        server_->start();
    }

    ~InProcessServer() { server_->stop(); }

    const std::string &socket() const
    {
        return server_->config().socketPath;
    }
    service::Server &server() { return *server_; }

  private:
    fs::path dir_;
    std::unique_ptr<service::Server> server_;
};

} // namespace

TEST(ServiceProtocol, MalformedJsonGetsStructuredError)
{
    InProcessServer srv;
    service::Client client =
        service::Client::connectUnix(srv.socket());
    std::string raw = client.callRaw("{\"op\": \"ping\"");
    service::Json resp;
    ASSERT_TRUE(service::parseJson(raw, &resp, nullptr)) << raw;
    EXPECT_FALSE(resp.boolOr("ok", true));
    EXPECT_EQ(errorCodeOf(resp), "bad_request");

    // Same connection still serves valid requests afterwards.
    service::Json ping = service::Json::makeObject();
    ping.object["op"] = service::Json::makeString("ping");
    EXPECT_TRUE(client.call(ping).boolOr("ok", false));
}

TEST(ServiceProtocol, OversizedPrefixAnswersThenCloses)
{
    InProcessServer srv;
    service::Client client =
        service::Client::connectUnix(srv.socket());
    std::string header = service::encodeFrameHeader(
        srv.server().config().maxFrameBytes + 1);
    ASSERT_EQ(::send(client.fd(), header.data(), header.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(header.size()));

    // The poisoned stream gets one final structured error frame...
    std::string payload;
    ASSERT_EQ(service::readFrame(client.fd(), &payload),
              service::FrameStatus::Ok);
    service::Json resp;
    ASSERT_TRUE(service::parseJson(payload, &resp, nullptr));
    EXPECT_EQ(errorCodeOf(resp), "bad_request");

    // ...then a clean close.
    EXPECT_EQ(service::readFrame(client.fd(), &payload),
              service::FrameStatus::Eof);

    // And the server keeps serving fresh connections.
    service::Client fresh =
        service::Client::connectUnix(srv.socket());
    service::Json ping = service::Json::makeObject();
    ping.object["op"] = service::Json::makeString("ping");
    EXPECT_TRUE(fresh.call(ping).boolOr("ok", false));
}

TEST(ServiceProtocol, TruncatedFramesAndDisconnectsAreCleanDrops)
{
    InProcessServer srv;
    {
        // Promise 512 bytes, deliver 10, hang up.
        service::Client c =
            service::Client::connectUnix(srv.socket());
        std::string header = service::encodeFrameHeader(512);
        ::send(c.fd(), header.data(), header.size(), MSG_NOSIGNAL);
        ::send(c.fd(), "0123456789", 10, MSG_NOSIGNAL);
    }
    {
        // Hang up mid-header.
        service::Client c =
            service::Client::connectUnix(srv.socket());
        ::send(c.fd(), "\x00\x00", 2, MSG_NOSIGNAL);
    }
    {
        // Raw garbage (decodes as a huge length).
        service::Client c =
            service::Client::connectUnix(srv.socket());
        ::send(c.fd(), "\xff\xff\xff\xffgarbage", 11, MSG_NOSIGNAL);
    }
    // None of it crashed or wedged the server.
    service::Client fresh = service::Client::connectUnix(srv.socket());
    service::Json ping = service::Json::makeObject();
    ping.object["op"] = service::Json::makeString("ping");
    EXPECT_TRUE(fresh.call(ping).boolOr("ok", false));
    EXPECT_GE(srv.server().stats().protocolErrors, 1u);
}

TEST(ServiceProtocol, FuzzSweepStaysClean)
{
    service::ServiceFuzzOptions options;
    options.seed = 7;
    options.iterations = 60;
    options.socketDir =
        scratchDir("fuzz-sweep").string();
    std::ostringstream log;
    service::ServiceFuzzSummary summary =
        service::runServiceFuzzer(options, log);
    EXPECT_TRUE(summary.clean()) << log.str();
    EXPECT_EQ(summary.cases, options.iterations);
    EXPECT_GT(summary.structuredErrors, 0u);
    EXPECT_GT(summary.cleanDrops, 0u);
}

TEST(ServiceProtocol, ShuttingDownCodeDuringDrain)
{
    // stop() on a server with no traffic still flips draining_ before
    // closing; a compile racing the drain gets `shutting_down` or a
    // dropped connection, never a hang. Exercised via the config
    // accessor to keep the test deterministic: just verify the drain
    // finishes with outstanding idle connections open.
    auto srv = std::make_unique<InProcessServer>();
    service::Client idle =
        service::Client::connectUnix(srv->socket());
    srv.reset(); // stop() must shut the idle connection down, not hang
    SUCCEED();
}
