/**
 * @file
 * Blocking qsynd client: connect, exchange one frame per call. Used by
 * `qsync --remote`, the qload load generator, perfbench's
 * service_mix workload, and the service test suite — all of them
 * speak to the daemon through this one class so protocol handling
 * (framing, errors, oversized responses) lives in exactly one place.
 */

#pragma once

#include <string>

#include "service/json.hpp"
#include "service/protocol.hpp"

namespace qsyn::service {

/** One connection to a qsynd daemon (move-only; closes on destroy). */
class Client
{
  public:
    /** Connect to a Unix-domain socket. Throws UserError on failure. */
    static Client connectUnix(const std::string &socketPath);

    /** Connect to a TCP endpoint (host is an IPv4 literal). */
    static Client connectTcp(const std::string &host, int port);

    Client(Client &&other) noexcept;
    Client &operator=(Client &&other) noexcept;
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;
    ~Client();

    /**
     * Send one request object and block for its response. Throws
     * UserError when the transport fails (connection closed, frame
     * unreadable) or the response is not valid JSON — a *structured*
     * server-side failure (ok=false) is returned, not thrown, so
     * callers can inspect error.code.
     */
    Json call(const Json &request);

    /** Raw exchange: send `payload` verbatim, return the raw response
     *  payload. The fuzzer uses this to send deliberately broken
     *  bytes. */
    std::string callRaw(const std::string &payload);

    /** The underlying socket (fuzzer: send partial/garbage frames). */
    int fd() const { return fd_; }

    /** Throw UserError carrying a response's error code + message.
     *  Precondition: response.ok is false. */
    [[noreturn]] static void throwError(const Json &response);

  private:
    explicit Client(int fd) : fd_(fd) {}

    int fd_ = -1;
};

} // namespace qsyn::service
