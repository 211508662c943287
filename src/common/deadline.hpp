/**
 * @file
 * Cooperative per-thread wall-time deadlines.
 *
 * A compile is cancelled at points it already passes between gates.
 * The deadline is a thread-local steady_clock instant; hot loops call
 * deadline::check() after every gate, next to their GC check, and the
 * check throws DeadlineError once the instant has passed. Nothing is
 * preempted — a gate application always completes — so invariants
 * (a QMDD package's tables) unwind through ordinary RAII.
 *
 * The deadline is deliberately NOT part of CompileOptions: it cannot
 * change the compiled output, so compile-cache fingerprints must not
 * see it.
 * Install one with deadline::Scope around a compile; BatchCompiler
 * does this per item (setJobDeadline) and the qsynd service per
 * request.
 */

#pragma once

#include <chrono>

namespace qsyn::deadline {

using Clock = std::chrono::steady_clock;

/** Arm this thread's deadline. Overwrites any previous one. */
void set(Clock::time_point at);

/** Disarm this thread's deadline. */
void clear();

/** True when a deadline is armed on this thread. */
bool active();

/** True when a deadline is armed and already past. */
bool expired();

/**
 * The per-gate poll: throws DeadlineError when the armed deadline has
 * passed; a no-op otherwise (one thread-local load on the fast path).
 * `where` names the cancelled phase in the error message.
 */
void check(const char *where);

/**
 * RAII deadline for the enclosing scope. `seconds <= 0` arms nothing.
 * Restores the previously armed deadline (if any) on destruction, so
 * scopes nest: an inner, tighter deadline wins while it lives.
 */
class Scope
{
  public:
    explicit Scope(double seconds);
    explicit Scope(Clock::time_point at);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Clock::time_point previous_;
    bool hadPrevious_ = false;
    bool armed_ = false;
};

} // namespace qsyn::deadline
