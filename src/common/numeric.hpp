/**
 * @file
 * Strict, non-throwing numeric parsing shared by every frontend and
 * tool. The std::stod/stoul family silently accepts trailing garbage
 * and escapes as uncaught std::out_of_range on oversized literals
 * ("1e999", ".numvars 99999999999999999999"); these helpers reject
 * both and report failure via their return value so callers can raise
 * a proper ParseError/UserError with context.
 */

#pragma once

#include <string_view>

namespace qsyn {

/**
 * Parse `text` as a finite double. The whole string must be consumed:
 * leading whitespace, trailing characters, empty input, and values
 * that overflow to infinity (or parse as inf/nan) all fail. A leading
 * sign is accepted.
 */
bool parseFiniteDouble(std::string_view text, double *out);

/**
 * Parse `text` as an unsigned integer. Digits only: signs, whitespace,
 * base prefixes, trailing characters, empty input, and values beyond
 * unsigned long long all fail.
 */
bool parseUnsigned(std::string_view text, unsigned long long *out);

/**
 * Upper bound on register/operand counts accepted from source files
 * (.qasm qreg sizes, .real .numvars, gate arities). Far above any
 * mappable circuit, low enough that a malformed count cannot drive an
 * allocation of astronomical size or overflow the Qubit type.
 */
inline constexpr unsigned long long kMaxRegisterWidth = 4096;

/**
 * True when `value` is a register width a device may be built with: a
 * whole number in [1, kMaxRegisterWidth]. The one check behind every
 * simulator width a user gives (qsync and qlint `--simulator-qubits`,
 * the qsynd `simulator_qubits` field).
 */
bool isRegisterWidth(double value);

} // namespace qsyn
