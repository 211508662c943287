/**
 * @file
 * Minimal JSON value model + strict parser for the qsynd wire
 * protocol. This is the first place the library parses (rather than
 * emits) JSON, and it sits on an untrusted boundary, so the parser is
 * deliberately paranoid: recursion depth is capped, numbers must be
 * finite, escapes are validated, and every failure is a diagnosed
 * error, never UB. Parsing reports failure through a return value —
 * the service loop turns it into a structured `bad_request` response
 * instead of unwinding the connection thread.
 *
 * Writing goes through the same obs::jsonEscape the report/metrics
 * emitters use, so both directions agree on escaping.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace qsyn::service {

/** One JSON value (object keys are sorted; duplicates = last wins). */
struct Json
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Json> array;
    std::map<std::string, Json> object;

    bool isObject() const { return type == Type::Object; }
    bool isString() const { return type == Type::String; }

    /** Member lookup; null when absent or not an object. */
    const Json *find(const std::string &key) const;

    /** Member lookup for callers that treat a missing member as a
     *  bug: throws std::out_of_range when absent or not an object. */
    const Json &at(const std::string &key) const;

    /** Typed member accessors with defaults (missing/mistyped =
     *  default) — the tolerant reads the request decoder wants. */
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;
    double numberOr(const std::string &key, double fallback) const;
    bool boolOr(const std::string &key, bool fallback) const;

    /** @name Builders */
    /// @{
    static Json makeNull();
    static Json makeBool(bool b);
    static Json makeNumber(double v);
    static Json makeString(std::string s);
    static Json makeArray();
    static Json makeObject();
    /// @}

    /** Serialize (stable: object keys in sorted order). */
    std::string dump() const;
};

/**
 * Parse `text` strictly (one value, no trailing bytes, depth <= 64).
 * Returns false and fills `*error` (when non-null) on any flaw.
 */
bool parseJson(std::string_view text, Json *out,
               std::string *error = nullptr);

} // namespace qsyn::service
