#include "common/numeric.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>

namespace qsyn {

bool
parseFiniteDouble(std::string_view text, double *out)
{
    if (text.empty() ||
        std::isspace(static_cast<unsigned char>(text.front())))
        return false;
    // strtod needs a NUL terminator; string_views are not guaranteed
    // one, so copy (the inputs are short tokens).
    std::string buf(text);
    errno = 0;
    char *end = nullptr;
    double value = std::strtod(buf.c_str(), &end);
    if (end != buf.c_str() + buf.size())
        return false; // trailing characters (or nothing consumed)
    if (!std::isfinite(value))
        return false; // overflow, or a literal "inf"/"nan"
    *out = value;
    return true;
}

bool
parseUnsigned(std::string_view text, unsigned long long *out)
{
    if (text.empty() ||
        !std::isdigit(static_cast<unsigned char>(text.front())))
        return false; // rejects signs, whitespace, and empty input
    std::string buf(text);
    errno = 0;
    char *end = nullptr;
    unsigned long long value = std::strtoull(buf.c_str(), &end, 10);
    if (end != buf.c_str() + buf.size())
        return false;
    if (errno == ERANGE)
        return false;
    *out = value;
    return true;
}

bool
isRegisterWidth(double value)
{
    return value >= 1.0 &&
           value <= static_cast<double>(kMaxRegisterWidth) &&
           value == std::floor(value);
}

} // namespace qsyn
