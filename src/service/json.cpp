#include "service/json.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "obs/obs.hpp"

namespace qsyn::service {

const Json *
Json::find(const std::string &key) const
{
    if (type != Type::Object)
        return nullptr;
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
}

const Json &
Json::at(const std::string &key) const
{
    const Json *v = find(key);
    if (v == nullptr)
        throw std::out_of_range("JSON member '" + key + "' missing");
    return *v;
}

std::string
Json::stringOr(const std::string &key, const std::string &fallback) const
{
    const Json *v = find(key);
    return v != nullptr && v->type == Type::String ? v->str : fallback;
}

double
Json::numberOr(const std::string &key, double fallback) const
{
    const Json *v = find(key);
    return v != nullptr && v->type == Type::Number ? v->number
                                                   : fallback;
}

bool
Json::boolOr(const std::string &key, bool fallback) const
{
    const Json *v = find(key);
    return v != nullptr && v->type == Type::Bool ? v->boolean : fallback;
}

Json
Json::makeNull()
{
    return Json{};
}

Json
Json::makeBool(bool b)
{
    Json j;
    j.type = Type::Bool;
    j.boolean = b;
    return j;
}

Json
Json::makeNumber(double v)
{
    Json j;
    j.type = Type::Number;
    j.number = v;
    return j;
}

Json
Json::makeString(std::string s)
{
    Json j;
    j.type = Type::String;
    j.str = std::move(s);
    return j;
}

Json
Json::makeArray()
{
    Json j;
    j.type = Type::Array;
    return j;
}

Json
Json::makeObject()
{
    Json j;
    j.type = Type::Object;
    return j;
}

namespace {

void
dumpNumber(std::ostringstream &os, double v)
{
    // JSON has no NaN/Inf; the parser rejects them on the way in, and
    // we refuse to mint them on the way out.
    if (!std::isfinite(v)) {
        os << "0";
        return;
    }
    // Integers (the common case: ids, counts) print without exponent.
    if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
        std::abs(v) < 1e15) {
        os << static_cast<std::int64_t>(v);
        return;
    }
    os.precision(17);
    os << v;
}

void
dumpValue(std::ostringstream &os, const Json &j)
{
    switch (j.type) {
      case Json::Type::Null:
        os << "null";
        break;
      case Json::Type::Bool:
        os << (j.boolean ? "true" : "false");
        break;
      case Json::Type::Number:
        dumpNumber(os, j.number);
        break;
      case Json::Type::String:
        os << '"' << obs::jsonEscape(j.str) << '"';
        break;
      case Json::Type::Array: {
        os << '[';
        bool first = true;
        for (const Json &e : j.array) {
            if (!first)
                os << ',';
            first = false;
            dumpValue(os, e);
        }
        os << ']';
        break;
      }
      case Json::Type::Object: {
        os << '{';
        bool first = true;
        for (const auto &kv : j.object) {
            if (!first)
                os << ',';
            first = false;
            os << '"' << obs::jsonEscape(kv.first) << "\":";
            dumpValue(os, kv.second);
        }
        os << '}';
        break;
      }
    }
}

/** Recursive-descent parser; every failure sets `error_` and returns
 *  false up the stack (no exceptions across the wire boundary). */
class Parser
{
  public:
    explicit Parser(std::string_view s) : s_(s) {}

    bool
    parse(Json *out)
    {
        if (!value(out, 0))
            return false;
        ws();
        if (pos_ != s_.size())
            return fail("trailing bytes after value");
        return true;
    }

    const std::string &error() const { return error_; }

  private:
    static constexpr int kMaxDepth = 64;

    bool
    fail(const std::string &why)
    {
        if (error_.empty()) {
            error_ = "JSON error at byte " + std::to_string(pos_) +
                     ": " + why;
        }
        return false;
    }

    void
    ws()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(std::string_view word)
    {
        if (s_.substr(pos_, word.size()) != word)
            return fail("bad literal");
        pos_ += word.size();
        return true;
    }

    bool
    value(Json *out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        ws();
        if (pos_ >= s_.size())
            return fail("unexpected end of input");
        char c = s_[pos_];
        switch (c) {
          case '{':
            return objectValue(out, depth);
          case '[':
            return arrayValue(out, depth);
          case '"':
            out->type = Json::Type::String;
            return stringValue(&out->str);
          case 't':
            out->type = Json::Type::Bool;
            out->boolean = true;
            return literal("true");
          case 'f':
            out->type = Json::Type::Bool;
            out->boolean = false;
            return literal("false");
          case 'n':
            out->type = Json::Type::Null;
            return literal("null");
          default:
            return numberValue(out);
        }
    }

    bool
    objectValue(Json *out, int depth)
    {
        out->type = Json::Type::Object;
        ++pos_; // '{'
        ws();
        if (pos_ < s_.size() && s_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            ws();
            if (pos_ >= s_.size() || s_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!stringValue(&key))
                return false;
            ws();
            if (pos_ >= s_.size() || s_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            Json member;
            if (!value(&member, depth + 1))
                return false;
            out->object[std::move(key)] = std::move(member);
            ws();
            if (pos_ >= s_.size())
                return fail("unterminated object");
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    arrayValue(Json *out, int depth)
    {
        out->type = Json::Type::Array;
        ++pos_; // '['
        ws();
        if (pos_ < s_.size() && s_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            Json element;
            if (!value(&element, depth + 1))
                return false;
            out->array.push_back(std::move(element));
            ws();
            if (pos_ >= s_.size())
                return fail("unterminated array");
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    hexDigit(char c, unsigned *v)
    {
        if (c >= '0' && c <= '9')
            *v = static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f')
            *v = static_cast<unsigned>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            *v = static_cast<unsigned>(c - 'A' + 10);
        else
            return false;
        return true;
    }

    void
    appendUtf8(std::string *out, unsigned cp)
    {
        if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out->push_back(
                static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    bool
    stringValue(std::string *out)
    {
        ++pos_; // '"'
        out->clear();
        while (pos_ < s_.size()) {
            char c = s_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out->push_back(c);
                ++pos_;
                continue;
            }
            if (pos_ + 1 >= s_.size())
                return fail("dangling escape");
            char e = s_[pos_ + 1];
            pos_ += 2;
            switch (e) {
              case '"': out->push_back('"'); break;
              case '\\': out->push_back('\\'); break;
              case '/': out->push_back('/'); break;
              case 'b': out->push_back('\b'); break;
              case 'f': out->push_back('\f'); break;
              case 'n': out->push_back('\n'); break;
              case 'r': out->push_back('\r'); break;
              case 't': out->push_back('\t'); break;
              case 'u': {
                if (pos_ + 4 > s_.size())
                    return fail("truncated \\u escape");
                unsigned cp = 0;
                for (int k = 0; k < 4; ++k) {
                    unsigned d;
                    if (!hexDigit(s_[pos_ + static_cast<size_t>(k)],
                                  &d))
                        return fail("bad \\u escape");
                    cp = (cp << 4) | d;
                }
                pos_ += 4;
                // Surrogates are passed through as-is code points in
                // the BMP encoder; good enough for a wire format whose
                // payloads are ASCII QASM + metric names.
                appendUtf8(out, cp);
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    numberValue(Json *out)
    {
        size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        bool digits = false;
        while (pos_ < s_.size() &&
               ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
                s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
                s_[pos_] == '-')) {
            if (s_[pos_] >= '0' && s_[pos_] <= '9')
                digits = true;
            ++pos_;
        }
        if (!digits)
            return fail("expected a value");
        std::string text(s_.substr(start, pos_ - start));
        char *end = nullptr;
        double v = std::strtod(text.c_str(), &end);
        if (end == nullptr || *end != '\0' || !std::isfinite(v)) {
            pos_ = start;
            return fail("malformed number");
        }
        out->type = Json::Type::Number;
        out->number = v;
        return true;
    }

    std::string_view s_;
    size_t pos_ = 0;
    std::string error_;
};

} // namespace

std::string
Json::dump() const
{
    std::ostringstream os;
    dumpValue(os, *this);
    return os.str();
}

bool
parseJson(std::string_view text, Json *out, std::string *error)
{
    Parser p(text);
    Json parsed;
    if (!p.parse(&parsed)) {
        if (error != nullptr)
            *error = p.error();
        return false;
    }
    *out = std::move(parsed);
    return true;
}

} // namespace qsyn::service
