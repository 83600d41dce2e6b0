/**
 * @file
 * Minimal JSON document model shared by the observability artifacts:
 * an ordered value tree (`Value`), a strict recursive-descent parser
 * and a renderer whose output round-trips through the parser.
 *
 * The one JSON encoder: every JSON artifact (/metrics.json, /trace, the
 * JSON-lines log, the FLIGHT, ATTRIB and SLO reports, the bench
 * envelopes) is a `Value` tree rendered here, so escaping and number
 * formatting live in one place. The parser reads artifacts back
 * (attrib's schema round trip, bench_attrib's summary merge and
 * baseline diff).
 *
 * Design notes: objects preserve insertion order (artifact diffs stay
 * stable run to run); integers are kept distinct from doubles, and
 * unsigned integers from signed ones, so exact counters (modmul counts)
 * and raw 64-bit ids (request ids up to 2^64-1) survive a render/parse
 * round trip bit-exactly; doubles render in the shortest form that
 * parses back to the same IEEE-754 value (std::to_chars), so a
 * timestamp of whole nanoseconds prints as `1234.567`. Header-only; no
 * dependencies beyond the standard library.
 */
#pragma once

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace zkspeed::obs::jsonv {

class Value
{
  public:
    enum class Kind : uint8_t {
        null_v = 0,
        bool_v,
        int_v,   ///< signed: negative literals and of(int64_t)
        uint_v,  ///< unsigned: non-negative literals and of(uint64_t)
        double_v,
        string_v,
        array_v,
        object_v,
    };

    Kind kind = Kind::null_v;
    bool boolean = false;
    int64_t integer = 0;    ///< int_v
    uint64_t uinteger = 0;  ///< uint_v
    double number = 0;
    std::string str;
    std::vector<Value> items;                            ///< array_v
    std::vector<std::pair<std::string, Value>> fields;   ///< object_v

    static Value
    null()
    {
        return Value{};
    }

    static Value
    of(bool b)
    {
        Value v;
        v.kind = Kind::bool_v;
        v.boolean = b;
        return v;
    }

    static Value
    of(int64_t i)
    {
        Value v;
        v.kind = Kind::int_v;
        v.integer = i;
        return v;
    }

    // size_t / uint64_t funnel through here (on LP64 a separate size_t
    // overload would collide with uint64_t); cast uint32_t up first.
    static Value
    of(uint64_t u)
    {
        Value v;
        v.kind = Kind::uint_v;
        v.uinteger = u;
        return v;
    }

    static Value
    of(int i)
    {
        return of(int64_t(i));
    }

    static Value
    of(double d)
    {
        Value v;
        v.kind = Kind::double_v;
        v.number = d;
        return v;
    }

    static Value
    of(std::string s)
    {
        Value v;
        v.kind = Kind::string_v;
        v.str = std::move(s);
        return v;
    }

    static Value
    of(const char *s)
    {
        return of(std::string(s));
    }

    static Value
    array()
    {
        Value v;
        v.kind = Kind::array_v;
        return v;
    }

    static Value
    object()
    {
        Value v;
        v.kind = Kind::object_v;
        return v;
    }

    bool is_null() const { return kind == Kind::null_v; }
    bool is_bool() const { return kind == Kind::bool_v; }
    bool is_string() const { return kind == Kind::string_v; }
    bool is_array() const { return kind == Kind::array_v; }
    bool is_object() const { return kind == Kind::object_v; }

    bool is_number() const { return is_integer() || kind == Kind::double_v; }

    /** Exact-integer check (doubles never count, even whole ones). */
    bool
    is_integer() const
    {
        return kind == Kind::int_v || kind == Kind::uint_v;
    }

    double
    as_double() const
    {
        if (kind == Kind::uint_v) return double(uinteger);
        return kind == Kind::int_v ? double(integer) : number;
    }

    int64_t
    as_int() const
    {
        if (kind == Kind::uint_v) return int64_t(uinteger);
        return kind == Kind::int_v ? integer : int64_t(number);
    }

    uint64_t
    as_u64() const
    {
        return kind == Kind::uint_v ? uinteger : uint64_t(as_int());
    }

    /** Object field append (builder style; keeps insertion order). */
    Value &
    set(std::string key, Value v)
    {
        fields.emplace_back(std::move(key), std::move(v));
        return *this;
    }

    /** Array element append (builder style). */
    Value &
    push(Value v)
    {
        items.push_back(std::move(v));
        return *this;
    }

    /** First field with this key, or nullptr (objects only). */
    const Value *
    find(std::string_view key) const
    {
        for (const auto &[k, v] : fields) {
            if (k == key) return &v;
        }
        return nullptr;
    }

    /**
     * Render as JSON text. `indent >= 0` pretty-prints with that many
     * leading spaces on the outermost level (children add 2); a
     * negative indent renders compact single-line JSON.
     */
    std::string
    render(int indent = 0) const
    {
        std::string out;
        render_to(out, indent);
        if (indent >= 0) out += "\n";
        return out;
    }

  private:
    static void
    escape_to(std::string &out, const std::string &s)
    {
        out += '"';
        for (char c : s) {
            switch (c) {
                case '"': out += "\\\""; break;
                case '\\': out += "\\\\"; break;
                case '\n': out += "\\n"; break;
                case '\r': out += "\\r"; break;
                case '\t': out += "\\t"; break;
                default:
                    if (static_cast<unsigned char>(c) < 0x20) {
                        char buf[8];
                        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                        out += buf;
                    } else {
                        out += c;
                    }
            }
        }
        out += '"';
    }

    void
    render_to(std::string &out, int indent) const
    {
        const bool pretty = indent >= 0;
        auto newline = [&](int level) {
            if (!pretty) return;
            out += '\n';
            out.append(size_t(level), ' ');
        };
        switch (kind) {
            case Kind::null_v: out += "null"; break;
            case Kind::bool_v: out += boolean ? "true" : "false"; break;
            case Kind::int_v: out += std::to_string(integer); break;
            case Kind::uint_v: out += std::to_string(uinteger); break;
            case Kind::double_v: {
                char buf[32];
                auto res = std::to_chars(buf, buf + sizeof(buf), number);
                out.append(buf, res.ptr);
                break;
            }
            case Kind::string_v: escape_to(out, str); break;
            case Kind::array_v: {
                out += '[';
                for (size_t i = 0; i < items.size(); ++i) {
                    if (i > 0) out += ',';
                    newline(indent + 2);
                    items[i].render_to(out,
                                       pretty ? indent + 2 : indent);
                }
                if (!items.empty()) newline(indent);
                out += ']';
                break;
            }
            case Kind::object_v: {
                out += '{';
                for (size_t i = 0; i < fields.size(); ++i) {
                    if (i > 0) out += ',';
                    newline(indent + 2);
                    escape_to(out, fields[i].first);
                    out += pretty ? ": " : ":";
                    fields[i].second.render_to(
                        out, pretty ? indent + 2 : indent);
                }
                if (!fields.empty()) newline(indent);
                out += '}';
                break;
            }
        }
    }
};

namespace detail {

struct Parser {
    const char *p;
    const char *end;
    bool ok = true;

    void
    skip_ws()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r')) {
            ++p;
        }
    }

    bool
    consume(char c)
    {
        skip_ws();
        if (p < end && *p == c) {
            ++p;
            return true;
        }
        return false;
    }

    bool
    literal(const char *lit)
    {
        size_t n = std::strlen(lit);
        if (size_t(end - p) < n || std::memcmp(p, lit, n) != 0) {
            return false;
        }
        p += n;
        return true;
    }

    std::string
    parse_string()
    {
        std::string s;
        if (!consume('"')) {
            ok = false;
            return s;
        }
        while (p < end && *p != '"') {
            if (*p == '\\') {
                ++p;
                if (p >= end) break;
                switch (*p) {
                    case '"': s += '"'; break;
                    case '\\': s += '\\'; break;
                    case '/': s += '/'; break;
                    case 'b': s += '\b'; break;
                    case 'f': s += '\f'; break;
                    case 'n': s += '\n'; break;
                    case 'r': s += '\r'; break;
                    case 't': s += '\t'; break;
                    case 'u': {
                        if (end - p < 5) {
                            ok = false;
                            return s;
                        }
                        char hex[5] = {p[1], p[2], p[3], p[4], 0};
                        unsigned code =
                            unsigned(std::strtoul(hex, nullptr, 16));
                        // Encode the BMP code point as UTF-8.
                        if (code < 0x80) {
                            s += char(code);
                        } else if (code < 0x800) {
                            s += char(0xC0 | (code >> 6));
                            s += char(0x80 | (code & 0x3F));
                        } else {
                            s += char(0xE0 | (code >> 12));
                            s += char(0x80 | ((code >> 6) & 0x3F));
                            s += char(0x80 | (code & 0x3F));
                        }
                        p += 4;
                        break;
                    }
                    default: ok = false; return s;
                }
                ++p;
            } else {
                s += *p++;
            }
        }
        if (!consume('"')) ok = false;
        return s;
    }

    Value
    parse_number()
    {
        const char *start = p;
        if (p < end && *p == '-') ++p;
        bool is_int = true;
        while (p < end &&
               (std::isdigit(static_cast<unsigned char>(*p)) ||
                *p == '.' || *p == 'e' || *p == 'E' || *p == '+' ||
                *p == '-')) {
            if (*p == '.' || *p == 'e' || *p == 'E') is_int = false;
            ++p;
        }
        std::string tok(start, p);
        if (tok.empty() || tok == "-") {
            ok = false;
            return Value::null();
        }
        if (is_int) {
            errno = 0;
            if (tok[0] == '-') {
                long long v = std::strtoll(tok.c_str(), nullptr, 10);
                if (errno == 0) return Value::of(int64_t(v));
            } else {
                unsigned long long v =
                    std::strtoull(tok.c_str(), nullptr, 10);
                if (errno == 0) return Value::of(uint64_t(v));
            }
            // Out-of-range integer literal: fall back to double.
        }
        return Value::of(std::strtod(tok.c_str(), nullptr));
    }

    Value
    parse_value(int depth)
    {
        if (depth > 64) {
            ok = false;
            return Value::null();
        }
        skip_ws();
        if (p >= end) {
            ok = false;
            return Value::null();
        }
        switch (*p) {
            case '{': {
                ++p;
                Value v = Value::object();
                skip_ws();
                if (consume('}')) return v;
                while (ok) {
                    std::string key = parse_string();
                    if (!ok || !consume(':')) {
                        ok = false;
                        break;
                    }
                    v.set(std::move(key), parse_value(depth + 1));
                    if (consume(',')) continue;
                    if (consume('}')) return v;
                    ok = false;
                }
                return v;
            }
            case '[': {
                ++p;
                Value v = Value::array();
                skip_ws();
                if (consume(']')) return v;
                while (ok) {
                    v.push(parse_value(depth + 1));
                    if (consume(',')) continue;
                    if (consume(']')) return v;
                    ok = false;
                }
                return v;
            }
            case '"': return Value::of(parse_string());
            case 't':
                if (literal("true")) return Value::of(true);
                ok = false;
                return Value::null();
            case 'f':
                if (literal("false")) return Value::of(false);
                ok = false;
                return Value::null();
            case 'n':
                if (literal("null")) return Value::null();
                ok = false;
                return Value::null();
            default: return parse_number();
        }
    }
};

}  // namespace detail

/** Strict parse of a complete JSON document (trailing garbage fails). */
inline std::optional<Value>
parse(std::string_view text)
{
    detail::Parser parser{text.data(), text.data() + text.size()};
    Value v = parser.parse_value(0);
    parser.skip_ws();
    if (!parser.ok || parser.p != parser.end) return std::nullopt;
    return v;
}

}  // namespace zkspeed::obs::jsonv
