/**
 * @file
 * Format oracles shared by the telemetry suites: a JSON validator and a
 * Prometheus text-format line checker.
 *
 * The validator is deliberately independent of obs/jsonv: it checks the
 * encoder's output, so it must not share the encoder's code. It accepts
 * exactly one RFC 8259 value (plus surrounding whitespace) and rejects
 * unescaped control characters inside strings, which a real parser
 * (Perfetto's, jq, Python's json) refuses.
 */
#pragma once

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>

namespace zkspeed::test {

struct JsonCursor {
    const std::string &s;
    size_t i = 0;

    void
    ws()
    {
        while (i < s.size() && (s[i] == ' ' || s[i] == '\t' ||
                                s[i] == '\n' || s[i] == '\r')) {
            ++i;
        }
    }
    bool
    lit(const char *t)
    {
        size_t n = std::strlen(t);
        if (s.compare(i, n, t) != 0) return false;
        i += n;
        return true;
    }
    bool
    string()
    {
        if (i >= s.size() || s[i] != '"') return false;
        ++i;
        while (i < s.size() && s[i] != '"') {
            if (static_cast<unsigned char>(s[i]) < 0x20) return false;
            if (s[i] == '\\') {
                ++i;
                if (i >= s.size()) return false;
                if (s[i] == 'u') {
                    for (int k = 0; k < 4; ++k) {
                        if (++i >= s.size() || !std::isxdigit(
                                                   (unsigned char)s[i])) {
                            return false;
                        }
                    }
                } else if (std::strchr("\"\\/bfnrt", s[i]) == nullptr) {
                    return false;
                }
            }
            ++i;
        }
        if (i >= s.size()) return false;
        ++i;  // closing quote
        return true;
    }
    bool
    digits()
    {
        size_t start = i;
        while (i < s.size() && std::isdigit((unsigned char)s[i])) ++i;
        return i > start;
    }
    bool
    number()
    {
        if (i < s.size() && s[i] == '-') ++i;
        if (!digits()) return false;
        if (i < s.size() && s[i] == '.') {
            ++i;
            if (!digits()) return false;
        }
        if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
            ++i;
            if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
            if (!digits()) return false;
        }
        return true;
    }
    bool
    value()
    {
        ws();
        if (i >= s.size()) return false;
        char c = s[i];
        if (c == '"') return string();
        if (c == '{') {
            ++i;
            ws();
            if (i < s.size() && s[i] == '}') {
                ++i;
                return true;
            }
            for (;;) {
                ws();
                if (!string()) return false;
                ws();
                if (i >= s.size() || s[i] != ':') return false;
                ++i;
                if (!value()) return false;
                ws();
                if (i < s.size() && s[i] == ',') {
                    ++i;
                    continue;
                }
                break;
            }
            if (i >= s.size() || s[i] != '}') return false;
            ++i;
            return true;
        }
        if (c == '[') {
            ++i;
            ws();
            if (i < s.size() && s[i] == ']') {
                ++i;
                return true;
            }
            for (;;) {
                if (!value()) return false;
                ws();
                if (i < s.size() && s[i] == ',') {
                    ++i;
                    continue;
                }
                break;
            }
            if (i >= s.size() || s[i] != ']') return false;
            ++i;
            return true;
        }
        if (c == 't') return lit("true");
        if (c == 'f') return lit("false");
        if (c == 'n') return lit("null");
        return number();
    }
};

/** True iff the whole string is exactly one JSON value. */
inline bool
valid_json(const std::string &s)
{
    JsonCursor c{s};
    if (!c.value()) return false;
    c.ws();
    return c.i == s.size();
}

/** Strict line check for the Prometheus text format (v0.0.4 subset):
 * HELP/TYPE comments, `name[{k="v",...}] value` series lines with
 * quoted label values, and a parseable value on every line. */
inline void
check_prometheus_lines(const std::string &text)
{
    size_t pos = 0;
    int series_lines = 0;
    while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        ASSERT_NE(eol, std::string::npos) << "unterminated last line";
        std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty()) continue;
        if (line.rfind("# HELP ", 0) == 0 ||
            line.rfind("# TYPE ", 0) == 0) {
            continue;
        }
        ASSERT_NE(line[0], '#') << "unknown comment form: " << line;
        // <name>[{labels}] <value>
        size_t sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        std::string series = line.substr(0, sp);
        std::string value = line.substr(sp + 1);
        char *end = nullptr;
        std::strtod(value.c_str(), &end);
        EXPECT_EQ(*end, '\0') << "unparseable value in: " << line;
        size_t brace = series.find('{');
        std::string name = series.substr(0, brace);
        ASSERT_FALSE(name.empty());
        for (char ch : name) {
            EXPECT_TRUE(std::isalnum((unsigned char)ch) || ch == '_' ||
                        ch == ':')
                << "bad metric name char in: " << line;
        }
        if (brace != std::string::npos) {
            EXPECT_EQ(series.back(), '}') << line;
            // Label values must be quoted: k="v",k2="v2"
            std::string body = series.substr(brace + 1,
                                             series.size() - brace - 2);
            size_t lp = 0;
            while (lp < body.size()) {
                size_t eq = body.find('=', lp);
                ASSERT_NE(eq, std::string::npos) << line;
                ASSERT_LT(eq + 1, body.size());
                EXPECT_EQ(body[eq + 1], '"') << line;
                size_t q = eq + 2;
                while (q < body.size() && body[q] != '"') {
                    q += body[q] == '\\' ? 2 : 1;  // skip \\ \" \n
                }
                ASSERT_LT(q, body.size()) << "unterminated label: " << line;
                lp = q + 1;
                if (lp < body.size()) {
                    EXPECT_EQ(body[lp], ',') << line;
                    ++lp;
                }
            }
        }
        ++series_lines;
    }
    EXPECT_GT(series_lines, 0);
}

}  // namespace zkspeed::test
