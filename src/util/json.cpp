#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/logging.hpp"

namespace meshslice {

std::string
escapeJson(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string
jsonString(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    out += escapeJson(s);
    out += '"';
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

namespace {

/**
 * Recursive-descent parser over objects/arrays/strings/numbers/bools/
 * null. Errors go through `fatal` with a byte offset so a broken input
 * file points at the problem.
 */
class JsonParser
{
  public:
    JsonParser(const std::string &text, const char *error_prefix,
               const std::string &context)
        : text_(text), prefix_(error_prefix), context_(context)
    {
    }

    JsonValue
    parseDocument()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing garbage after JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char *msg)
    {
        fatal("%s: %s at byte %zu of %s", prefix_, msg, pos_,
              context_.c_str());
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(strprintf("expected '%c'", c).c_str());
        ++pos_;
    }

    bool
    consumeKeyword(const char *kw)
    {
        size_t len = std::string(kw).size();
        if (text_.compare(pos_, len, kw) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    JsonValue
    parseValue()
    {
        skipWs();
        switch (peek()) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"': {
            JsonValue v;
            v.kind = JsonValue::kString;
            v.str = parseString();
            return v;
          }
          case 't':
          case 'f': {
            JsonValue v;
            v.kind = JsonValue::kBool;
            if (consumeKeyword("true"))
                v.boolean = true;
            else if (consumeKeyword("false"))
                v.boolean = false;
            else
                fail("bad keyword");
            return v;
          }
          case 'n': {
            if (!consumeKeyword("null"))
                fail("bad keyword");
            return JsonValue{};
          }
          default:
            return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::kObject;
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            v.obj.emplace_back(std::move(key), parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::kArray;
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.arr.push_back(parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad hex digit in \\u escape");
                }
                if (cp >= 0xd800 && cp <= 0xdfff)
                    fail("surrogate \\u escapes are not supported");
                // Encode as UTF-8.
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xc0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (cp >> 12));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                }
                break;
              }
              default:
                fail("bad escape character");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        const char *begin = text_.c_str() + pos_;
        char *end = nullptr;
        double num = std::strtod(begin, &end);
        if (end == begin)
            fail("expected a JSON value");
        pos_ += static_cast<size_t>(end - begin);
        JsonValue v;
        v.kind = JsonValue::kNumber;
        v.number = num;
        return v;
    }

    const std::string &text_;
    const char *prefix_;
    const std::string &context_;
    size_t pos_ = 0;
};

} // namespace

JsonValue
parseJson(const std::string &text, const char *error_prefix,
          const std::string &context)
{
    return JsonParser(text, error_prefix, context).parseDocument();
}

JsonReader::JsonReader(const JsonValue &value, const char *prefix,
                       const std::string &context, size_t index)
    : value_(value), prefix_(prefix), context_(context), index_(index)
{
    checkObject();
}

JsonReader::JsonReader(const JsonValue &value, const JsonReader *parent,
                       const char *key, size_t index)
    : value_(value), parent_(parent), prefix_(parent->prefix_),
      context_(parent->context_), key_(key), index_(index)
{
    checkObject();
}

void
JsonReader::checkObject() const
{
    if (value_.kind != JsonValue::kObject)
        failKind(nullptr, "an object");
    // No schema object comes near 64 keys, so a larger one holds an
    // unknown or duplicate key; the read mask is one word.
    if (value_.obj.size() > 64)
        fail(subject(nullptr) + " has more than 64 keys");
}

void
JsonReader::failMissing(const char *key) const
{
    // A misspelt key is missing here and unknown at finish(): name both
    // now, or the typo never reaches the message.
    std::string unread;
    for (size_t i = 0; i < value_.obj.size(); ++i)
        if (((read_ >> i) & 1) == 0)
            unread += (unread.empty() ? " (unread keys here: \"" : ", \"") +
                      value_.obj[i].first + "\"";
    fail("missing key " + subject(key) +
         (unread.empty() ? unread : unread + ")"));
}

void
JsonReader::failInteger(const char *key, const JsonValue &v,
                        const std::string &min, const std::string &max) const
{
    fail(subject(key) + " must be an integer in [" + min + ", " + max + "]" +
         (v.kind == JsonValue::kNumber ? " (got " + jsonNumber(v.number) + ")"
                                       : std::string()));
}

void
JsonReader::finish() const
{
    const auto &obj = value_.obj;
    for (size_t i = 0; i < obj.size(); ++i) {
        if ((read_ >> i) & 1)
            continue;
        bool repeated = false;
        for (size_t j = 0; j < i && !repeated; ++j)
            repeated = obj[j].first == obj[i].first;
        fail(std::string(repeated ? "duplicate" : "unknown") + " key " +
             subject(obj[i].first.c_str()));
    }
}

std::string
JsonReader::path(const char *key) const
{
    std::string out = parent_ != nullptr ? parent_->path() : std::string();
    if (key_ != nullptr)
        out += (out.empty() ? "" : ".") + std::string(key_);
    if (index_ != kNoIndex)
        out += "[" + std::to_string(index_) + "]";
    if (key != nullptr)
        out += (out.empty() ? "" : ".") + std::string(key);
    return out;
}

void
JsonReader::fail(const std::string &problem) const
{
    fatal("%s: %s: %s", prefix_, context_.c_str(), problem.c_str());
}

std::string
JsonReader::subject(const char *key) const
{
    const std::string where = path(key);
    return where.empty() ? "top-level value" : "\"" + where + "\"";
}

void
JsonReader::failKind(const char *key, const char *kind) const
{
    fail(subject(key) + " must be " + kind);
}

} // namespace meshslice
