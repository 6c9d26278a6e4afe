#include "common/json.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/log.hh"

namespace mtfpu::json
{

namespace
{

[[noreturn]] void
badJson(const std::string &what)
{
    fatal(ErrCode::BadOperand, "json: " + what);
}

/** Optional minus then digits only — no fraction, no exponent. */
bool
plainInteger(const std::string &token)
{
    size_t i = (!token.empty() && token[0] == '-') ? 1 : 0;
    if (i >= token.size())
        return false;
    for (; i < token.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(token[i])))
            return false;
    }
    return true;
}

/** Escape @p text for a JSON string literal (no quotes added). */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
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
    return out;
}

} // anonymous namespace

bool
Value::asBool() const
{
    if (kind_ != Kind::Bool)
        badJson("value is not a boolean");
    return bool_;
}

double
Value::asNumber() const
{
    if (kind_ != Kind::Number)
        badJson("value is not a number");
    return num_;
}

int64_t
Value::asInt() const
{
    if (kind_ != Kind::Number)
        badJson("value is not a number");
    if (plainInteger(numToken_)) {
        errno = 0;
        char *end = nullptr;
        const long long v = std::strtoll(numToken_.c_str(), &end, 10);
        if (errno == ERANGE)
            badJson("integer out of int64 range: " + numToken_);
        return v;
    }
    const double v = num_;
    if (v != std::floor(v))
        badJson("number is not an integer");
    return static_cast<int64_t>(v);
}

uint64_t
Value::asUint() const
{
    if (kind_ != Kind::Number)
        badJson("value is not a number");
    if (plainInteger(numToken_) && numToken_[0] != '-') {
        errno = 0;
        char *end = nullptr;
        const unsigned long long v =
            std::strtoull(numToken_.c_str(), &end, 10);
        if (errno == ERANGE)
            badJson("integer out of uint64 range: " + numToken_);
        return v;
    }
    const int64_t v = asInt();
    if (v < 0)
        badJson("number is negative");
    return static_cast<uint64_t>(v);
}

const std::string &
Value::asString() const
{
    if (kind_ != Kind::String)
        badJson("value is not a string");
    return str_;
}

const std::vector<Value> &
Value::asArray() const
{
    if (kind_ != Kind::Array)
        badJson("value is not an array");
    return arr_;
}

bool
Value::has(const std::string &key) const
{
    return kind_ == Kind::Object && obj_.count(key) != 0;
}

const Value &
Value::at(const std::string &key) const
{
    if (kind_ != Kind::Object)
        badJson("value is not an object");
    auto it = obj_.find(key);
    if (it == obj_.end())
        badJson("missing member '" + key + "'");
    return it->second;
}

/** Recursive-descent parser over the document text. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value
    document()
    {
        Value v = value(0);
        skipWs();
        if (pos_ != text_.size())
            badJson("trailing characters after document");
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            badJson("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            badJson(std::string("expected '") + c + "' at offset " +
                    std::to_string(pos_));
        ++pos_;
    }

    bool
    consumeIf(char c)
    {
        if (pos_ < text_.size() && peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (pos_ >= text_.size() || text_[pos_] != *p)
                badJson(std::string("bad literal (expected ") + word + ")");
            ++pos_;
        }
    }

    /** One value inside @p depth open arrays and objects. */
    Value
    value(unsigned depth)
    {
        Value v;
        const char c = peek();
        if ((c == '{' || c == '[') && depth == kMaxDepth)
            badJson("nesting deeper than " + std::to_string(kMaxDepth) +
                    " levels at offset " + std::to_string(pos_));
        switch (c) {
          case '{': {
            v.kind_ = Value::Kind::Object;
            ++pos_;
            if (consumeIf('}'))
                return v;
            do {
                skipWs();
                Value key = value(depth + 1);
                if (key.kind_ != Value::Kind::String)
                    badJson("object key is not a string");
                expect(':');
                v.obj_[key.str_] = value(depth + 1);
            } while (consumeIf(','));
            expect('}');
            return v;
          }
          case '[': {
            v.kind_ = Value::Kind::Array;
            ++pos_;
            if (consumeIf(']'))
                return v;
            do {
                v.arr_.push_back(value(depth + 1));
            } while (consumeIf(','));
            expect(']');
            return v;
          }
          case '"':
            v.kind_ = Value::Kind::String;
            v.str_ = string();
            return v;
          case 't':
            literal("true");
            v.kind_ = Value::Kind::Bool;
            v.bool_ = true;
            return v;
          case 'f':
            literal("false");
            v.kind_ = Value::Kind::Bool;
            v.bool_ = false;
            return v;
          case 'n':
            literal("null");
            return v;
          default:
            v.kind_ = Value::Kind::Number;
            v.num_ = number(v.numToken_);
            return v;
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                badJson("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                badJson("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'n': out.push_back('\n'); break;
              case 't': out.push_back('\t'); break;
              case 'r': out.push_back('\r'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    badJson("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        badJson("bad \\u escape digit");
                }
                // Our own writer only emits \u00xx control escapes;
                // wider code points are passed through as UTF-8.
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(static_cast<char>(0xc0 | (code >> 6)));
                    out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
                } else {
                    out.push_back(static_cast<char>(0xe0 | (code >> 12)));
                    out.push_back(
                        static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
                    out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
                }
                break;
              }
              default:
                badJson("unknown escape");
            }
        }
    }

    /** Parse a number; @p token_out keeps the source text so the
     *  integer accessors can re-read it without double rounding. */
    double
    number(std::string &token_out)
    {
        const size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start)
            badJson("expected a number at offset " + std::to_string(start));
        const std::string token = text_.substr(start, pos_ - start);
        char *end = nullptr;
        const double v = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            badJson("malformed number '" + token + "'");
        token_out = token;
        return v;
    }

    const std::string &text_;
    size_t pos_ = 0;
};

Value
parse(const std::string &text)
{
    return Parser(text).document();
}

void
Writer::sep()
{
    if (pendingKey_) {
        // The key already emitted its separator; the value follows
        // its ':' directly.
        pendingKey_ = false;
        return;
    }
    if (!needComma_.empty()) {
        if (needComma_.back())
            out_ += ',';
        needComma_.back() = true;
    }
}

Writer &
Writer::beginObject()
{
    sep();
    out_ += '{';
    needComma_.push_back(false);
    return *this;
}

Writer &
Writer::endObject()
{
    out_ += '}';
    if (!needComma_.empty())
        needComma_.pop_back();
    return *this;
}

Writer &
Writer::beginArray()
{
    sep();
    out_ += '[';
    needComma_.push_back(false);
    return *this;
}

Writer &
Writer::endArray()
{
    out_ += ']';
    if (!needComma_.empty())
        needComma_.pop_back();
    return *this;
}

Writer &
Writer::key(const std::string &name)
{
    sep();
    out_ += '"';
    out_ += jsonEscape(name);
    out_ += "\":";
    pendingKey_ = true;
    return *this;
}

Writer &
Writer::value(const std::string &v)
{
    sep();
    out_ += '"';
    out_ += jsonEscape(v);
    out_ += '"';
    return *this;
}

Writer &
Writer::value(const char *v)
{
    return value(std::string(v));
}

Writer &
Writer::value(bool v)
{
    sep();
    out_ += v ? "true" : "false";
    return *this;
}

Writer &
Writer::value(double v)
{
    sep();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
}

Writer &
Writer::value(int v)
{
    return value(static_cast<int64_t>(v));
}

Writer &
Writer::value(int64_t v)
{
    sep();
    out_ += std::to_string(v);
    return *this;
}

Writer &
Writer::value(uint64_t v)
{
    sep();
    out_ += std::to_string(v);
    return *this;
}

Writer &
Writer::null()
{
    sep();
    out_ += "null";
    return *this;
}

Writer &
Writer::raw(const std::string &json_text)
{
    sep();
    out_ += json_text;
    return *this;
}

} // namespace mtfpu::json
