/**
 * @file
 * The codebase's one JSON reader and one JSON writer, for its own
 * artifacts and wire messages: crash reports, campaign and fuzz
 * journals, job specs, divergence reports, and the service protocol.
 * The parser accepts standard JSON (objects, arrays, strings with the
 * escapes the writer emits, numbers, booleans, null) and throws
 * SimError(ErrCode::BadOperand) on malformed input, so a truncated
 * journal line — the expected artifact of a SIGKILLed campaign —
 * fails cleanly and recoverably. Nesting deeper than kMaxDepth is
 * malformed too: the parser recurses once per level, and a daemon
 * request line of a few hundred kilobytes of '[' must not overflow
 * the stack.
 *
 * This is not a general JSON library: numbers are doubles (with an
 * exact-integer accessor). Every JSON text the program builds from
 * data goes through json::Writer below.
 */

#ifndef MTFPU_COMMON_JSON_HH
#define MTFPU_COMMON_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mtfpu::json
{

/** One parsed JSON value. */
class Value
{
  public:
    enum class Kind : uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Typed accessors; throw SimError(BadOperand) on kind mismatch. */
    bool asBool() const;
    double asNumber() const;
    /**
     * The number as an integer. Plain integer tokens are re-read from
     * their source text, so the full int64/uint64 range round-trips
     * exactly — campaign journal seeds are raw 64-bit values, which a
     * double-only path would corrupt above 2^53.
     */
    int64_t asInt() const;
    uint64_t asUint() const;
    const std::string &asString() const;
    const std::vector<Value> &asArray() const;

    /** True if the object has member @p key. */
    bool has(const std::string &key) const;

    /** Object member access; throws if absent or not an object. */
    const Value &at(const std::string &key) const;

  private:
    friend Value parse(const std::string &text);
    friend class Parser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string numToken_; // source text of a Number (exact integers)
    std::string str_;
    std::vector<Value> arr_;
    std::map<std::string, Value> obj_;
};

/** Deepest array/object nesting parse() accepts. The program writes
 *  at most 5 levels (a spec's cache config inside a request). */
constexpr unsigned kMaxDepth = 64;

/** Parse one JSON document; throws SimError(BadOperand) on errors,
 *  nesting past kMaxDepth included. */
Value parse(const std::string &text);

/**
 * Incremental JSON writer, the program's only JSON encoder: a small
 * builder that manages commas and escaping so no message or record
 * can come out structurally invalid. Usage:
 *
 *     json::Writer w;
 *     w.beginObject();
 *     w.key("cmd").value("submit");
 *     w.key("id").value(uint64_t{42});
 *     w.key("tags").beginArray().value("a").value("b").endArray();
 *     w.endObject();
 *     send(w.str());
 *
 * Integers are emitted as exact decimal tokens (the parser's
 * asInt/asUint round-trips the full 64-bit range); doubles use %.17g
 * so they re-parse bit-identically. No validation of key/value
 * alternation is performed beyond comma placement — this is a
 * formatting helper for trusted self-produced output, matching the
 * reader's scope.
 */
class Writer
{
  public:
    Writer &beginObject();
    Writer &endObject();
    Writer &beginArray();
    Writer &endArray();

    /** Object key (quoted + escaped, then ':'). */
    Writer &key(const std::string &name);

    Writer &value(const std::string &v);
    Writer &value(const char *v);
    Writer &value(bool v);
    Writer &value(double v);
    Writer &value(int v);
    Writer &value(int64_t v);
    Writer &value(uint64_t v);
    Writer &null();

    /** Splice a pre-serialized JSON fragment as one value. */
    Writer &raw(const std::string &json_text);

    const std::string &str() const { return out_; }

  private:
    /** Emit the separating comma when needed; mark a value started. */
    void sep();

    std::string out_;
    std::vector<bool> needComma_; // per open container
    bool pendingKey_ = false;
};

} // namespace mtfpu::json

#endif // MTFPU_COMMON_JSON_HH
