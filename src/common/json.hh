/**
 * @file
 * A minimal JSON reader for the simulator's own artifacts: crash
 * reports, campaign journals, and snapshot manifests are all written
 * by this codebase, read back by the replay CLI and the campaign
 * --resume path. The parser accepts standard JSON (objects, arrays,
 * strings with the escapes jsonEscape() emits, numbers, booleans,
 * null) and throws SimError(ErrCode::BadOperand) on malformed input,
 * so a truncated journal line — the expected artifact of a SIGKILLed
 * campaign — fails cleanly and recoverably.
 *
 * This is a reader for trusted, self-produced input, not a general
 * JSON library: numbers are doubles (with an exact-integer accessor).
 * Its writing half is json::Writer below, which the service layer
 * uses for wire messages, job specs, journal records and worker crash
 * reports; the simulator-side artifacts (campaign and fuzz records,
 * divergence and quarantine reports) are hand-built strings.
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
    bool isArray() const { return kind_ == Kind::Array; }

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

/** Parse one JSON document; throws SimError(BadOperand) on errors. */
Value parse(const std::string &text);

/**
 * Incremental JSON writer for the wire protocol and job specs: a
 * small builder that manages commas and escaping so hand-assembled
 * protocol messages cannot emit structurally invalid JSON. Usage:
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
