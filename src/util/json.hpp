/**
 * @file
 * Minimal JSON emission and parsing helpers shared by every reader and
 * writer in the repo (Chrome traces, stats dumps, tuner search JSONL,
 * bench reports, fault scenarios, serialized plans).
 *
 * Writers route strings through `escapeJson` (so a quote or backslash
 * in a name cannot break the document) and numbers through
 * `jsonNumber` (non-finite values become `null`, the only legal JSON
 * spelling). `parseJson` is a small recursive-descent parser whose
 * every syntax error is a `fatal` with a *byte offset* and a
 * caller-chosen prefix, so a broken input file points at the problem.
 *
 * Every reader of outside input (queries, plans, shortlists, cache
 * files, fault scenarios) reads through one `JsonReader`, which names
 * each key once and is strict: a value of the wrong kind, a fractional
 * integer or one outside its target type, and (at `finish()`, run for
 * every child and array element) a key never read — "unknown", or
 * "duplicate" for a second copy of a read key — are all fatal as
 * `<prefix>: <context>: <problem>` with the key path, e.g. `"robust.topK"
 * must be an integer in [-2147483648, 2147483647] (got 4294967299)` or
 * `unknown key "faults[2].facter"`. Messages are formatted only on
 * failure; the success path allocates nothing.
 */
#ifndef MESHSLICE_UTIL_JSON_HPP_
#define MESHSLICE_UTIL_JSON_HPP_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace meshslice {

/**
 * Escape @p s for inclusion inside a double-quoted JSON string:
 * backslash, quote, and control characters (U+0000..U+001F) are
 * escaped; everything else (including UTF-8 multibyte sequences) is
 * passed through verbatim. Does NOT add the surrounding quotes.
 */
std::string escapeJson(std::string_view s);

/** `"` + escapeJson(s) + `"`. */
std::string jsonString(std::string_view s);

/**
 * Format @p v as a JSON number with round-trippable precision
 * (`%.17g`). Infinities and NaNs — which JSON cannot represent — are
 * emitted as `null`.
 */
std::string jsonNumber(double v);

/**
 * One parsed JSON value. Objects preserve key order (so a document
 * can be inspected for duplicate/unknown keys deterministically);
 * numbers are doubles, matching what `jsonNumber` can emit.
 */
struct JsonValue
{
    enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
    Kind kind = kNull;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> arr;
    std::vector<std::pair<std::string, JsonValue>> obj;
};

/**
 * Parse one complete JSON document from @p text. Any syntax error is
 * `fatal("<error_prefix>: <what> at byte <off> of <context>")` — the
 * same positional-diagnostic contract `FaultScenario::fromJson`
 * established. Trailing non-whitespace after the document is an error.
 */
JsonValue parseJson(const std::string &text, const char *error_prefix,
                    const std::string &context);

/** What `JsonReader::get<T>` returns: strings by reference (no copy),
 *  everything else by value. */
template <class T>
using JsonGet = std::conditional_t<std::is_same_v<T, std::string>,
                                   const std::string &, T>;

/**
 * A checked view over one JSON object (see the file comment). `T` is
 * `int`, `std::int64_t`, `std::uint64_t`, `double`, `bool` or
 * `std::string`.
 */
class JsonReader
{
  public:
    /** Read the object @p value; errors carry @p prefix and @p context
     *  as `parseJson`'s do. @p index, when given, is its position in a
     *  top-level array (paths then read "[3].rows"). */
    JsonReader(const JsonValue &value, const char *prefix,
               const std::string &context, size_t index = kNoIndex);

    /** The required key @p key as a `T`. */
    template <class T>
    JsonGet<T>
    get(const char *key)
    {
        return as<T>(value(key), key);
    }

    /** If @p key is present, store it as a `T` in @p out and return
     *  true; otherwise leave @p out (its default) alone. */
    template <class T>
    bool
    opt(const char *key, T &out)
    {
        const JsonValue *v = find(key);
        if (v != nullptr)
            out = as<T>(*v, key);
        return v != nullptr;
    }

    /** The required key @p key, of any kind (for keys that take a
     *  name or an object). */
    const JsonValue &
    value(const char *key)
    {
        const JsonValue *v = find(key);
        if (v == nullptr)
            failMissing(key);
        return *v;
    }

    /** Read the required object under @p key with `read(JsonReader &)`,
     *  then `finish()` it. */
    template <class F>
    void
    child(const char *key, F &&read)
    {
        readChild(value(key), key, kNoIndex, read);
    }

    /** `child` if @p key is present; returns whether it was. */
    template <class F>
    bool
    optChild(const char *key, F &&read)
    {
        const JsonValue *v = find(key);
        if (v != nullptr)
            readChild(*v, key, kNoIndex, read);
        return v != nullptr;
    }

    /** Read every object of the required array under @p key, in
     *  order, with `read(JsonReader &)`, finishing each. */
    template <class F>
    void
    each(const char *key, F &&read)
    {
        readEach(value(key), key, read);
    }

    /** `each` if @p key is present (absent = empty array). */
    template <class F>
    void
    optEach(const char *key, F &&read)
    {
        if (const JsonValue *v = find(key))
            readEach(*v, key, read);
    }

    /** Reject the first key never read: "unknown key" if it is the
     *  first of its name, "duplicate key" otherwise. */
    void finish() const;

  private:
    static constexpr size_t kNoIndex = ~size_t{0};

    JsonReader(const JsonValue &value, const JsonReader *parent,
               const char *key, size_t index);

    /** The value under @p key (marking it read), or nullptr. */
    const JsonValue *
    find(const char *key)
    {
        const std::string_view name(key);
        for (size_t i = 0; i < value_.obj.size(); ++i)
            if (std::string_view(value_.obj[i].first) == name) {
                read_ |= std::uint64_t{1} << i;
                return &value_.obj[i].second;
            }
        return nullptr;
    }

    template <class T>
    JsonGet<T>
    as(const JsonValue &v, const char *key) const
    {
        if constexpr (std::is_same_v<T, bool>) {
            if (v.kind != JsonValue::kBool)
                failKind(key, "a boolean");
            return v.boolean;
        } else if constexpr (std::is_same_v<T, std::string>) {
            if (v.kind != JsonValue::kString)
                failKind(key, "a string");
            return v.str;
        } else if constexpr (std::is_same_v<T, double>) {
            if (v.kind != JsonValue::kNumber)
                failKind(key, "a number");
            return v.number;
        } else {
            static_assert(std::is_integral_v<T>, "JsonReader: no such type");
            using Limits = std::numeric_limits<T>;
            // [min, 2^digits) is exactly the doubles that convert to T.
            constexpr double lo = static_cast<double>(Limits::min());
            constexpr double hi =
                2.0 * static_cast<double>(Limits::max() / 2 + 1);
            if (v.kind != JsonValue::kNumber || !(v.number >= lo) ||
                !(v.number < hi) || std::floor(v.number) != v.number)
                failInteger(key, v, std::to_string(Limits::min()),
                            std::to_string(Limits::max()));
            return static_cast<T>(v.number);
        }
    }

    template <class F>
    void
    readChild(const JsonValue &v, const char *key, size_t index, F &read)
    {
        JsonReader c(v, this, key, index);
        read(c);
        c.finish();
    }

    template <class F>
    void
    readEach(const JsonValue &v, const char *key, F &read)
    {
        if (v.kind != JsonValue::kArray)
            failKind(key, "an array");
        for (size_t i = 0; i < v.arr.size(); ++i)
            readChild(v.arr[i], key, i, read);
    }

    void checkObject() const;
    /** "a.b[2]" for this reader, plus ".key" when @p key is given. */
    std::string path(const char *key = nullptr) const;
    /** `path(key)` in quotes, or "top-level value" when empty. */
    std::string subject(const char *key) const;
    [[noreturn]] void fail(const std::string &problem) const;
    [[noreturn]] void failKind(const char *key, const char *kind) const;
    [[noreturn]] void failMissing(const char *key) const;
    [[noreturn]] void failInteger(const char *key, const JsonValue &v,
                                  const std::string &min,
                                  const std::string &max) const;

    const JsonValue &value_;
    const JsonReader *parent_ = nullptr;
    const char *prefix_;
    const std::string &context_;
    const char *key_ = nullptr;
    size_t index_ = kNoIndex;
    std::uint64_t read_ = 0; ///< bit i: obj[i] was read
};

} // namespace meshslice

#endif // MESHSLICE_UTIL_JSON_HPP_
